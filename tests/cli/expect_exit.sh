#!/bin/sh
# Expect a clean rejection from a CLI tool.
#
#   expect_exit.sh STATUS NEEDLE COMMAND [ARGS...]
#
# Runs COMMAND and passes when it exits with exactly STATUS (so never
# by a signal, which the shell reports as 128+N) and its stderr
# mentions NEEDLE.
set -u

STATUS=$1
NEEDLE=$2
shift 2

ERR=$(mktemp "${TMPDIR:-/tmp}/expect_exit.XXXXXX")
trap 'rm -f "$ERR"' EXIT

"$@" > /dev/null 2> "$ERR"
GOT=$?
if [ "$GOT" -ne "$STATUS" ]; then
    echo "expect_exit.sh: exit $GOT, expected $STATUS: $*" >&2
    cat "$ERR" >&2
    exit 1
fi
if ! grep -q -e "$NEEDLE" "$ERR"; then
    echo "expect_exit.sh: stderr does not mention '$NEEDLE': $*" >&2
    cat "$ERR" >&2
    exit 1
fi
echo "expect_exit.sh: exit $GOT: $(head -n 1 "$ERR")"
