#!/bin/sh
# Smoke check for the examples under examples/.
#
#   check_examples.sh EXAMPLES_BIN_DIR
#
# Runs each example twice with a small budget and checks that:
#
#  1. every run exits 0;
#  2. both runs of an example print byte-identical stdout (the
#     examples drive the deterministic Simulator, so any difference is
#     a determinism bug);
#  3. a mistyped instruction count exits non-zero instead of running a
#     zero-length simulation.
set -eu

BIN=$1

DIR=$(mktemp -d "${TMPDIR:-/tmp}/examples_check.XXXXXX")
trap 'rm -rf "$DIR"' EXIT

failed=0
while read -r name args; do
    for run in 1 2; do
        # shellcheck disable=SC2086  # $args is a word list
        if ! "$BIN/$name" $args > "$DIR/$name.$run" 2> "$DIR/$name.err"; then
            echo "check_examples.sh: $name $args exited non-zero" >&2
            cat "$DIR/$name.err" >&2
            failed=1
            continue 2
        fi
    done
    if ! cmp -s "$DIR/$name.1" "$DIR/$name.2"; then
        echo "check_examples.sh: $name $args prints different stdout" \
            "across two runs" >&2
        diff "$DIR/$name.1" "$DIR/$name.2" >&2 || true
        failed=1
    fi
done <<LIST
quickstart health 20000
workload_explorer 20000 health
pointer_chase_demo
custom_predictor
sb_lifecycle
LIST

for bad in "quickstart health abc" "workload_explorer abc health"; do
    # shellcheck disable=SC2086  # $bad is a word list
    if "$BIN"/$bad > /dev/null 2>&1; then
        echo "check_examples.sh: $bad exited 0 on a bad count" >&2
        failed=1
    fi
done

[ "$failed" -eq 0 ] || exit 1
echo "check_examples.sh: every example runs deterministically"
