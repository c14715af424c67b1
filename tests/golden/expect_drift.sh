#!/bin/sh
# The golden gate's failing path: against a copy of a golden whose
# core.cycles is off by one, check_golden.sh must exit 1 and its
# drift report must list core.cycles with both values.
#
#   expect_drift.sh CHECK_GOLDEN PSB_SIM PSB_REPORT WORKLOAD GOLDEN_FILE
set -u

CHECK_GOLDEN=$1
PSB_SIM=$2
PSB_REPORT=$3
WORKLOAD=$4
GOLDEN=$5

DIR=$(mktemp -d "${TMPDIR:-/tmp}/expect_drift.XXXXXX")
trap 'rm -rf "$DIR"' EXIT

OLD=$(sed -n 's/^ *"core\.cycles": \([0-9]*\),$/\1/p' "$GOLDEN")
if [ -z "$OLD" ]; then
    echo "expect_drift.sh: no core.cycles in $GOLDEN" >&2
    exit 1
fi
NEW=$((OLD + 1))
sed "s/^\( *\"core\.cycles\": \)$OLD,\$/\1$NEW,/" "$GOLDEN" \
    > "$DIR/golden.json"

"$CHECK_GOLDEN" "$PSB_SIM" "$PSB_REPORT" "$WORKLOAD" \
    "$DIR/golden.json" > "$DIR/out" 2>&1
GOT=$?
if [ "$GOT" -ne 1 ]; then
    echo "expect_drift.sh: check_golden.sh exited $GOT, expected 1" >&2
    cat "$DIR/out" >&2
    exit 1
fi
if ! grep -q -F "| core.cycles | $NEW | $OLD |" "$DIR/out"; then
    echo "expect_drift.sh: the report does not list core.cycles" \
         "($NEW in the golden, $OLD now)" >&2
    cat "$DIR/out" >&2
    exit 1
fi
echo "expect_drift.sh: drifted golden fails and names core.cycles"
