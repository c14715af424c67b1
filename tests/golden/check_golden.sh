#!/bin/sh
# Golden-stats regression check for one seed workload.
#
#   check_golden.sh PSB_SIM PSB_REPORT WORKLOAD GOLDEN_FILE [--update]
#
# Runs the simulator at the fixed golden configuration, dumps the
# stats registry as JSON, and byte-compares it with the checked-in
# golden: the simulation is fully deterministic, so any deviation is
# a real behaviour change. On a mismatch it prints psb-report's golden
# drift section (every added, removed and changed stat, up to 20) and
# exits 1. With --update the golden file is regenerated instead;
# `cmake --build build --target update-golden` runs this for every
# workload. See EXPERIMENTS.md ("Golden-stats workflow").
set -eu

PSB_SIM=$1
PSB_REPORT=$2
WORKLOAD=$3
GOLDEN=$4
MODE=${5:-check}

# The golden region: big enough that every component's counters are
# exercised (allocations, aging, both buses, TLB misses), small enough
# that all six checks add ~1s to ctest.
GOLDEN_ARGS="--workload $WORKLOAD --seed 1 --insts 60000 --warmup 20000"

TMP=$(mktemp "${TMPDIR:-/tmp}/golden_${WORKLOAD}.XXXXXX")
trap 'rm -f "$TMP"' EXIT

"$PSB_SIM" $GOLDEN_ARGS --stats-json "$TMP" > /dev/null

if [ "$MODE" = "--update" ]; then
    cp "$TMP" "$GOLDEN"
    echo "check_golden.sh: updated $GOLDEN"
    exit 0
fi

cmp -s "$GOLDEN" "$TMP" && exit 0
echo "check_golden.sh: $WORKLOAD stats differ from $GOLDEN" >&2
"$PSB_REPORT" --stats-json "$TMP" --golden "$GOLDEN" --md -
exit 1
