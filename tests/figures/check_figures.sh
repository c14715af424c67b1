#!/bin/sh
# Figure pipeline smoke test (see the `figures` CMake target).
#
#   check_figures.sh PSB_SWEEP PSB_REPORT PYTHON SPEC
#
# Shrinks SPEC's measured region to a few thousand instructions, runs
# it through psb-sweep at --jobs 1 and --jobs 4 and renders each
# merged document with psb-report --md twice, then checks:
#
#  1. both merged documents are byte-identical;
#  2. all four reports are byte-identical;
#  3. the report carries every table the spec declares.
set -eu

PSB_SWEEP=$1
PSB_REPORT=$2
PYTHON=$3
SPEC=$4

DIR=$(mktemp -d "${TMPDIR:-/tmp}/figures_check.XXXXXX")
trap 'rm -rf "$DIR"' EXIT

"$PYTHON" - "$SPEC" "$DIR/spec.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    spec = json.load(f)
spec["base"]["insts"] = 4000
spec["base"]["warmup"] = 1000
with open(sys.argv[2], "w") as f:
    json.dump(spec, f, indent=2)
PY

for jobs in 1 4; do
    "$PSB_SWEEP" "$DIR/spec.json" --jobs "$jobs" --quiet \
        --out "$DIR/merged_$jobs.json"
    for run in 1 2; do
        "$PSB_REPORT" --sweep "$DIR/merged_$jobs.json" --title smoke \
            --md "$DIR/report_${jobs}_$run.md"
    done
done

cmp "$DIR/merged_1.json" "$DIR/merged_4.json" || {
    echo "check_figures.sh: merged documents differ across --jobs" >&2
    exit 1
}
for report in "$DIR"/report_*.md; do
    cmp "$DIR/report_1_1.md" "$report" || {
        echo "check_figures.sh: $report differs" >&2
        exit 1
    }
done

TABLES=$("$PYTHON" -c 'import json,sys; print(len(json.load(open(sys.argv[1]))["tables"]))' "$SPEC")
FOUND=$(grep -c '^## ' "$DIR/report_1_1.md")
if [ "$FOUND" -ne "$TABLES" ]; then
    echo "check_figures.sh: $FOUND report sections, spec has $TABLES tables" >&2
    exit 1
fi
echo "check_figures.sh: $TABLES tables byte-identical at --jobs 1/4"
