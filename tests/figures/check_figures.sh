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
#  3. the report carries every table the spec declares;
#  4. the spec rerun with fastforward=false gives byte-identical
#     per-job stats for every cell and a byte-identical report, so
#     fast-forward stays invisible through the CLI path.
set -eu

PSB_SWEEP=$1
PSB_REPORT=$2
PYTHON=$3
SPEC=$4

DIR=$(mktemp -d "${TMPDIR:-/tmp}/figures_check.XXXXXX")
trap 'rm -rf "$DIR"' EXIT

"$PYTHON" - "$SPEC" "$DIR/spec.json" "$DIR/spec_noff.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    spec = json.load(f)
spec["base"]["insts"] = 4000
spec["base"]["warmup"] = 1000
with open(sys.argv[2], "w") as f:
    json.dump(spec, f, indent=2)
spec["base"]["fastforward"] = "false"
with open(sys.argv[3], "w") as f:
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

"$PSB_SWEEP" "$DIR/spec_noff.json" --jobs 4 --quiet \
    --out "$DIR/merged_noff.json"
"$PSB_REPORT" --sweep "$DIR/merged_noff.json" --title smoke \
    --md "$DIR/report_noff.md"

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

# The merged documents differ only in the spec they echo.
"$PYTHON" - "$DIR/merged_1.json" "$DIR/merged_noff.json" <<'PY' || exit 1
import json, sys
on, off = (json.load(open(p)) for p in sys.argv[1:])
spec = on["spec"]
cells = len(spec["workloads"])
for values in spec["axes"].values():
    cells *= len(values)
if len(on["jobs"]) != cells:
    sys.exit(f"check_figures.sh: {len(on['jobs'])} jobs, spec has {cells}")
if on["jobs"] != off["jobs"]:
    bad = sorted(k for k in on["jobs"] if on["jobs"][k] != off["jobs"].get(k))
    sys.exit("check_figures.sh: fastforward=false changes stats of " +
             ", ".join(bad or sorted(off["jobs"])))
PY
cmp "$DIR/report_1_1.md" "$DIR/report_noff.md" || {
    echo "check_figures.sh: report differs with fastforward=false" >&2
    exit 1
}

TABLES=$("$PYTHON" -c 'import json,sys; print(len(json.load(open(sys.argv[1]))["tables"]))' "$SPEC")
FOUND=$(grep -c '^## ' "$DIR/report_1_1.md")
if [ "$FOUND" -ne "$TABLES" ]; then
    echo "check_figures.sh: $FOUND report sections, spec has $TABLES tables" >&2
    exit 1
fi
echo "check_figures.sh: $TABLES tables byte-identical at --jobs 1/4" \
    "and with fastforward=false"
