#!/bin/sh
# End-to-end check for psb-report (see sim/run_report.hh).
#
#   check_report.sh PSB_SIM PSB_REPORT
#
# Runs one short simulation with stats + interval output, renders the
# consolidated report twice in both formats, and checks:
#
#  1. psb-report exits 0 and produces non-empty Markdown and HTML;
#  2. both formats are byte-identical across the two invocations (the
#     determinism contract the CI report job diffs);
#  3. the report actually carries the attribution and interval
#     sections (not vacuously deterministic);
#  4. a golden-drift section renders when a golden document is given
#     (here: the run's own stats, i.e. zero drift);
#  5. psb-sim's stdout report is byte-identical to the Markdown
#     psb-report renders from the same run's stats under the
#     "<workload> / <label>" title psb-sim gives it.
set -eu

PSB_SIM=$1
PSB_REPORT=$2

DIR=$(mktemp -d "${TMPDIR:-/tmp}/report_check.XXXXXX")
trap 'rm -rf "$DIR"' EXIT

"$PSB_SIM" --workload health --seed 1 --insts 20000 --warmup 5000 \
    --interval-stats 4997 --interval-out "$DIR/intervals.jsonl" \
    --stats-json "$DIR/stats.json" > "$DIR/sim.md"

for run in 1 2; do
    "$PSB_REPORT" --stats-json "$DIR/stats.json" \
        --intervals "$DIR/intervals.jsonl" \
        --golden "$DIR/stats.json" \
        --title "report smoke" \
        --md "$DIR/report$run.md" --html "$DIR/report$run.html"
done

test -s "$DIR/report1.md" || {
    echo "check_report.sh: empty Markdown report" >&2
    exit 1
}
test -s "$DIR/report1.html" || {
    echo "check_report.sh: empty HTML report" >&2
    exit 1
}
cmp "$DIR/report1.md" "$DIR/report2.md" || {
    echo "check_report.sh: Markdown reports are not byte-identical" >&2
    exit 1
}
cmp "$DIR/report1.html" "$DIR/report2.html" || {
    echo "check_report.sh: HTML reports are not byte-identical" >&2
    exit 1
}

for needle in "## Prefetch attribution" "## Interval series" \
    "Telescoping check: OK" \
    "0 stats added, 0 removed, 0 changed"; do
    grep -q "$needle" "$DIR/report1.md" || {
        echo "check_report.sh: Markdown missing '$needle'" >&2
        exit 1
    }
done
grep -q "<h2>Prefetch attribution</h2>" "$DIR/report1.html" || {
    echo "check_report.sh: HTML missing the attribution section" >&2
    exit 1
}
"$PSB_REPORT" --stats-json "$DIR/stats.json" \
    --title "health / ConfAlloc-Priority" --md "$DIR/rendered.md"
cmp "$DIR/sim.md" "$DIR/rendered.md" || {
    echo "check_report.sh: psb-sim's report differs from psb-report's" >&2
    exit 1
}
echo "check_report.sh: reports render deterministically"
