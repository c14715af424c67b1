#!/bin/sh
# End-to-end smoke check for the event-tracing layer.
#
#   check_trace.sh PSB_SIM PSB_REPORT PYTHON PSB_TRACE_PY
#
# Runs the simulator twice with tracing and interval stats enabled and
# checks the full observability contract:
#
#  1. the JSONL trace passes tools/psb_trace.py validation (schema,
#     monotonic cycles, balanced stream-buffer lifetimes);
#  2. the Chrome trace-event export also validates and is well-formed;
#  3. psb-report re-verifies the interval series: records numbered
#     0, 1, 2, ..., each starting where the previous one ended, and
#     per-interval stat deltas telescoping to the final --stats-json
#     counters;
#  4. both runs are byte-identical (trace, intervals, and stats) — the
#     determinism contract extends to every observability output;
#  5. with cpu tracing on, every MSHR-full retry emits its mshr_stall
#     event: fast-forward skips stalled spans (replaying their counts)
#     only while cpu tracing is off.
set -eu

PSB_SIM=$1
PSB_REPORT=$2
PYTHON=$3
PSB_TRACE_PY=$4

ARGS="--workload health --seed 1 --insts 20000 --warmup 5000"

DIR=$(mktemp -d "${TMPDIR:-/tmp}/trace_smoke.XXXXXX")
trap 'rm -rf "$DIR"' EXIT

for run in 1 2; do
    "$PSB_SIM" $ARGS \
        --trace all --trace-format jsonl \
        --trace-out "$DIR/trace$run.jsonl" \
        --interval-stats 5000 --interval-out "$DIR/intervals$run.jsonl" \
        --stats-json "$DIR/stats$run.json" > /dev/null
done
"$PSB_SIM" $ARGS --trace all --trace-format chrome \
    --trace-out "$DIR/trace.chrome.json" > /dev/null

"$PYTHON" "$PSB_TRACE_PY" "$DIR/trace1.jsonl" --quiet
"$PYTHON" "$PSB_TRACE_PY" "$DIR/trace.chrome.json" --format chrome \
    --quiet
"$PSB_REPORT" --stats-json "$DIR/stats1.json" \
    --intervals "$DIR/intervals1.jsonl" --md "$DIR/report.md"
grep -q "Telescoping check: OK" "$DIR/report.md" || {
    echo "check_trace.sh: the interval series does not verify" >&2
    grep "Telescoping check" "$DIR/report.md" >&2
    exit 1
}

cmp "$DIR/trace1.jsonl" "$DIR/trace2.jsonl" || {
    echo "check_trace.sh: traced runs are not byte-identical" >&2
    exit 1
}
cmp "$DIR/intervals1.jsonl" "$DIR/intervals2.jsonl" || {
    echo "check_trace.sh: interval stats are not byte-identical" >&2
    exit 1
}
cmp "$DIR/stats1.json" "$DIR/stats2.json" || {
    echo "check_trace.sh: stats JSON diverged across traced runs" >&2
    exit 1
}
"$PSB_SIM" --workload gs --seed 1 --insts 10000 --warmup 0 \
    --trace cpu --trace-format jsonl --trace-out "$DIR/cpu.jsonl" \
    --stats-json "$DIR/cpu_stats.json" > /dev/null 2>&1
"$PYTHON" - "$DIR/cpu.jsonl" "$DIR/cpu_stats.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as trace:
    events = sum(json.loads(line)["name"] == "mshr_stall" for line in trace)
with open(sys.argv[2]) as stats:
    retries = json.load(stats)["core.mshr_stall_retries"]
if retries == 0 or events != retries:
    sys.exit(f"check_trace.sh: {events} mshr_stall events for "
             f"{retries} MSHR stall retries")
EOF

echo "check_trace.sh: trace, intervals, and stats all validate"
