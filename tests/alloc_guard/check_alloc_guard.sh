#!/bin/sh
# Runtime cross-check of the hot-path no-allocation rule (R10).
#
#   check_alloc_guard.sh PSB_SIM
#
# Runs a short simulation of every fig5 cell (6 workloads x the
# paper's 6 configurations) with --assert-no-alloc: under a
# PSB_ALLOC_GUARD build the armed guard makes a single heap
# allocation inside the steady-state cycle loop a fatal error, so any
# failure here means the per-cycle path allocated — the dynamic twin
# of psb_analyze's static R10 call-graph proof (DESIGN.md §14). Two
# workloads also run under the None and Learned disambiguation modes,
# whose waits (the store queue's issued-store scan, the store-set
# predictor) Perfect never takes. The server workloads, where most
# MSHR-full accesses park (DESIGN.md §11, rule 6), run under Base and
# ConfAlloc-Priority, and logscan under NextLine and Markov, whose
# prefetches wake parked loads. Only
# meaningful under the alloc-guard preset; psb-sim itself rejects
# --assert-no-alloc in builds without the interposers.
set -eu

PSB_SIM=$1

WORKLOADS="health burg deltablue gs sis turb3d"

run() {
    # $1 workload, rest: config flags
    wl=$1
    shift
    if ! "$PSB_SIM" --workload "$wl" --insts 20000 --warmup 5000 \
            --assert-no-alloc "$@" >/dev/null; then
        echo "check_alloc_guard.sh: steady-state allocation in" \
             "workload=$wl config='$*'" >&2
        exit 1
    fi
}

for wl in $WORKLOADS; do
    # The fig5 configuration matrix (src/sim/config.cc
    # makePaperConfig), spelled as psb-sim flags.
    run "$wl" --prefetcher none                          # Base
    run "$wl" --prefetcher pcstride                      # PCStride
    run "$wl" --prefetcher psb --alloc 2miss --sched rr  # 2Miss-RR
    run "$wl" --prefetcher psb --alloc 2miss --sched priority
    run "$wl" --prefetcher psb --alloc conf --sched rr   # ConfAlloc-RR
    run "$wl" --prefetcher psb --alloc conf --sched priority
done

for wl in gs turb3d; do
    for dis in none learned; do
        run "$wl" --prefetcher psb --alloc conf --sched priority \
            --disambig "$dis"
    done
done

for wl in graph hashjoin logscan fuzz; do
    run "$wl" --prefetcher none                          # Base
    run "$wl" --prefetcher psb --alloc conf --sched priority
done

for pf in nextline markov; do
    run logscan --prefetcher "$pf"
done

echo "check_alloc_guard.sh: zero steady-state allocations across" \
     "all fig5 cells, every disambiguation mode and the server cells"
