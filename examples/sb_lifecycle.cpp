/**
 * @file
 * A narrated walk through one stream buffer's life (paper §4.1):
 * allocation on a filtered miss, per-cycle predictions from the shared
 * SFM predictor, bus-gated prefetch issue, lookups that hit, and the
 * priority counter's rise. Drives the PSB directly — no core, no
 * workload — so every event is visible.
 */

#include <cstdio>

#include "core/psb.hh"
#include "memory/hierarchy.hh"
#include "predictors/sfm_predictor.hh"

using namespace psb;

namespace
{

void
dumpBuffers(const PredictorDirectedStreamBuffers &psb)
{
    const StreamBufferFile &file = psb.bufferFile();
    for (unsigned b = 0; b < file.numBuffers(); ++b) {
        const StreamBuffer &buf = file.buffer(b);
        if (!buf.allocated())
            continue;
        std::printf("  buffer %u: pc=%#llx last=%#llx stride=%lld "
                    "priority=%u |",
                    b, (unsigned long long)buf.state.loadPc.raw(),
                    (unsigned long long)buf.state.lastAddr.raw(),
                    (long long)buf.state.stride.raw(),
                    buf.priority.value());
        for (const SbEntry &e : buf.entries()) {
            if (!e.valid)
                std::printf(" [----]");
            else
                std::printf(" [%#llx%s]",
                            (unsigned long long)e.block.raw(),
                            e.prefetched ? "*" : "?");
        }
        std::printf("   (* = prefetch issued, ? = awaiting bus)\n");
    }
}

} // namespace

int
main()
{
    MemoryConfig mem_cfg;
    mem_cfg.tlbMissPenalty = CycleDelta{};
    MemoryHierarchy hier(mem_cfg);
    SfmPredictor sfm;
    PsbConfig cfg; // ConfAlloc-Priority, the paper's best configuration
    PredictorDirectedStreamBuffers psb(cfg, sfm, hier);

    constexpr Addr pc{0x400010};
    // A short pointer chain, scattered like heap nodes.
    const Addr chain[] = {Addr{0x10000}, Addr{0x2f840},
                          Addr{0x11230 & ~0x1full}, Addr{0x48660},
                          Addr{0x21a20}, Addr{0x3cd00},
                          Addr{0x15e80}, Addr{0x50240}};

    std::puts("== 1. training: the write-back stage sees the chain's "
              "misses twice ==");
    for (int pass = 0; pass < 2; ++pass)
        for (Addr a : chain)
            sfm.train(pc, a);
    std::printf("  stride-table confidence for load %#llx: %u "
                "(threshold for allocation: %u)\n",
                (unsigned long long)pc.raw(), sfm.confidence(pc),
                cfg.buffers.allocConfThreshold);
    std::printf("  Markov table now holds %llu transitions\n\n",
                (unsigned long long)sfm.markovTable().population());

    std::puts("== 2. allocation: the chain head misses L1D and every "
              "buffer ==");
    psb.demandMiss(pc, chain[0], Cycle{});
    dumpBuffers(psb);

    std::puts("\n== 3. prediction + prefetch: one predictor access "
              "and one bus slot per cycle ==");
    for (Cycle now{1}; now <= Cycle{4}; ++now) {
        psb.tick(now);
        std::printf(" cycle %llu: predictions=%llu prefetches=%llu\n",
                    (unsigned long long)now.raw(),
                    (unsigned long long)psb.stats().predictions,
                    (unsigned long long)psb.attribution().issued());
    }
    dumpBuffers(psb);
    std::puts("  (the first prefetch holds the serial L1-L2 bus; the "
              "rest queue behind it)");

    // Let the remaining prefetches win bus slots.
    for (Cycle c{5}; c < Cycle{80}; ++c)
        psb.tick(c);

    std::puts("\n== 4. the demand stream catches up: lookups hit the "
              "buffer ==");
    Cycle now{500}; // far past the fills
    for (unsigned i = 1; i <= 4; ++i) {
        PrefetchLookup hit = psb.lookup(chain[i], now);
        std::printf("  load of %#llx: %s%s\n",
                    (unsigned long long)chain[i].raw(),
                    hit.hit ? "STREAM BUFFER HIT" : "miss",
                    hit.dataPending ? " (data still in flight)" : "");
        psb.tick(now); // freed entry refills from the predictor
        psb.tick(now + CycleDelta(1));
        now += CycleDelta(2);
    }

    std::puts("\n== 5. the priority counter rose with every hit ==");
    dumpBuffers(psb);
    std::printf("\n  accuracy so far: %llu used / %llu issued = %.0f%%\n",
                (unsigned long long)psb.stats().hits,
                (unsigned long long)psb.attribution().issued(),
                100.0 * psb.accuracy());
    std::puts("  A competing load now needs confidence >= this "
              "priority to steal the buffer\n  (paper §4.3) — that is "
              "how confidence allocation ends stream thrashing.");
    return 0;
}
