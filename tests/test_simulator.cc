/**
 * @file
 * Tests for the simulator driver: configuration presets, warm-up
 * handling, result consistency, the caller-built predictor seam, and
 * fast-forward.
 */

#include <gtest/gtest.h>

#include <memory>

#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace psb
{
namespace
{

TEST(SimConfigTest, PaperPresets)
{
    SimConfig base = makePaperConfig(PaperConfig::Base);
    EXPECT_EQ(base.prefetcher, PrefetcherKind::None);
    EXPECT_EQ(base.label(), "Base");

    SimConfig pcs = makePaperConfig(PaperConfig::PcStride);
    EXPECT_EQ(pcs.prefetcher, PrefetcherKind::PcStride);
    EXPECT_EQ(pcs.label(), "PCStride");

    SimConfig cap = makePaperConfig(PaperConfig::ConfAllocPriority);
    EXPECT_EQ(cap.prefetcher, PrefetcherKind::Psb);
    EXPECT_EQ(cap.psb.alloc, AllocPolicy::Confidence);
    EXPECT_EQ(cap.psb.sched, SchedPolicy::Priority);
    EXPECT_EQ(cap.label(), "ConfAlloc-Priority");

    SimConfig tmr = makePaperConfig(PaperConfig::TwoMissRR);
    EXPECT_EQ(tmr.psb.alloc, AllocPolicy::TwoMiss);
    EXPECT_EQ(tmr.psb.sched, SchedPolicy::RoundRobin);
    EXPECT_EQ(tmr.label(), "2Miss-RR");
}

TEST(SimConfigTest, BaselineMatchesPaperParameters)
{
    SimConfig cfg = makePaperConfig(PaperConfig::Base);
    EXPECT_EQ(cfg.core.fetchWidth, 8u);
    EXPECT_EQ(cfg.core.robEntries, 128u);
    EXPECT_EQ(cfg.core.lsqEntries, 64u);
    EXPECT_EQ(cfg.core.mispredictPenalty, CycleDelta{8});
    EXPECT_EQ(cfg.core.storeForwardLatency, CycleDelta{2});
    EXPECT_EQ(cfg.core.disambiguation, DisambiguationMode::Perfect);
    EXPECT_EQ(cfg.memory.l1d.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfg.memory.l1d.assoc, 4u);
    EXPECT_EQ(cfg.memory.l1d.blockBytes, 32u);
    EXPECT_EQ(cfg.memory.l1i.assoc, 2u);
    EXPECT_EQ(cfg.memory.l2.sizeBytes, 1024u * 1024);
    EXPECT_EQ(cfg.memory.l2.blockBytes, 64u);
    EXPECT_EQ(cfg.memory.l2Latency, CycleDelta{12});
    EXPECT_EQ(cfg.memory.memLatency, CycleDelta{120});
    EXPECT_EQ(cfg.memory.l1L2BusBytesPerCycle, 8u);
    EXPECT_EQ(cfg.memory.l2MemBusBytesPerCycle, 4u);
    // Stream buffers: 8 x 4 entries; tables: 256-entry 4-way stride,
    // 2K-entry differential Markov with 16-bit deltas.
    EXPECT_EQ(cfg.psb.buffers.numBuffers, 8u);
    EXPECT_EQ(cfg.psb.buffers.entriesPerBuffer, 4u);
    EXPECT_EQ(cfg.sfm.stride.entries, 256u);
    EXPECT_EQ(cfg.sfm.stride.assoc, 4u);
    EXPECT_EQ(cfg.sfm.stride.confidenceMax, 7u);
    EXPECT_EQ(cfg.sfm.markov.entries, 2048u);
    EXPECT_EQ(cfg.sfm.markov.deltaBits, 16u);
    EXPECT_EQ(cfg.psb.buffers.priorityMax, 12u);
    EXPECT_EQ(cfg.psb.buffers.priorityHitIncrement, 2u);
    EXPECT_EQ(cfg.psb.buffers.agingPeriod, 10u);
    EXPECT_EQ(cfg.psb.buffers.allocConfThreshold, 1u);
}

TEST(SimConfigTest, HarmonizePropagatesBlockSize)
{
    SimConfig cfg;
    cfg.memory.l1d.blockBytes = 64;
    cfg.harmonize();
    EXPECT_EQ(cfg.psb.buffers.blockBytes, 64u);
    EXPECT_EQ(cfg.sfm.stride.blockBytes, 64u);
    EXPECT_EQ(cfg.sfm.markov.blockBytes, 64u);
    EXPECT_EQ(cfg.stride.blockBytes, 64u);
}

TEST(SimulatorTest, RunsMeasuredRegionOfRequestedLength)
{
    auto w = makeWorkload("turb3d");
    SimConfig cfg = makePaperConfig(PaperConfig::Base);
    cfg.warmupInstructions = 20000;
    cfg.maxInstructions = 50000;
    Simulator sim(cfg, *w);
    sim.run();
    const CoreStats &core = sim.core().stats();
    EXPECT_GE(core.instructions, 50000u);
    EXPECT_LE(core.instructions, 50100u);
    EXPECT_GT(core.cycles, 0u);
    EXPECT_NEAR(sim.statsRegistry().snapshot().at("core.ipc").real,
                double(core.instructions) / double(core.cycles), 1e-9);
}

TEST(SimulatorTest, ResultFieldsConsistent)
{
    auto w = makeWorkload("health");
    SimConfig cfg = makePaperConfig(PaperConfig::ConfAllocPriority);
    cfg.warmupInstructions = 30000;
    cfg.maxInstructions = 60000;
    Simulator sim(cfg, *w);
    sim.run();
    const CoreStats &core = sim.core().stats();
    const Prefetcher &pf = sim.prefetcher();
    auto stats = sim.statsRegistry().snapshot();

    EXPECT_EQ(core.l1dAccesses, core.l1dHits + core.l1dMisses);
    EXPECT_LE(core.l1dInFlight, core.l1dMisses);
    EXPECT_GE(core.l1dMissRate(), 0.0);
    EXPECT_LE(core.l1dMissRate(), 1.0);
    EXPECT_GE(pf.accuracy(), 0.0);
    EXPECT_LE(pf.accuracy(), 1.0);
    EXPECT_LE(pf.stats().hits, pf.attribution().issued());
    double l1_l2_bus_util = stats.at("sim.l1_l2_bus_util").real;
    EXPECT_GE(l1_l2_bus_util, 0.0);
    EXPECT_LE(l1_l2_bus_util, 1.05); // bookings may spill past the end
    double pct_loads = stats.at("sim.pct_loads").real;
    EXPECT_GT(pct_loads, 0.0);
    EXPECT_LT(pct_loads, 100.0);
    EXPECT_GT(core.loadLatency.mean(), 0.9);
}

TEST(SimulatorTest, WarmupExcludedFromStats)
{
    auto w1 = makeWorkload("turb3d");
    SimConfig with_warmup = makePaperConfig(PaperConfig::Base);
    with_warmup.warmupInstructions = 100000;
    with_warmup.maxInstructions = 50000;
    Simulator s1(with_warmup, *w1);
    s1.run();
    const CoreStats &warm = s1.core().stats();

    auto w2 = makeWorkload("turb3d");
    SimConfig no_warmup = makePaperConfig(PaperConfig::Base);
    no_warmup.warmupInstructions = 0;
    no_warmup.maxInstructions = 50000;
    Simulator s2(no_warmup, *w2);
    s2.run();
    const CoreStats &cold = s2.core().stats();

    // Both runs measure the same number of instructions; the warmed
    // one must not look wildly different (phase drift allowed).
    EXPECT_NEAR(warm.l1dMissRate(), cold.l1dMissRate(), 0.15);
    EXPECT_NEAR(double(warm.instructions), double(cold.instructions),
                16.0);
}

TEST(SimulatorTest, EveryPrefetcherKindConstructsAndRuns)
{
    for (PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::PcStride,
          PrefetcherKind::Psb, PrefetcherKind::Sequential,
          PrefetcherKind::NextLine, PrefetcherKind::MarkovDemand,
          PrefetcherKind::MinDelta}) {
        auto w = makeWorkload("gs");
        SimConfig cfg;
        cfg.prefetcher = kind;
        cfg.warmupInstructions = 2000;
        cfg.maxInstructions = 10000;
        Simulator sim(cfg, *w);
        sim.run();
        EXPECT_GT(sim.core().stats().ipc(), 0.0)
            << prefetcherKindName(kind);
    }
}

TEST(SimulatorTest, CallerBuiltPredictorRunsLikeTheBuiltInOne)
{
    // The caller-built predictor takes the same construction path as
    // the built-in SFM, so handing in an equal SFM changes nothing.
    auto run = [](bool caller_built) {
        auto w = makeWorkload("health");
        SimConfig cfg = makePaperConfig(PaperConfig::ConfAllocPriority);
        cfg.warmupInstructions = 5000;
        cfg.maxInstructions = 20000;
        cfg.harmonize();
        SfmPredictor sfm(cfg.sfm);
        std::unique_ptr<Simulator> sim =
            caller_built ? std::make_unique<Simulator>(cfg, *w, sfm)
                         : std::make_unique<Simulator>(cfg, *w);
        sim->run();
        return sim->statsJson();
    };
    EXPECT_EQ(run(true), run(false));
}

TEST(SimulatorDeathTest, CallerBuiltPredictorNeedsPsbKind)
{
    auto w = makeWorkload("health");
    SimConfig cfg = makePaperConfig(PaperConfig::PcStride);
    SfmPredictor sfm(cfg.sfm);
    EXPECT_EXIT({ Simulator sim(cfg, *w, sfm); },
                ::testing::ExitedWithCode(1),
                "PrefetcherKind::Psb, not PCStride");
}

TEST(SimulatorTest, StalledPortCellFastForwardsLikeBase)
{
    // Skip regression guard. deltablue under ConfAlloc-Priority keeps
    // stride-0 streams on the predictor port; with those spans
    // replayed and refused spans retried up to the next free bus
    // cycle, it ticks about as many cycles one by one as its Base
    // cell. Calibrated at these region lengths: 33,708 stepped cycles
    // against Base's 34,408 (0.98x); without the replay and the retry
    // it stepped 91,930 (2.67x).
    auto stepped = [](PaperConfig config) {
        auto trace = makeWorkload("deltablue");
        SimConfig cfg = makePaperConfig(config);
        cfg.warmupInstructions = 20000;
        cfg.maxInstructions = 60000;
        Simulator sim(cfg, *trace);
        sim.run();
        return sim.steppedCycles();
    };
    uint64_t base = stepped(PaperConfig::Base);
    uint64_t psb = stepped(PaperConfig::ConfAllocPriority);
    EXPECT_GT(base, 0u);
    EXPECT_LE(psb * 10, base * 11)
        << "ConfAlloc-Priority stepped " << psb << " cycles, Base "
        << base;
}

TEST(SimulatorTest, MshrStallSpansFastForward)
{
    // Skip regression guard for MSHR-full stalls. gs and logscan under
    // Base spend long spans with every data MSHR busy. Each stalled
    // cycle repeats its blocked accesses exactly, so the span skips to
    // the next MSHR retirement and replays their counts. Calibrated at
    // these region lengths: gs steps 77,773 cycles and logscan 83,940;
    // ticking every stalled cycle took 180,674 and 433,261.
    struct Cell
    {
        const char *workload;
        uint64_t maxStepped;
    };
    for (const Cell &cell : {Cell{"gs", 90000}, Cell{"logscan", 100000}}) {
        SCOPED_TRACE(cell.workload);
        uint64_t stepped = 0;
        auto run = [&](bool fast_forward) {
            auto trace = makeWorkload(cell.workload);
            SimConfig cfg = makePaperConfig(PaperConfig::Base);
            cfg.warmupInstructions = 20000;
            cfg.maxInstructions = 60000;
            cfg.fastForward = fast_forward;
            Simulator sim(cfg, *trace);
            sim.run();
            stepped = sim.steppedCycles();
            return sim.statsJson();
        };
        const std::string skipped = run(true);
        EXPECT_LE(stepped, cell.maxStepped);
        EXPECT_EQ(skipped, run(false));
    }
}

TEST(SimulatorTest, MshrRetryWorkCountsCalibrated)
{
    // Work-count guard for the retry memo and the idle-core replay
    // (DESIGN.md §11). gs and logscan under ConfAlloc-Priority spend
    // long spans with every data MSHR busy while the PSB keeps
    // prefetching, so most stepped retries should come from the memo,
    // and many stepped cycles should replay an idle core. A change
    // that silently defeats either (an epoch moved every cycle, a
    // replay never taken) breaks these bounds while every stat stays
    // the same. Calibrated at these region lengths: gs serves 159,293
    // retries from the memo, runs 35,477 in full and replays 3,993
    // cycles; logscan 248,414, 126,939 and 21,993.
    struct Cell
    {
        const char *workload;
        uint64_t minMemo;
        uint64_t maxFull;
        uint64_t minReplayed;
    };
    for (const Cell &cell : {Cell{"gs", 135000, 41000, 3400},
                             Cell{"logscan", 210000, 146000, 18500}}) {
        SCOPED_TRACE(cell.workload);
        auto trace = makeWorkload(cell.workload);
        SimConfig cfg = makePaperConfig(PaperConfig::ConfAllocPriority);
        cfg.warmupInstructions = 20000;
        cfg.maxInstructions = 60000;
        Simulator sim(cfg, *trace);
        sim.run();
        EXPECT_GE(sim.core().memoRetries(), cell.minMemo);
        EXPECT_LE(sim.core().fullRetries(), cell.maxFull);
        EXPECT_GE(sim.replayedCycles(), cell.minReplayed);
    }
}

TEST(SimulatorTest, MshrStallSkipStandsDownAfterTlbEviction)
{
    // With an 8-entry DTLB, graph's PCStride prefetches evict the pages
    // of MSHR-stalled loads between their attempts. The next attempt
    // then misses the DTLB instead of repeating, so those spans must
    // step cycle by cycle.
    auto run = [](bool fast_forward) {
        auto trace = makeWorkload("graph");
        SimConfig cfg = makePaperConfig(PaperConfig::PcStride);
        cfg.memory.tlbEntries = 8;
        cfg.warmupInstructions = 5000;
        cfg.maxInstructions = 40000;
        cfg.fastForward = fast_forward;
        Simulator sim(cfg, *trace);
        sim.run();
        return sim.statsJson();
    };
    EXPECT_EQ(run(true), run(false));
}

TEST(SimulatorTest, SchedulingSensitiveCountsPinned)
{
    // Exact counts for machines no golden runs: ROBs of 16, 100 and
    // 200 entries (100 and 200 wrap the ROB slots at a capacity that
    // is not a multiple of 64) and the None and Learned
    // disambiguation modes. Any change to the issue scheduler that is
    // not cycle-exact moves at least one of these numbers.
    struct Pin
    {
        const char *workload;
        unsigned robEntries;
        DisambiguationMode disambiguation;
        uint64_t cycles;
        uint64_t l1dMisses;
        uint64_t mshrStallRetries;
        uint64_t storeSetViolations;
        uint64_t orderViolations;
    };
    constexpr auto perfect = DisambiguationMode::Perfect;
    constexpr auto none = DisambiguationMode::None;
    constexpr auto learned = DisambiguationMode::Learned;
    const Pin pins[] = {
        // workload  rob  disambiguation  cycles  misses  retries  sets  viol
        {"burg", 16, perfect, 91811, 6577, 0, 0, 0},
        {"burg", 100, perfect, 98509, 7036, 0, 0, 0},
        {"burg", 200, perfect, 94040, 7076, 6, 0, 0},
        {"burg", 128, none, 85267, 6588, 0, 0, 0},
        {"burg", 128, learned, 92816, 7072, 5, 0, 0},
        {"gs", 16, perfect, 223195, 2717, 0, 0, 0},
        {"gs", 100, perfect, 178363, 3638, 521325, 0, 0},
        {"gs", 200, perfect, 181722, 3863, 1275592, 0, 0},
        {"gs", 128, none, 237003, 2673, 0, 0, 0},
        {"gs", 128, learned, 175773, 3731, 817770, 0, 0},
        {"turb3d", 16, perfect, 52292, 711, 0, 0, 0},
        {"turb3d", 100, perfect, 40221, 885, 7607, 0, 0},
        {"turb3d", 200, perfect, 33360, 979, 47168, 0, 0},
        {"turb3d", 128, none, 55773, 387, 0, 0, 0},
        {"turb3d", 128, learned, 37508, 933, 12940, 115, 115},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(::testing::Message()
                     << pin.workload << " rob=" << pin.robEntries
                     << " disambiguation="
                     << int(pin.disambiguation));
        auto w = makeWorkload(pin.workload);
        SimConfig cfg = makePaperConfig(PaperConfig::ConfAllocPriority);
        cfg.warmupInstructions = 20000;
        cfg.maxInstructions = 40000;
        cfg.core.robEntries = pin.robEntries;
        cfg.core.disambiguation = pin.disambiguation;
        Simulator sim(cfg, *w);
        sim.run();
        auto stats = sim.statsRegistry().snapshot();
        EXPECT_EQ(stats.at("core.cycles").scalar, pin.cycles);
        EXPECT_EQ(stats.at("l1d.misses").scalar, pin.l1dMisses);
        EXPECT_EQ(stats.at("core.mshr_stall_retries").scalar,
                  pin.mshrStallRetries);
        EXPECT_EQ(stats.at("core.store_sets.violations").scalar,
                  pin.storeSetViolations);
        EXPECT_EQ(stats.at("core.order_violations").scalar,
                  pin.orderViolations);
    }
}

} // namespace
} // namespace psb
