/**
 * @file
 * Tests for the simulator driver: configuration presets, warm-up
 * handling, result consistency, and the miss hook.
 */

#include <gtest/gtest.h>

#include "sim/report.hh"
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
    SimResult r = sim.run();
    EXPECT_GE(r.core.instructions, 50000u);
    EXPECT_LE(r.core.instructions, 50100u);
    EXPECT_GT(r.core.cycles, 0u);
    EXPECT_NEAR(r.ipc,
                double(r.core.instructions) / double(r.core.cycles),
                1e-9);
}

TEST(SimulatorTest, ResultFieldsConsistent)
{
    auto w = makeWorkload("health");
    SimConfig cfg = makePaperConfig(PaperConfig::ConfAllocPriority);
    cfg.warmupInstructions = 30000;
    cfg.maxInstructions = 60000;
    Simulator sim(cfg, *w);
    SimResult r = sim.run();

    EXPECT_EQ(r.core.l1dAccesses, r.core.l1dHits + r.core.l1dMisses);
    EXPECT_LE(r.core.l1dInFlight, r.core.l1dMisses);
    EXPECT_GE(r.l1dMissRate, 0.0);
    EXPECT_LE(r.l1dMissRate, 1.0);
    EXPECT_GE(r.prefetchAccuracy, 0.0);
    EXPECT_LE(r.prefetchAccuracy, 1.0);
    EXPECT_LE(r.prefetch.prefetchesUsed, r.prefetch.prefetchesIssued);
    EXPECT_GE(r.l1L2BusUtil, 0.0);
    EXPECT_LE(r.l1L2BusUtil, 1.05); // bookings may spill past the end
    EXPECT_GT(r.pctLoads, 0.0);
    EXPECT_LT(r.pctLoads, 100.0);
    EXPECT_GT(r.avgLoadLatency, 0.9);
}

TEST(SimulatorTest, WarmupExcludedFromStats)
{
    auto w1 = makeWorkload("turb3d");
    SimConfig with_warmup = makePaperConfig(PaperConfig::Base);
    with_warmup.warmupInstructions = 100000;
    with_warmup.maxInstructions = 50000;
    Simulator s1(with_warmup, *w1);
    SimResult warm = s1.run();

    auto w2 = makeWorkload("turb3d");
    SimConfig no_warmup = makePaperConfig(PaperConfig::Base);
    no_warmup.warmupInstructions = 0;
    no_warmup.maxInstructions = 50000;
    Simulator s2(no_warmup, *w2);
    SimResult cold = s2.run();

    // Both runs measure the same number of instructions; the warmed
    // one must not look wildly different (phase drift allowed).
    EXPECT_NEAR(warm.l1dMissRate, cold.l1dMissRate, 0.15);
    EXPECT_NEAR(double(warm.core.instructions),
                double(cold.core.instructions), 16.0);
}

TEST(SimulatorTest, EveryPrefetcherKindConstructsAndRuns)
{
    for (PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::PcStride,
          PrefetcherKind::Psb, PrefetcherKind::Sequential,
          PrefetcherKind::NextLine, PrefetcherKind::MarkovDemand}) {
        auto w = makeWorkload("gs");
        SimConfig cfg;
        cfg.prefetcher = kind;
        cfg.warmupInstructions = 2000;
        cfg.maxInstructions = 10000;
        Simulator sim(cfg, *w);
        SimResult r = sim.run();
        EXPECT_GT(r.ipc, 0.0) << prefetcherKindName(kind);
    }
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

TEST(ReportTest, ContainsHeadlineNumbers)
{
    auto w = makeWorkload("turb3d");
    SimConfig cfg = makePaperConfig(PaperConfig::ConfAllocPriority);
    cfg.warmupInstructions = 5000;
    cfg.maxInstructions = 20000;
    Simulator sim(cfg, *w);
    SimResult r = sim.run();
    std::string report = formatReport("t", r);
    EXPECT_NE(report.find("IPC"), std::string::npos);
    EXPECT_NE(report.find("L1D miss rate"), std::string::npos);
    EXPECT_NE(report.find("bus util"), std::string::npos);
}

} // namespace
} // namespace psb
