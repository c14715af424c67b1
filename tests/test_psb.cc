/**
 * @file
 * Tests for the Predictor-Directed Stream Buffers themselves, driven
 * by a scripted mock predictor so every mechanism from paper §4 can be
 * checked in isolation: allocation filters, the single predictor port,
 * duplicate suppression, bus-gated prefetch issue, hit handling, the
 * priority counters and their aging.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "core/psb.hh"
#include "memory/hierarchy.hh"
#include "prefetch/stride_stream_buffers.hh"
#include "sim/simulator.hh"
#include "util/stats.hh"
#include "util/trace.hh"
#include "workloads/workload.hh"

namespace psb
{
namespace
{

constexpr unsigned lineBits = 5; // default 32-byte blocks

/** Fully scriptable predictor. */
class MockPredictor : public AddressPredictor
{
  public:
    void train(Addr pc, Addr addr) override
    {
        trained.push_back({pc, addr});
    }

    std::optional<BlockAddr>
    predictNext(StreamState &state) const override
    {
        ++predictCalls;
        if (chainStep == BlockDelta{})
            return std::nullopt;
        state.lastAddr += chainStep;
        return state.lastAddr;
    }

    StreamState
    allocateStream(Addr pc, Addr addr) const override
    {
        StreamState s;
        s.loadPc = pc;
        s.lastAddr = addr.toBlock(lineBits);
        s.stride = chainStep;
        s.confidence = conf.count(pc) ? conf.at(pc) : 0;
        return s;
    }

    uint32_t
    confidence(Addr pc) const override
    {
        return conf.count(pc) ? conf.at(pc) : 0;
    }

    bool
    twoMissFilterPass(Addr pc, Addr) const override
    {
        return twoMissPass.count(pc) ? twoMissPass.at(pc) : false;
    }

    BlockDelta chainStep{1}; ///< zero => predictor has no prediction
    std::map<Addr, uint32_t> conf;
    std::map<Addr, bool> twoMissPass;
    mutable uint64_t predictCalls = 0;
    std::vector<std::pair<Addr, Addr>> trained;
};

MemoryConfig
quietMemory()
{
    MemoryConfig cfg;
    cfg.tlbMissPenalty = CycleDelta{};
    return cfg;
}

class PsbTest : public ::testing::Test
{
  protected:
    PsbTest() : hier(quietMemory()) {}

    PredictorDirectedStreamBuffers
    make(AllocPolicy alloc, SchedPolicy sched)
    {
        PsbConfig cfg;
        cfg.alloc = alloc;
        cfg.sched = sched;
        return PredictorDirectedStreamBuffers(cfg, predictor, hier);
    }

    /** Run tick() for [from, to) cycles. */
    static void
    run(PredictorDirectedStreamBuffers &psb, Cycle from, Cycle to)
    {
        for (Cycle c = from; c < to; ++c)
            psb.tick(c);
    }

    MemoryHierarchy hier;
    MockPredictor predictor;
};

TEST_F(PsbTest, TwoMissFilterGatesAllocation)
{
    auto psb = make(AllocPolicy::TwoMiss, SchedPolicy::RoundRobin);
    predictor.twoMissPass[Addr{0x400010}] = false;
    psb.demandMiss(Addr{0x400010}, Addr{0x1000}, Cycle{});
    EXPECT_EQ(psb.stats().allocations, 0u);
    EXPECT_EQ(psb.stats().allocationsFiltered, 1u);

    predictor.twoMissPass[Addr{0x400010}] = true;
    psb.demandMiss(Addr{0x400010}, Addr{0x1000}, Cycle{1});
    EXPECT_EQ(psb.stats().allocations, 1u);
    EXPECT_TRUE(psb.bufferFile().buffer(0).allocated());
}

TEST_F(PsbTest, ConfidenceThresholdGatesAllocation)
{
    auto psb = make(AllocPolicy::Confidence, SchedPolicy::Priority);
    predictor.conf[Addr{0x400010}] = 0; // below the threshold of 1
    psb.demandMiss(Addr{0x400010}, Addr{0x1000}, Cycle{});
    EXPECT_EQ(psb.stats().allocations, 0u);

    predictor.conf[Addr{0x400010}] = 1;
    psb.demandMiss(Addr{0x400010}, Addr{0x1000}, Cycle{1});
    EXPECT_EQ(psb.stats().allocations, 1u);
    // The accuracy confidence is copied into the priority counter.
    EXPECT_EQ(psb.bufferFile().buffer(0).priority.value(), 1u);
}

TEST_F(PsbTest, ConfidenceAllocationMustBeatSomePriorityCounter)
{
    auto psb = make(AllocPolicy::Confidence, SchedPolicy::Priority);
    predictor.conf[Addr{0x400010}] = 7;
    // Fill all 8 buffers with priority-7 streams.
    for (unsigned i = 0; i < 8; ++i)
        psb.demandMiss(Addr{0x400010}, Addr(0x1000 + 0x100 * i),
                       Cycle(i));
    EXPECT_EQ(psb.stats().allocations, 8u);

    // Bump every buffer's priority above the candidate's confidence.
    for (unsigned b = 0; b < 8; ++b) {
        const_cast<StreamBuffer &>(psb.bufferFile().buffer(b))
            .priority.set(9);
    }
    predictor.conf[Addr{0x400020}] = 7;
    psb.demandMiss(Addr{0x400020}, Addr{0x9000}, Cycle{10});
    EXPECT_EQ(psb.stats().allocations, 8u); // rejected: 7 < 9

    // Lower one buffer: now the candidate wins that buffer.
    const_cast<StreamBuffer &>(psb.bufferFile().buffer(5))
        .priority.set(3);
    psb.demandMiss(Addr{0x400020}, Addr{0x9000}, Cycle{11});
    EXPECT_EQ(psb.stats().allocations, 9u);
    EXPECT_EQ(psb.bufferFile().buffer(5).state.loadPc, Addr{0x400020});
}

TEST_F(PsbTest, AlwaysPolicyAllocatesEveryMiss)
{
    auto psb = make(AllocPolicy::Always, SchedPolicy::RoundRobin);
    for (unsigned i = 0; i < 12; ++i)
        psb.demandMiss(Addr{0x400010}, Addr(0x1000 + 0x100 * i),
                       Cycle(i));
    EXPECT_EQ(psb.stats().allocations, 12u);
}

TEST_F(PsbTest, OnePredictionPerCycleSharedAcrossBuffers)
{
    auto psb = make(AllocPolicy::Always, SchedPolicy::RoundRobin);
    psb.demandMiss(Addr{0x400010}, Addr{0x1000}, Cycle{});
    psb.demandMiss(Addr{0x400020}, Addr{0x8000}, Cycle{});
    uint64_t calls_before = predictor.predictCalls;
    psb.tick(Cycle{1});
    EXPECT_EQ(predictor.predictCalls, calls_before + 1);
}

TEST_F(PsbTest, PredictionsFillEntriesThenStop)
{
    auto psb = make(AllocPolicy::Always, SchedPolicy::RoundRobin);
    psb.demandMiss(Addr{0x400010}, Addr{0x1000}, Cycle{});
    run(psb, Cycle{1}, Cycle{40});
    // 4 entries filled, then the buffer stops predicting.
    EXPECT_EQ(psb.stats().predictions, 4u);
    const StreamBuffer &buf = psb.bufferFile().buffer(0);
    for (const auto &e : buf.entries())
        EXPECT_TRUE(e.valid);
}

TEST_F(PsbTest, DuplicateSuppressionAcrossBuffers)
{
    auto psb = make(AllocPolicy::Always, SchedPolicy::RoundRobin);
    // Two streams whose chains collide: same start, same step.
    psb.demandMiss(Addr{0x400010}, Addr{0x1000}, Cycle{});
    psb.demandMiss(Addr{0x400020}, Addr{0x1000}, Cycle{});
    run(psb, Cycle{1}, Cycle{60});
    EXPECT_GT(psb.stats().duplicateSuppressed, 0u);
    // No block appears twice across all buffers.
    std::map<BlockAddr, int> seen;
    for (unsigned b = 0; b < psb.bufferFile().numBuffers(); ++b) {
        for (const auto &e : psb.bufferFile().buffer(b).entries()) {
            if (e.valid) {
                EXPECT_EQ(++seen[e.block], 1) << "dup block";
            }
        }
    }
}

TEST_F(PsbTest, PrefetchRequiresFreeBus)
{
    auto psb = make(AllocPolicy::Always, SchedPolicy::RoundRobin);
    psb.demandMiss(Addr{0x400010}, Addr{0x1000}, Cycle{});
    psb.tick(Cycle{1}); // one prediction made
    // Occupy the bus with a demand miss.
    hier.missToL2(Addr{0x90000}, Cycle{2}, false);
    ASSERT_FALSE(hier.l1ToL2BusFree(Cycle{2}));
    uint64_t issued_before = psb.attribution().issued();
    psb.tick(Cycle{2});
    EXPECT_EQ(psb.attribution().issued(), issued_before);
    // Once the bus frees, the prefetch goes out.
    Cycle c{3};
    while (!hier.l1ToL2BusFree(c))
        ++c;
    psb.tick(c);
    EXPECT_EQ(psb.attribution().issued(), issued_before + 1);
}

TEST_F(PsbTest, LookupHitFreesEntryAndRaisesPriority)
{
    auto psb = make(AllocPolicy::Confidence, SchedPolicy::Priority);
    predictor.conf[Addr{0x400010}] = 2;
    psb.demandMiss(Addr{0x400010}, Addr{0x1000}, Cycle{});
    run(psb, Cycle{1}, Cycle{50}); // predict + prefetch

    const StreamBuffer &buf = psb.bufferFile().buffer(0);
    uint32_t pri_before = buf.priority.value();
    ASSERT_EQ(pri_before, 2u);

    // The first predicted block is 0x1020 (start + 32).
    PrefetchLookup hit = psb.lookup(Addr{0x1024}, Cycle{1000});
    EXPECT_TRUE(hit.hit);
    EXPECT_FALSE(hit.dataPending); // long past the fill
    EXPECT_EQ(buf.priority.value(), pri_before + 2);
    EXPECT_EQ(psb.stats().hits, 1u);
    // Entry freed: a repeat lookup misses.
    EXPECT_FALSE(psb.lookup(Addr{0x1024}, Cycle{1001}).hit);
}

TEST_F(PsbTest, LookupHitWithDataPending)
{
    auto psb = make(AllocPolicy::Always, SchedPolicy::RoundRobin);
    psb.demandMiss(Addr{0x400010}, Addr{0x1000}, Cycle{});
    run(psb, Cycle{1}, Cycle{4}); // prediction + prefetch just issued
    PrefetchLookup hit = psb.lookup(Addr{0x1020}, Cycle{4});
    ASSERT_TRUE(hit.hit);
    EXPECT_TRUE(hit.dataPending);
    EXPECT_GT(hit.ready, Cycle{4});
    EXPECT_EQ(psb.stats().hitsPending, 1u);
}

TEST_F(PsbTest, LateTagHitReconciledOnDemandFill)
{
    auto psb = make(AllocPolicy::Always, SchedPolicy::RoundRobin);
    psb.demandMiss(Addr{0x400010}, Addr{0x1000}, Cycle{});
    hier.missToL2(Addr{0x90000}, Cycle{}, false); // keep the bus busy
    psb.tick(Cycle{1}); // prediction made, prefetch blocked
    ASSERT_EQ(psb.attribution().issued(), 0u);

    // A lookup of the predicted-but-unissued block is not a hit, and
    // it must NOT consume the entry (the access may be an MSHR-full
    // retry that will come back).
    PrefetchLookup lkp = psb.lookup(Addr{0x1020}, Cycle{2});
    EXPECT_FALSE(lkp.hit);
    EXPECT_EQ(psb.stats().lateTagHits, 0u);
    EXPECT_EQ(psb.bufferFile().buffer(0).findEntry(
                  Addr{0x1020}.toBlock(lineBits)),
              0);

    // Once the demand fill actually proceeds, demandMiss() reconciles:
    // the entry is released, counted as a late tag hit, and no
    // allocation request is charged (the stream is tracking fine).
    uint64_t requests_before = psb.stats().allocationRequests;
    psb.demandMiss(Addr{0x400010}, Addr{0x1020}, Cycle{3});
    EXPECT_EQ(psb.stats().lateTagHits, 1u);
    EXPECT_EQ(psb.stats().allocationRequests, requests_before);
    EXPECT_EQ(psb.bufferFile().buffer(0).findEntry(
                  Addr{0x1020}.toBlock(lineBits)),
              -1);
}

TEST_F(PsbTest, AgingDecrementsPriorityCounters)
{
    auto psb = make(AllocPolicy::Confidence, SchedPolicy::Priority);
    predictor.conf[Addr{0x400010}] = 7;
    psb.demandMiss(Addr{0x400010}, Addr{0x1000}, Cycle{});
    ASSERT_EQ(psb.bufferFile().buffer(0).priority.value(), 7u);

    // The aging period is 10 allocation requests; send unallocatable
    // requests (confidence 0 PC) to age the counters.
    for (unsigned i = 0; i < 10; ++i)
        psb.demandMiss(Addr{0x400099}, Addr{0x5000}, Cycle(i));
    EXPECT_EQ(psb.bufferFile().buffer(0).priority.value(), 6u);
    for (unsigned i = 0; i < 20; ++i)
        psb.demandMiss(Addr{0x400099}, Addr{0x5000}, Cycle(i));
    EXPECT_EQ(psb.bufferFile().buffer(0).priority.value(), 4u);
}

TEST_F(PsbTest, TrainingForwardedOnlyForRealMisses)
{
    auto psb = make(AllocPolicy::Always, SchedPolicy::RoundRobin);
    psb.trainLoad(Addr{0x400010}, Addr{0x1000}, /*miss=*/true,
                  /*fwd=*/false);
    psb.trainLoad(Addr{0x400010}, Addr{0x2000}, /*miss=*/false,
                  /*fwd=*/false);
    psb.trainLoad(Addr{0x400010}, Addr{0x3000}, /*miss=*/true,
                  /*fwd=*/true);
    ASSERT_EQ(predictor.trained.size(), 1u);
    EXPECT_EQ(predictor.trained[0].second, Addr{0x1000});
}

TEST_F(PsbTest, NoPredictionFromEmptyPredictor)
{
    predictor.chainStep = BlockDelta{}; // predictor has nothing to say
    auto psb = make(AllocPolicy::Always, SchedPolicy::RoundRobin);
    psb.demandMiss(Addr{0x400010}, Addr{0x1000}, Cycle{});
    run(psb, Cycle{1}, Cycle{20});
    EXPECT_EQ(psb.stats().predictions, 0u);
    EXPECT_EQ(psb.attribution().issued(), 0u);
}

TEST_F(PsbTest, ReallocationStealsLruHitBuffer)
{
    auto psb = make(AllocPolicy::TwoMiss, SchedPolicy::RoundRobin);
    for (unsigned i = 0; i < 9; ++i) {
        Addr pc(0x400010 + 0x10 * i);
        predictor.twoMissPass[pc] = true;
        psb.demandMiss(pc, Addr(0x1000 + 0x100 * i), Cycle(i));
    }
    // 9 allocations into 8 buffers: buffer 0 (never hit, oldest) was
    // stolen by the ninth stream.
    EXPECT_EQ(psb.stats().allocations, 9u);
    EXPECT_EQ(psb.bufferFile().buffer(0).state.loadPc, Addr{0x400090});
}

TEST_F(PsbTest, StatsResetKeepsStreams)
{
    auto psb = make(AllocPolicy::Always, SchedPolicy::RoundRobin);
    psb.demandMiss(Addr{0x400010}, Addr{0x1000}, Cycle{});
    run(psb, Cycle{1}, Cycle{20});
    psb.resetStats();
    EXPECT_EQ(psb.stats().predictions, 0u);
    EXPECT_TRUE(psb.bufferFile().buffer(0).allocated());
}

TEST_F(PsbTest, AccuracyIsHitsOverLedgerIssued)
{
    auto psb = make(AllocPolicy::Always, SchedPolicy::RoundRobin);
    EXPECT_DOUBLE_EQ(psb.accuracy(), 0.0); // nothing issued yet
    psb.demandMiss(Addr{0x400010}, Addr{0x1000}, Cycle{});
    run(psb, Cycle{1}, Cycle{50});
    const uint64_t issued = psb.attribution().issued();
    ASSERT_GT(issued, 1u);
    ASSERT_TRUE(psb.lookup(Addr{0x1020}, Cycle{1000}).hit);
    EXPECT_DOUBLE_EQ(psb.accuracy(), 1.0 / double(issued));
}

TEST_F(PsbTest, PolicyNames)
{
    EXPECT_STREQ(allocPolicyName(AllocPolicy::TwoMiss), "2Miss");
    EXPECT_STREQ(allocPolicyName(AllocPolicy::Confidence), "ConfAlloc");
    EXPECT_STREQ(allocPolicyName(AllocPolicy::Always), "Always");
}

// ------------------------------------------------------------------ //
// Fast-forward: replaying a predictor port held by stalled streams
// ------------------------------------------------------------------ //

/**
 * A PSB directed by the Farkas stride predictor under Always
 * allocation: a load the stride table has never seen allocates a
 * stride-0 stream, which re-predicts its own block forever once its
 * first prediction has landed — a stalled stream.
 */
struct FarkasRig
{
    explicit FarkasRig(SchedPolicy sched)
        : hier(quietMemory()),
          psb(PsbConfig{StreamBufferConfig{}, AllocPolicy::Always, sched},
              pred, hier)
    {
    }

    void
    tickUntil(Cycle end)
    {
        for (; now < end; ++now)
            psb.tick(now);
    }

    StreamBuffer &
    buffer(unsigned b)
    {
        return const_cast<StreamBuffer &>(psb.bufferFile().buffer(b));
    }

    std::string
    statsJson() const
    {
        StatsRegistry reg;
        psb.registerStats(reg, "psb");
        return reg.toJson();
    }

    MemoryHierarchy hier;
    FarkasStridePredictor pred;
    PredictorDirectedStreamBuffers psb;
    Cycle now{1};
};

/** Three stalled streams (buffers 0-2), their prefetches issued. */
void
threeStalledStreams(FarkasRig &rig)
{
    for (unsigned i = 0; i < 3; ++i)
        rig.psb.demandMiss(Addr(0x400000 + 0x10 * i),
                           Addr(0x10000 + 0x1000 * i), Cycle{});
    rig.tickUntil(Cycle{200});
    ASSERT_EQ(rig.psb.attribution().issued(), 3u);
}

void
expectSameState(const FarkasRig &a, const FarkasRig &b)
{
    EXPECT_EQ(a.statsJson(), b.statsJson());
    const StreamBufferFile &fa = a.psb.bufferFile();
    const StreamBufferFile &fb = b.psb.bufferFile();
    EXPECT_EQ(fa.lastStamp(), fb.lastStamp());
    for (unsigned i = 0; i < fa.numBuffers(); ++i) {
        SCOPED_TRACE("buffer " + std::to_string(i));
        EXPECT_EQ(fa.buffer(i).lastPredictStamp,
                  fb.buffer(i).lastPredictStamp);
        EXPECT_EQ(fa.buffer(i).lastPrefetchStamp,
                  fb.buffer(i).lastPrefetchStamp);
        EXPECT_EQ(fa.buffer(i).state.lastAddr, fb.buffer(i).state.lastAddr);
    }
    EXPECT_EQ(a.psb.predictScheduler().rrPointer(),
              b.psb.predictScheduler().rrPointer());
}

/**
 * Bring two rigs to the same state with @p setup, then fast-forward
 * @p n cycles on one and tick them one by one on the other.
 */
template <typename Setup>
void
expectReplayEqualsTicks(SchedPolicy sched, Setup setup, uint64_t n)
{
    SCOPED_TRACE("n = " + std::to_string(n));
    FarkasRig ticked(sched);
    FarkasRig replayed(sched);
    setup(ticked);
    setup(replayed);
    const Cycle from = replayed.now;
    const uint64_t duplicates = ticked.psb.stats().duplicateSuppressed;

    ASSERT_TRUE(replayed.psb.fastForwardTicks(from, n));
    ticked.tickUntil(from + CycleDelta(n));
    // The span was not idle: every cycle re-predicted a stalled block.
    EXPECT_EQ(ticked.psb.stats().duplicateSuppressed, duplicates + n);
    expectSameState(ticked, replayed);
}

TEST(PsbReplayTest, RoundRobinThreeStalledStreams)
{
    for (uint64_t n : {1, 2, 3, 7, 1000})
        expectReplayEqualsTicks(SchedPolicy::RoundRobin,
                                threeStalledStreams, n);
}

TEST(PsbReplayTest, PriorityEqualStampsBrokenByIndex)
{
    auto equal_stamps = [](FarkasRig &rig) {
        threeStalledStreams(rig);
        for (unsigned b = 0; b < 3; ++b)
            rig.buffer(b).lastPredictStamp = 5;
    };
    for (uint64_t n : {1, 2, 3, 8, 1000})
        expectReplayEqualsTicks(SchedPolicy::Priority, equal_stamps, n);
}

TEST(PsbReplayTest, PriorityStalledTopStarvesLiveStream)
{
    auto starving = [](FarkasRig &rig) {
        // Load 0x500000 walks two blocks per miss: its stream (buffer
        // 0) would predict for real if it ever won the port.
        for (unsigned i = 0; i < 3; ++i)
            rig.pred.train(Addr{0x500000}, Addr(0x80000 + 64 * i));
        rig.psb.demandMiss(Addr{0x500000}, Addr{0x80080}, Cycle{});
        rig.psb.demandMiss(Addr{0x400000}, Addr{0x10000}, Cycle{});
        ASSERT_EQ(rig.psb.bufferFile().buffer(0).state.stride,
                  BlockDelta{2});
        rig.buffer(0).priority.set(1);
        rig.buffer(1).priority.set(6);
        rig.tickUntil(Cycle{200});
    };
    // Every ticked cycle counts a duplicate, so buffer 0 never won.
    for (uint64_t n : {1, 5, 1000})
        expectReplayEqualsTicks(SchedPolicy::Priority, starving, n);
}

TEST(PsbReplayTest, StalledStreamOffTheFileRefuses)
{
    FarkasRig rig(SchedPolicy::RoundRobin);
    rig.psb.demandMiss(Addr{0x400000}, Addr{0x10000}, Cycle{});
    rig.tickUntil(Cycle{200});
    // A hit consumes the stream's only block. The stream is still at
    // a fixed point, but its next prediction lands the block again.
    ASSERT_TRUE(rig.psb.lookup(Addr{0x10000}, rig.now).hit);
    const BlockAddr block = Addr{0x10000}.toBlock(lineBits);
    ASSERT_FALSE(rig.psb.bufferFile().findBlock(block).has_value());

    const std::string before = rig.statsJson();
    const uint64_t stamp = rig.psb.bufferFile().lastStamp();
    EXPECT_FALSE(rig.psb.fastForwardTicks(rig.now, 50));
    EXPECT_EQ(rig.statsJson(), before);
    EXPECT_EQ(rig.psb.bufferFile().lastStamp(), stamp);

    rig.psb.tick(rig.now);
    EXPECT_TRUE(rig.psb.bufferFile().findBlock(block).has_value());
}

TEST(PsbReplayTest, PsbSchedChromeTraceSameWithFastForwardOnAndOff)
{
    // Replays emit no per-cycle events, so they stand down while any
    // flag is on; the remaining skips are silent spans. The trace of a
    // cell whose ports stall is therefore the same either way.
    auto traceWith = [](bool fast_forward) {
        auto trace = makeWorkload("deltablue");
        SimConfig cfg = makePaperConfig(PaperConfig::ConfAllocPriority);
        cfg.warmupInstructions = 5000;
        cfg.maxInstructions = 15000;
        cfg.fastForward = fast_forward;
        std::ostringstream out;
        uint32_t mask = (1u << unsigned(TraceFlag::Psb)) |
                        (1u << unsigned(TraceFlag::Sched));
        TraceManager::get().configure(mask, TraceManager::Format::Chrome,
                                      out);
        Simulator sim(cfg, *trace);
        sim.run();
        TraceManager::get().reset();
        return out.str();
    };
    const std::string on = traceWith(true);
    EXPECT_GT(on.size(), 1000u);
    EXPECT_EQ(on, traceWith(false));
}

} // namespace
} // namespace psb
