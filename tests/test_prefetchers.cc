/**
 * @file
 * Tests for the comparison prefetchers: Farkas PC-stride stream
 * buffers, Jouppi sequential buffers, next-line prefetching, and the
 * one-shot demand Markov prefetcher.
 */

#include <gtest/gtest.h>

#include "memory/hierarchy.hh"
#include "prefetch/markov_prefetcher.hh"
#include "prefetch/next_line_prefetcher.hh"
#include "prefetch/sequential_stream_buffers.hh"
#include "prefetch/stride_stream_buffers.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace psb
{
namespace
{

MemoryConfig
quietMemory()
{
    MemoryConfig cfg;
    cfg.tlbMissPenalty = CycleDelta{};
    return cfg;
}

constexpr Addr pc{0x400010};
constexpr unsigned lineBits = 5; // default 32-byte blocks

void
tickRange(Prefetcher &pf, Cycle from, Cycle to)
{
    for (Cycle c = from; c < to; ++c)
        pf.tick(c);
}

TEST(FarkasPredictorTest, PredictsFixedStrideFromAllocation)
{
    FarkasStridePredictor pred;
    for (int i = 0; i < 5; ++i)
        pred.train(pc, Addr(0x1000 + 128 * i));
    StreamState s = pred.allocateStream(pc, Addr{0x1000 + 128 * 4});
    EXPECT_EQ(s.stride, BlockDelta{128 >> lineBits});
    // The stride is fixed at allocation and never re-read: retraining
    // the table does not bend an existing stream.
    pred.train(pc, Addr{0x90000});
    pred.train(pc, Addr{0x90040});
    pred.train(pc, Addr{0x90080});
    auto p = pred.predictNext(s);
    EXPECT_EQ(*p, Addr{0x1000 + 128 * 5}.toBlock(lineBits));
}

TEST(FarkasPredictorTest, TwoMissFilterIsStrideRepetition)
{
    FarkasStridePredictor pred;
    pred.train(pc, Addr{0x1000});
    pred.train(pc, Addr{0x1080});
    EXPECT_FALSE(pred.twoMissFilterPass(pc, Addr{0x1080}));
    pred.train(pc, Addr{0x1100});
    EXPECT_TRUE(pred.twoMissFilterPass(pc, Addr{0x1100}));
}

TEST(StrideStreamBuffersTest, FollowsStrideStreamEndToEnd)
{
    MemoryHierarchy hier(quietMemory());
    StrideStreamBuffers sb({}, {}, hier);

    // Train a 128-byte stride, then allocate via two filtered misses.
    Addr a{0x10000};
    for (int i = 0; i < 4; ++i) {
        sb.trainLoad(pc, a + 128 * i, true, false);
        sb.demandMiss(pc, a + 128 * i, Cycle(i));
    }
    tickRange(sb, Cycle{10}, Cycle{400});
    // The next blocks in the stride stream are now prefetched.
    EXPECT_TRUE(sb.lookup(a + 128 * 4, Cycle{1000}).hit);
    EXPECT_TRUE(sb.lookup(a + 128 * 5, Cycle{1001}).hit);
    EXPECT_GT(sb.stats().hits, 0u);
}

TEST(StrideStreamBuffersTest, NoAllocationWithoutRepeatedStride)
{
    MemoryHierarchy hier(quietMemory());
    StrideStreamBuffers sb({}, {}, hier);
    // Random misses never repeat a stride.
    sb.trainLoad(pc, Addr{0x1000}, true, false);
    sb.demandMiss(pc, Addr{0x1000}, Cycle{});
    sb.trainLoad(pc, Addr{0x9000}, true, false);
    sb.demandMiss(pc, Addr{0x9000}, Cycle{1});
    sb.trainLoad(pc, Addr{0x4000}, true, false);
    sb.demandMiss(pc, Addr{0x4000}, Cycle{2});
    EXPECT_EQ(sb.stats().allocations, 0u);
}

TEST(SequentialStreamBuffersTest, PrefetchesConsecutiveBlocks)
{
    MemoryHierarchy hier(quietMemory());
    SequentialStreamBuffers sb({}, hier);
    sb.demandMiss(pc, Addr{0x20000}, Cycle{});
    tickRange(sb, Cycle{1}, Cycle{300});
    // Jouppi buffers fetch the next sequential blocks.
    EXPECT_TRUE(sb.lookup(Addr{0x20020}, Cycle{1000}).hit);
    EXPECT_TRUE(sb.lookup(Addr{0x20040}, Cycle{1001}).hit);
}

TEST(SequentialStreamBuffersTest, EveryMissAllocates)
{
    MemoryHierarchy hier(quietMemory());
    SequentialStreamBuffers sb({}, hier);
    for (int i = 0; i < 5; ++i)
        sb.demandMiss(pc, Addr(0x20000 + 0x10000 * i), Cycle(i));
    EXPECT_EQ(sb.stats().allocations, 5u);
}

TEST(NextLineTest, MissTriggersNextBlockPrefetch)
{
    MemoryHierarchy hier(quietMemory());
    NextLinePrefetcher nlp(hier);
    nlp.demandMiss(pc, Addr{0x30000}, Cycle{});
    tickRange(nlp, Cycle{1}, Cycle{300});
    EXPECT_TRUE(nlp.lookup(Addr{0x30020}, Cycle{1000}).hit);
    EXPECT_FALSE(nlp.lookup(Addr{0x30040}, Cycle{1001}).hit); // degree 1
}

TEST(NextLineTest, DuplicateRequestsCoalesce)
{
    MemoryHierarchy hier(quietMemory());
    NextLinePrefetcher nlp(hier);
    nlp.demandMiss(pc, Addr{0x30000}, Cycle{});
    nlp.demandMiss(pc, Addr{0x30000}, Cycle{1});
    tickRange(nlp, Cycle{2}, Cycle{300});
    EXPECT_EQ(nlp.attribution().issued(), 1u);
}

TEST(MarkovPrefetcherTest, LearnsMissTransitionAndPrefetches)
{
    MemoryHierarchy hier(quietMemory());
    MarkovPrefetcher mp(hier);
    // Train the A -> B transition via the global miss stream.
    mp.trainLoad(pc, Addr{0x40000}, true, false);
    mp.trainLoad(pc, Addr{0x55000}, true, false);
    // Next miss of A triggers a prefetch of B.
    mp.trainLoad(pc, Addr{0x40000}, true, false);
    mp.demandMiss(pc, Addr{0x40000}, Cycle{10});
    tickRange(mp, Cycle{11}, Cycle{300});
    EXPECT_TRUE(mp.lookup(Addr{0x55000}, Cycle{1000}).hit);
}

TEST(MarkovPrefetcherTest, OneShotNoReindexing)
{
    // Joseph & Grunwald's prefetcher does NOT feed predictions back:
    // after prefetching B (successor of A), it does not go on to
    // prefetch B's successor.
    MemoryHierarchy hier(quietMemory());
    MarkovPrefetcher mp(hier);
    mp.trainLoad(pc, Addr{0x40000}, true, false);
    mp.trainLoad(pc, Addr{0x55000}, true, false);
    mp.trainLoad(pc, Addr{0x66000}, true, false);
    mp.demandMiss(pc, Addr{0x40000}, Cycle{10});
    tickRange(mp, Cycle{11}, Cycle{400});
    EXPECT_FALSE(mp.lookup(Addr{0x66000}, Cycle{1000}).hit);
    EXPECT_EQ(mp.attribution().issued(), 1u);
}

TEST(MarkovPrefetcherTest, HitsOnlyOnMissStreamTraining)
{
    MemoryHierarchy hier(quietMemory());
    MarkovPrefetcher mp(hier);
    mp.trainLoad(pc, Addr{0x40000}, /*miss=*/false, false); // ignored
    mp.trainLoad(pc, Addr{0x55000}, true, false);
    mp.demandMiss(pc, Addr{0x40000}, Cycle{10});
    tickRange(mp, Cycle{11}, Cycle{300});
    EXPECT_FALSE(mp.lookup(Addr{0x55000}, Cycle{1000}).hit);
}

/**
 * Train A -> B and 16 transitions C_i -> D_i, whose predictions fill
 * the 16-entry buffer and so evict the B prefetch.
 */
void
trainEvictors(MarkovPrefetcher &mp)
{
    mp.trainLoad(pc, Addr{0x40000}, true, false);
    mp.trainLoad(pc, Addr{0x55000}, true, false); // A -> B
    for (int i = 0; i < 16; ++i) {
        mp.trainLoad(pc, Addr(0x70020 + 0x40 * i), true, false);
        mp.trainLoad(pc, Addr(0x81000 + 0x40 * i), true, false);
    }
}

/**
 * One round: trigger A, let every queued prediction issue, then evict
 * the unused B prefetch with the 16 C_i -> D_i predictions (the last
 * one replaces the FIFO-oldest entry, B).
 */
void
discardRound(MarkovPrefetcher &mp, int round)
{
    Cycle start(2000 * round);
    mp.demandMiss(pc, Addr{0x40000}, start);
    tickRange(mp, start + CycleDelta(1), start + CycleDelta(1990));
    for (int i = 0; i < 16; ++i)
        mp.demandMiss(pc, Addr(0x70020 + 0x40 * i),
                      start + CycleDelta(1990));
}

TEST(MarkovPrefetcherTest, AdaptivityDisablesUselessEntries)
{
    // Joseph & Grunwald's accuracy-based adaptivity: an entry whose
    // prefetches keep being discarded unused is disabled.
    MemoryHierarchy hier(quietMemory());
    MarkovPrefetcher mp(hier);
    trainEvictors(mp);
    uint64_t preds_before = 0;
    for (int round = 0; round < 6; ++round) {
        discardRound(mp, round);
        preds_before = mp.stats().predictions;
    }
    EXPECT_GT(mp.disabledSuppressed(), 0u);
    // Once disabled, triggering A adds no new prediction.
    mp.demandMiss(pc, Addr{0x40000}, Cycle{20000});
    EXPECT_EQ(mp.stats().predictions, preds_before);
}

TEST(MarkovPrefetcherTest, DisabledEntryReenablesWhenCorrectAgain)
{
    MemoryHierarchy hier(quietMemory());
    MarkovPrefetcher mp(hier);
    trainEvictors(mp);
    // Disable A's entry by discarding its prefetches.
    for (int round = 0; round < 6; ++round)
        discardRound(mp, round);
    ASSERT_GT(mp.disabledSuppressed(), 0u);
    // Now the A -> B transition recurs in the miss stream: the
    // suppressed prediction is scored correct and re-enables.
    for (int i = 0; i < 4; ++i) {
        mp.trainLoad(pc, Addr{0x40000}, true, false);
        mp.trainLoad(pc, Addr{0x55000}, true, false);
    }
    uint64_t preds = mp.stats().predictions;
    mp.demandMiss(pc, Addr{0x40000}, Cycle{20000});
    EXPECT_EQ(mp.stats().predictions, preds + 1);
}

TEST(FarkasPredictorTest, FixedPointOnlyForStrideZero)
{
    FarkasStridePredictor pred;
    // An untrained load allocates a stride-0 stream. Its first
    // prediction stamps the source, so only then is it stalled.
    StreamState zero = pred.allocateStream(pc, Addr{0x1000});
    ASSERT_EQ(zero.stride, BlockDelta{});
    EXPECT_FALSE(pred.fixedPoint(zero).stalled);
    StreamState before = zero;
    auto first = pred.predictNext(zero);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(*first, before.lastAddr);

    PredictFixedPoint fp = pred.fixedPoint(zero);
    ASSERT_TRUE(fp.stalled);
    StreamState copy = zero;
    EXPECT_EQ(pred.predictNext(copy), fp.next);
    EXPECT_EQ(copy.lastAddr, zero.lastAddr);
    EXPECT_EQ(copy.lastSource, zero.lastSource);

    StreamState moving = zero;
    moving.stride = BlockDelta{1};
    EXPECT_FALSE(pred.fixedPoint(moving).stalled);
}

TEST(PrefetcherStatsTest, RefusedFastForwardChangesNothing)
{
    // The simulator retries a refused span at a shorter length, so a
    // refusal must leave every backend exactly as it was. Queue work
    // in each backend (a strided miss stream, twice so the Markov
    // tables learn it), then ask for a span with the bus free.
    for (PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::PcStride,
          PrefetcherKind::Psb, PrefetcherKind::Sequential,
          PrefetcherKind::NextLine, PrefetcherKind::MarkovDemand,
          PrefetcherKind::MinDelta}) {
        SCOPED_TRACE(prefetcherKindName(kind));
        auto trace = makeWorkload("health");
        SimConfig cfg = makePaperConfig(PaperConfig::ConfAllocPriority);
        cfg.prefetcher = kind;
        Simulator sim(cfg, *trace);
        Prefetcher &pf = sim.prefetcher();
        for (unsigned pass = 0; pass < 2; ++pass) {
            for (unsigned i = 0; i < 8; ++i) {
                Addr addr(0x20000 + 64 * i);
                Cycle now(20 * pass + i);
                pf.trainLoad(pc, addr, true, false);
                pf.demandMiss(pc, addr, now);
            }
        }

        const std::string before = sim.statsJson();
        const Cycle from{100000};
        ASSERT_TRUE(sim.hierarchy().l1L2Bus().freeAt(from));
        bool accepted = pf.fastForwardTicks(from, 1000);
        EXPECT_EQ(accepted, kind == PrefetcherKind::None)
            << "queued work must refuse a bus-free span";
        if (!accepted) {
            EXPECT_EQ(sim.statsJson(), before);
        }
    }
}

TEST(PrefetcherStatsTest, ResetAcrossImplementations)
{
    // Every backend, built as the simulator builds it, issues on a
    // strided miss stream seen twice; the warm-up reset then zeroes
    // both its own counters and its attribution ledger.
    for (PrefetcherKind kind :
         {PrefetcherKind::PcStride, PrefetcherKind::Psb,
          PrefetcherKind::Sequential, PrefetcherKind::NextLine,
          PrefetcherKind::MarkovDemand, PrefetcherKind::MinDelta}) {
        SCOPED_TRACE(prefetcherKindName(kind));
        auto trace = makeWorkload("health");
        SimConfig cfg = makePaperConfig(PaperConfig::ConfAllocPriority);
        cfg.prefetcher = kind;
        Simulator sim(cfg, *trace);
        Prefetcher &pf = sim.prefetcher();
        Cycle now{};
        for (unsigned pass = 0; pass < 2; ++pass) {
            for (unsigned i = 0; i < 8; ++i) {
                Addr addr(0x20000 + 64 * i);
                pf.trainLoad(pc, addr, true, false);
                pf.demandMiss(pc, addr, now);
                ++now;
            }
        }
        for (; now < Cycle{400}; ++now)
            pf.tick(now);
        ASSERT_GT(pf.stats().allocationRequests, 0u);
        ASSERT_GT(pf.attribution().issued(), 0u);

        pf.resetStats();
        EXPECT_EQ(pf.stats().allocationRequests, 0u);
        EXPECT_EQ(pf.attribution().issued(), 0u);
    }
}

} // namespace
} // namespace psb
