/**
 * @file
 * Tests for the components beyond the paper's headline design: the
 * order-k context predictor (§2.2), the Palacharla-Kessler
 * minimum-delta stream buffers (§3.3.2), and the §4.5 cached-TLB
 * stream-buffer option.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/psb.hh"
#include "memory/hierarchy.hh"
#include "predictors/context_predictor.hh"
#include "predictors/sfm_predictor.hh"
#include "prefetch/min_delta_stream_buffers.hh"

namespace psb
{
namespace
{

constexpr Addr pc{0x400010};
constexpr unsigned lineBits = 5; // default 32-byte blocks

MemoryConfig
quietMemory()
{
    MemoryConfig cfg;
    cfg.tlbMissPenalty = CycleDelta{};
    return cfg;
}

// ---------------------------------------------------------------- //
// ContextPredictor
// ---------------------------------------------------------------- //

TEST(ContextPredictorTest, OrderOneLearnsSimpleChain)
{
    ContextConfig cfg;
    cfg.historyLength = 1;
    ContextPredictor ctx(cfg);
    std::vector<Addr> chain = {Addr{0x10000}, Addr{0x39000},
                               Addr{0x12340}, Addr{0x88100}};
    for (int pass = 0; pass < 3; ++pass)
        for (Addr a : chain)
            ctx.train(pc, a);
    StreamState s = ctx.allocateStream(pc, chain[0]);
    for (size_t i = 1; i < chain.size(); ++i) {
        auto p = ctx.predictNext(s);
        ASSERT_TRUE(p.has_value());
        EXPECT_EQ(*p, chain[i].toBlock(lineBits));
    }
}

TEST(ContextPredictorTest, OrderTwoDisambiguatesSharedSuccessor)
{
    // Pattern: A B X, C B Y, repeated. After B, the successor depends
    // on what preceded B: order-1 cannot get both right, order-2 can.
    const Addr A{0x10000}, B{0x20000}, X{0x30000}, C{0x40000},
        Y{0x50000};
    auto run = [&](unsigned k) {
        ContextConfig cfg;
        cfg.historyLength = k;
        ContextPredictor ctx(cfg);
        for (int pass = 0; pass < 6; ++pass) {
            for (Addr a : {A, B, X, C, B, Y})
                ctx.train(pc, a);
        }
        // Predict the successor of B in the "A B ?" context.
        unsigned correct = 0;
        for (Addr a : {A, B})
            ctx.train(pc, a);
        StreamState s = ctx.allocateStream(pc, B);
        auto p = ctx.predictNext(s);
        if (p && *p == X.toBlock(lineBits))
            ++correct;
        // And in the "C B ?" context.
        for (Addr a : {X, C, B})
            ctx.train(pc, a);
        StreamState s2 = ctx.allocateStream(pc, B);
        auto p2 = ctx.predictNext(s2);
        if (p2 && *p2 == Y.toBlock(lineBits))
            ++correct;
        return correct;
    };
    EXPECT_LE(run(1), 1u); // order-1: at most one context right
    EXPECT_EQ(run(2), 2u); // order-2: both
}

TEST(ContextPredictorTest, StreamsAdvanceIndependently)
{
    ContextPredictor ctx;
    std::vector<Addr> chain = {Addr{0x10000}, Addr{0x39000},
                               Addr{0x12340}, Addr{0x88100}};
    for (int pass = 0; pass < 4; ++pass)
        for (Addr a : chain)
            ctx.train(pc, a);
    StreamState s1 = ctx.allocateStream(pc, chain[0]);
    StreamState s2 = ctx.allocateStream(pc, chain[0]);
    EXPECT_NE(s1.historyToken, s2.historyToken);
    ctx.predictNext(s1);
    ctx.predictNext(s1);
    auto p = ctx.predictNext(s2);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, chain[1].toBlock(lineBits));
}

TEST(ContextPredictorTest, ConfidenceAndFilterComeFromStrideTable)
{
    ContextPredictor ctx;
    for (int i = 0; i < 20; ++i)
        ctx.train(pc, Addr(0x10000 + 64 * i));
    EXPECT_EQ(ctx.confidence(pc), 7u);
    EXPECT_TRUE(ctx.twoMissFilterPass(pc, Addr{0x10000}));
}

// ---------------------------------------------------------------- //
// MinDeltaPredictor / MinDeltaStreamBuffers
// ---------------------------------------------------------------- //

TEST(MinDeltaTest, LearnsMinimumSignedDeltaPerChunk)
{
    MinDeltaPredictor pred;
    // Misses in one 4K chunk with stride 128 plus one outlier.
    pred.train(pc, Addr{0x10000});
    pred.train(pc, Addr{0x10080});
    EXPECT_EQ(pred.strideFor(Addr{0x10080}), 128);
    pred.train(pc, Addr{0x10100});
    EXPECT_EQ(pred.strideFor(Addr{0x10100}), 128);
}

TEST(MinDeltaTest, SubBlockDeltaRoundsToBlockWithSign)
{
    MinDeltaPredictor pred; // 32B blocks
    pred.train(pc, Addr{0x10010});
    pred.train(pc, Addr{0x10018}); // +8: below a block
    EXPECT_EQ(pred.strideFor(Addr{0x10018}), 32);
    MinDeltaPredictor pred2;
    pred2.train(pc, Addr{0x10018});
    pred2.train(pc, Addr{0x10010}); // -8
    EXPECT_EQ(pred2.strideFor(Addr{0x10010}), -32);
}

TEST(MinDeltaTest, MinimumOverHistoryNotJustLastMiss)
{
    MinDeltaPredictor pred;
    // Two interleaved streams in one chunk: 0x10000+128k and
    // 0x10040+128k. The minimum delta against the past N addresses is
    // the inter-stream gap or the stride, whichever is smaller.
    pred.train(pc, Addr{0x10000});
    pred.train(pc, Addr{0x10400}); // far
    pred.train(pc, Addr{0x10080}); // delta to 0x10000 = 128,
                                   // to 0x10400 = -896
    EXPECT_EQ(pred.strideFor(Addr{0x10080}), 128);
}

TEST(MinDeltaTest, FilterNeedsConsecutiveMissesInChunk)
{
    MinDeltaPredictor pred;
    pred.train(pc, Addr{0x10000});
    EXPECT_FALSE(pred.twoMissFilterPass(pc, Addr{0x10000}));
    pred.train(pc, Addr{0x10080}); // consecutive, same chunk
    EXPECT_TRUE(pred.twoMissFilterPass(pc, Addr{0x10080}));
    // A miss in a different chunk breaks the run.
    pred.train(pc, Addr{0x90000});
    pred.train(pc, Addr{0x10100});
    EXPECT_FALSE(pred.twoMissFilterPass(pc, Addr{0x10100}));
}

TEST(MinDeltaTest, EndToEndFollowsRegionStride)
{
    MemoryHierarchy hier(quietMemory());
    MinDeltaStreamBuffers sb({}, {}, hier);
    Addr a{0x20000};
    for (int i = 0; i < 4; ++i) {
        sb.trainLoad(pc, a + 128 * i, true, false);
        sb.demandMiss(pc, a + 128 * i, Cycle(i));
    }
    for (Cycle c{10}; c < Cycle{400}; ++c)
        sb.tick(c);
    EXPECT_TRUE(sb.lookup(a + 128 * 4, Cycle{1000}).hit);
    EXPECT_TRUE(sb.lookup(a + 128 * 5, Cycle{1001}).hit);
}

TEST(MinDeltaTest, GlobalHistoryConfusedByInterleavedStreams)
{
    // The weakness Farkas et al. fixed with per-PC strides: two loads
    // with different strides in the SAME chunk corrupt each other's
    // minimum delta. Verify the detected stride is the inter-stream
    // gap, not either true stride.
    MinDeltaPredictor pred;
    for (int i = 0; i < 6; ++i) {
        pred.train(Addr{0x400010}, Addr(0x30000 + 256 * i)); // stride 256
        pred.train(Addr{0x400020}, Addr(0x30040 + 256 * i)); // stride
                                                             // 256,
                                                             // offset 64
    }
    // The minimum delta seen is the 64-byte inter-stream gap.
    EXPECT_EQ(pred.strideFor(Addr(0x30040 + 256 * 5)), 64);
}

// ---------------------------------------------------------------- //
// Cached TLB translations (§4.5)
// ---------------------------------------------------------------- //

TEST(CachedTlbTest, SkipsTranslationsInsidePage)
{
    // A long unit-stride stream inside one 8K page: with the option
    // on, only the first prefetch of the page translates.
    for (bool cached : {false, true}) {
        MemoryHierarchy hier({});
        SfmPredictor sfm;
        PsbConfig cfg;
        cfg.buffers.cacheTlbTranslation = cached;
        PredictorDirectedStreamBuffers psb(cfg, sfm, hier);

        for (int i = 0; i < 8; ++i) {
            Addr a(0x40000 + 32 * i);
            sfm.train(pc, a);
        }
        psb.demandMiss(pc, Addr{0x40100}, Cycle{});
        for (Cycle c{1}; c < Cycle{300}; ++c)
            psb.tick(c);

        ASSERT_GT(psb.attribution().issued(), 2u);
        if (cached) {
            EXPECT_GT(psb.stats().tlbTranslationsSkipped, 0u);
        } else {
            EXPECT_EQ(psb.stats().tlbTranslationsSkipped, 0u);
        }
    }
}

TEST(CachedTlbTest, PageCrossingRetranslates)
{
    MemoryHierarchy hier({});
    SfmPredictor sfm;
    PsbConfig cfg;
    cfg.buffers.cacheTlbTranslation = true;
    PredictorDirectedStreamBuffers psb(cfg, sfm, hier);

    // Stride of one page: every prefetch crosses a page boundary, so
    // nothing can be skipped.
    for (int i = 0; i < 8; ++i)
        sfm.train(pc, Addr(0x100000 + 8192u * i));
    psb.demandMiss(pc, Addr(0x100000 + 8192u * 8), Cycle{});
    for (Cycle c{1}; c < Cycle{400}; ++c)
        psb.tick(c);
    ASSERT_GT(psb.attribution().issued(), 2u);
    EXPECT_EQ(psb.stats().tlbTranslationsSkipped, 0u);
}

} // namespace
} // namespace psb
