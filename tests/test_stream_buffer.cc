/**
 * @file
 * Unit tests for the stream-buffer storage: entries, associative
 * lookup across buffers, LRU/priority victim selection.
 */

#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "prefetch/stream_buffer.hh"
#include "util/random.hh"

namespace psb
{
namespace
{

StreamBufferConfig
paperConfig()
{
    return StreamBufferConfig{}; // 8 buffers x 4 entries, as evaluated
}

/** A file of one paper-sized buffer, to drive a single buffer. */
StreamBufferFile
oneBuffer()
{
    StreamBufferConfig cfg;
    cfg.numBuffers = 1;
    return StreamBufferFile(cfg);
}

TEST(StreamBufferTest, AllocationResetsEntries)
{
    StreamBufferFile file = oneBuffer();
    const StreamBuffer &buf = file.buffer(0);
    EXPECT_FALSE(buf.allocated());
    file.fillEntry(0, 0, BlockAddr{0x1000});
    StreamState s;
    s.loadPc = Addr{0x400010};
    file.allocateStream(0, s, 5);
    EXPECT_TRUE(buf.allocated());
    EXPECT_EQ(buf.priority.value(), 5u);
    EXPECT_EQ(buf.state.loadPc, Addr{0x400010});
    for (const auto &e : buf.entries())
        EXPECT_FALSE(e.valid);
}

TEST(StreamBufferTest, FindFreeAndPendingEntries)
{
    StreamBufferFile file = oneBuffer();
    const StreamBuffer &buf = file.buffer(0);
    file.allocateStream(0, StreamState{}, 0);
    EXPECT_EQ(buf.freeEntry(), 0);
    EXPECT_EQ(buf.pendingPrefetchEntry(), -1);

    file.fillEntry(0, 0, BlockAddr{0x1000});
    EXPECT_EQ(buf.freeEntry(), 1);
    EXPECT_EQ(buf.pendingPrefetchEntry(), 0);
    EXPECT_EQ(buf.findEntry(BlockAddr{0x1000}), 0);
    EXPECT_EQ(buf.findEntry(BlockAddr{0x2000}), -1);

    file.markPrefetched(0, 0, Cycle{10});
    EXPECT_EQ(buf.pendingPrefetchEntry(), -1);
    EXPECT_TRUE(buf.entries()[0].prefetched);
    EXPECT_EQ(buf.entries()[0].ready, Cycle{10});

    file.clearEntry(0, 0);
    EXPECT_EQ(buf.findEntry(BlockAddr{0x1000}), -1);
    EXPECT_EQ(buf.freeEntry(), 0);
}

TEST(StreamBufferFileTest, LookupSearchesAllBuffersAllEntries)
{
    StreamBufferFile file(paperConfig());
    // Nothing allocated: no hits.
    EXPECT_FALSE(file.findBlock(BlockAddr{0x1000}).has_value());

    file.allocateStream(3, StreamState{}, 0);
    file.fillEntry(3, 2, BlockAddr{0x1000});
    auto hit = file.findBlock(BlockAddr{0x1000});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->buf, 3u);
    EXPECT_EQ(hit->entry, 2);
    EXPECT_TRUE(file.contains(BlockAddr{0x1000}));
    EXPECT_FALSE(file.contains(BlockAddr{0x2000}));
}

TEST(StreamBufferFileTest, UnallocatedBuffersInvisibleToLookup)
{
    StreamBufferFile file(paperConfig());
    file.fillEntry(0, 0, BlockAddr{0x1000});
    // Buffer 0 not allocated: its stale entries must not hit.
    EXPECT_FALSE(file.findBlock(BlockAddr{0x1000}).has_value());
}

TEST(StreamBufferFileTest, SignatureFilteredLookupMatchesLinearScan)
{
    // Blocks drawn from a universe where many share their low six
    // bits, so clearing one entry must keep a sibling's signature bit.
    StreamBufferConfig cfg;
    cfg.numBuffers = 5;
    StreamBufferFile file(cfg);
    auto reference = [&file](BlockAddr block)
        -> std::optional<StreamBufferFile::TagHit> {
        for (unsigned b = 0; b < file.numBuffers(); ++b) {
            if (!file.buffer(b).allocated())
                continue;
            const auto &entries = file.buffer(b).entries();
            for (size_t e = 0; e < entries.size(); ++e) {
                if (entries[e].valid && entries[e].block == block)
                    return StreamBufferFile::TagHit{b, int(e)};
            }
        }
        return std::nullopt;
    };
    auto randomBlock = [](Xorshift64 &rng) {
        return BlockAddr{64 * rng.below(4) + rng.below(3)};
    };

    for (uint64_t seed : {31u, 32u, 33u}) {
        Xorshift64 rng(seed);
        for (int i = 0; i < 20'000; ++i) {
            const unsigned b = unsigned(rng.below(file.numBuffers()));
            const StreamBuffer &buf = file.buffer(b);
            int slot = int(rng.below(cfg.entriesPerBuffer));
            switch (rng.below(6)) {
            case 0:
                file.allocateStream(b, StreamState{}, 0);
                break;
            case 1:
                file.deallocate(b);
                break;
            case 2:
            case 3:
                if (!buf.entries()[slot].valid)
                    file.fillEntry(b, slot, randomBlock(rng));
                break;
            case 4:
                if (buf.entries()[slot].valid)
                    file.markPrefetched(b, slot, Cycle{});
                break;
            default:
                file.clearEntry(b, slot);
                break;
            }
            BlockAddr probe = randomBlock(rng);
            auto got = file.findBlock(probe);
            auto want = reference(probe);
            ASSERT_EQ(got.has_value(), want.has_value()) << "op " << i;
            if (got) {
                ASSERT_EQ(got->buf, want->buf);
                ASSERT_EQ(got->entry, want->entry);
            }
        }
    }
}

/** The summary the file should hold, recomputed from its buffers. */
void
expectSummaryMatchesBuffers(const StreamBufferFile &file)
{
    uint64_t port = 0;
    uint64_t pending = 0;
    for (unsigned b = 0; b < file.numBuffers(); ++b) {
        const StreamBuffer &buf = file.buffer(b);
        uint64_t sig = 0;
        for (const SbEntry &e : buf.entries()) {
            if (e.valid)
                sig |= blockSignatureBit(e.block);
        }
        ASSERT_EQ(file.signature(b), buf.allocated() ? sig : 0) << b;
        if (buf.allocated() && buf.freeEntry() >= 0)
            port |= uint64_t(1) << b;
        if (buf.allocated() && buf.pendingPrefetchEntry() >= 0)
            pending |= uint64_t(1) << b;
    }
    ASSERT_EQ(file.portCandidates(), port);
    ASSERT_EQ(file.pendingCandidates(), pending);
}

TEST(StreamBufferFileTest, SummaryMatchesBuffersThroughEveryMutation)
{
    StreamBufferConfig cfg;
    cfg.numBuffers = 6;
    cfg.entriesPerBuffer = 3;
    StreamBufferFile file(cfg);
    expectSummaryMatchesBuffers(file);
    Xorshift64 rng(41);
    for (int i = 0; i < 20'000; ++i) {
        const unsigned b = unsigned(rng.below(cfg.numBuffers));
        const StreamBuffer &buf = file.buffer(b);
        const int slot = int(rng.below(cfg.entriesPerBuffer));
        switch (rng.below(5)) {
        case 0:
            file.allocateStream(b, StreamState{}, 0);
            break;
        case 1:
            file.deallocate(b);
            break;
        case 2:
            if (!buf.entries()[slot].valid)
                file.fillEntry(b, slot, BlockAddr{rng.below(200)});
            break;
        case 3:
            if (buf.entries()[slot].valid)
                file.markPrefetched(b, slot, Cycle{});
            break;
        default:
            file.clearEntry(b, slot);
            break;
        }
        expectSummaryMatchesBuffers(file);
        if (i % 1000 == 999) {
            // The summary holds values only: a copy, and a file moved
            // from one, agree with their own buffers.
            StreamBufferFile copy = file;
            expectSummaryMatchesBuffers(copy);
            StreamBufferFile moved = std::move(copy);
            expectSummaryMatchesBuffers(moved);
            file = moved;
            expectSummaryMatchesBuffers(file);
        }
    }
}

TEST(StreamBufferFileTest, LruBufferPrefersUnallocated)
{
    StreamBufferFile file(paperConfig());
    file.allocateStream(0, StreamState{}, 0);
    file.buffer(0).lastHitStamp = file.nextStamp();
    EXPECT_EQ(file.lruBuffer(), 1u); // first unallocated
}

TEST(StreamBufferFileTest, LruBufferPicksOldestAllocation)
{
    StreamBufferFile file(paperConfig());
    for (unsigned b = 0; b < file.numBuffers(); ++b) {
        file.allocateStream(b, StreamState{}, 0);
        file.buffer(b).allocStamp = file.nextStamp();
    }
    // Hit-blind by design: recent hits do not protect a buffer from
    // the two-miss policy's victim choice (only confidence does).
    file.buffer(0).lastHitStamp = file.nextStamp();
    EXPECT_EQ(file.lruBuffer(), 0u);
    file.buffer(0).allocStamp = file.nextStamp();
    EXPECT_EQ(file.lruBuffer(), 1u);
}

TEST(StreamBufferFileTest, MinPriorityBuffer)
{
    StreamBufferFile file(paperConfig());
    for (unsigned b = 0; b < file.numBuffers(); ++b) {
        file.allocateStream(b, StreamState{}, 5);
        file.buffer(b).lastHitStamp = file.nextStamp();
    }
    file.buffer(6).priority.set(1);
    EXPECT_EQ(file.minPriorityBuffer(), 6u);
    // Unallocated buffers count as priority zero.
    file.deallocate(4);
    EXPECT_EQ(file.minPriorityBuffer(), 4u);
}

TEST(StreamBufferFileTest, MinPriorityTieBrokenByOldestHit)
{
    StreamBufferFile file(paperConfig());
    for (unsigned b = 0; b < file.numBuffers(); ++b) {
        file.allocateStream(b, StreamState{}, 3);
        file.buffer(b).lastHitStamp = file.nextStamp();
    }
    file.buffer(5).priority.set(1);
    file.buffer(7).priority.set(1);
    // 5 was stamped earlier than 7.
    EXPECT_EQ(file.minPriorityBuffer(), 5u);
}

TEST(StreamBufferFileTest, BlockOf)
{
    StreamBufferFile file(paperConfig());
    // 32-byte lines: byte 0x1234567f lives in block 0x12345660 / 32.
    EXPECT_EQ(file.blockOf(Addr{0x1234567f}), BlockAddr{0x91a2b3});
    EXPECT_EQ(file.blockOf(Addr{0x1234567f}).toByte(file.lineBits()),
              Addr{0x12345660});
}

TEST(StreamBufferFileTest, ConfigurableGeometry)
{
    StreamBufferConfig cfg;
    cfg.numBuffers = 2;
    cfg.entriesPerBuffer = 1;
    StreamBufferFile file(cfg);
    EXPECT_EQ(file.numBuffers(), 2u);
    EXPECT_EQ(file.buffer(0).entries().size(), 1u);
}

} // namespace
} // namespace psb
