/**
 * @file
 * Unit tests for the stream-buffer storage: entries, associative
 * lookup across buffers, LRU/priority victim selection.
 */

#include <gtest/gtest.h>

#include <optional>

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

TEST(StreamBufferTest, AllocationResetsEntries)
{
    StreamBuffer buf(4, 12);
    EXPECT_FALSE(buf.allocated());
    buf.fillEntry(0, BlockAddr{0x1000});
    StreamState s;
    s.loadPc = Addr{0x400010};
    buf.allocateStream(s, 5);
    EXPECT_TRUE(buf.allocated());
    EXPECT_EQ(buf.priority.value(), 5u);
    EXPECT_EQ(buf.state.loadPc, Addr{0x400010});
    for (const auto &e : buf.entries())
        EXPECT_FALSE(e.valid);
}

TEST(StreamBufferTest, FindFreeAndPendingEntries)
{
    StreamBuffer buf(4, 12);
    buf.allocateStream(StreamState{}, 0);
    EXPECT_EQ(buf.freeEntry(), 0);
    EXPECT_EQ(buf.pendingPrefetchEntry(), -1);

    buf.fillEntry(0, BlockAddr{0x1000});
    EXPECT_EQ(buf.freeEntry(), 1);
    EXPECT_EQ(buf.pendingPrefetchEntry(), 0);
    EXPECT_EQ(buf.findEntry(BlockAddr{0x1000}), 0);
    EXPECT_EQ(buf.findEntry(BlockAddr{0x2000}), -1);

    buf.markPrefetched(0, Cycle{10});
    EXPECT_EQ(buf.pendingPrefetchEntry(), -1);
    EXPECT_TRUE(buf.entries()[0].prefetched);
    EXPECT_EQ(buf.entries()[0].ready, Cycle{10});

    buf.clearEntry(0);
    EXPECT_EQ(buf.findEntry(BlockAddr{0x1000}), -1);
    EXPECT_EQ(buf.freeEntry(), 0);
}

TEST(StreamBufferFileTest, LookupSearchesAllBuffersAllEntries)
{
    StreamBufferFile file(paperConfig());
    // Nothing allocated: no hits.
    EXPECT_FALSE(file.findBlock(BlockAddr{0x1000}).has_value());

    file.buffer(3).allocateStream(StreamState{}, 0);
    file.buffer(3).fillEntry(2, BlockAddr{0x1000});
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
    file.buffer(0).fillEntry(0, BlockAddr{0x1000});
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
            StreamBuffer &buf =
                file.buffer(unsigned(rng.below(file.numBuffers())));
            int slot = int(rng.below(cfg.entriesPerBuffer));
            switch (rng.below(6)) {
            case 0:
                buf.allocateStream(StreamState{}, 0);
                break;
            case 1:
                buf.deallocate();
                break;
            case 2:
            case 3:
                if (!buf.entries()[slot].valid)
                    buf.fillEntry(slot, randomBlock(rng));
                break;
            case 4:
                if (buf.entries()[slot].valid)
                    buf.markPrefetched(slot, Cycle{});
                break;
            default:
                buf.clearEntry(slot);
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

TEST(StreamBufferFileTest, LruBufferPrefersUnallocated)
{
    StreamBufferFile file(paperConfig());
    file.buffer(0).allocateStream(StreamState{}, 0);
    file.buffer(0).lastHitStamp = file.nextStamp();
    EXPECT_EQ(file.lruBuffer(), 1u); // first unallocated
}

TEST(StreamBufferFileTest, LruBufferPicksOldestAllocation)
{
    StreamBufferFile file(paperConfig());
    for (unsigned b = 0; b < file.numBuffers(); ++b) {
        file.buffer(b).allocateStream(StreamState{}, 0);
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
        file.buffer(b).allocateStream(StreamState{}, 5);
        file.buffer(b).lastHitStamp = file.nextStamp();
    }
    file.buffer(6).priority.set(1);
    EXPECT_EQ(file.minPriorityBuffer(), 6u);
    // Unallocated buffers count as priority zero.
    file.buffer(4).deallocate();
    EXPECT_EQ(file.minPriorityBuffer(), 4u);
}

TEST(StreamBufferFileTest, MinPriorityTieBrokenByOldestHit)
{
    StreamBufferFile file(paperConfig());
    for (unsigned b = 0; b < file.numBuffers(); ++b) {
        file.buffer(b).allocateStream(StreamState{}, 3);
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
