/**
 * @file
 * Unit tests for the data TLB and the main-memory model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "memory/hierarchy.hh"
#include "memory/main_memory.hh"
#include "memory/tlb.hh"

namespace psb
{
namespace
{

TEST(TlbTest, FirstTouchMissesThenHits)
{
    Tlb tlb(4, 8192, CycleDelta{30});
    EXPECT_EQ(tlb.translate(Addr{0x10000}), CycleDelta{30});
    EXPECT_EQ(tlb.translate(Addr{0x10000}), CycleDelta{});
    EXPECT_EQ(tlb.translate(Addr{0x11fff}), CycleDelta{}); // same page
    EXPECT_EQ(tlb.translate(Addr{0x12000}), CycleDelta{30}); // next
    EXPECT_EQ(tlb.accesses(), 4u);
    EXPECT_EQ(tlb.misses(), 2u);
}

TEST(TlbTest, LruReplacement)
{
    Tlb tlb(2, 8192, CycleDelta{30});
    tlb.translate(Addr{0x00000}); // page 0
    tlb.translate(Addr{0x02000}); // page 1
    tlb.translate(Addr{0x00000}); // refresh page 0
    tlb.translate(Addr{0x04000}); // page 2 evicts page 1
    EXPECT_TRUE(tlb.probe(Addr{0x00000}));
    EXPECT_FALSE(tlb.probe(Addr{0x02000}));
    EXPECT_TRUE(tlb.probe(Addr{0x04000}));
}

TEST(TlbTest, ProbeDoesNotFill)
{
    Tlb tlb(4, 8192, CycleDelta{30});
    EXPECT_FALSE(tlb.probe(Addr{0x10000}));
    EXPECT_FALSE(tlb.probe(Addr{0x10000}));
    EXPECT_EQ(tlb.misses(), 0u);
}

TEST(TlbTest, PrefetchTranslationReplacesEntries)
{
    // Paper §4.5: prefetches translate and replace on miss — a
    // prefetch to a new page installs its translation.
    Tlb tlb(2, 8192, CycleDelta{30});
    tlb.translate(Addr{0x00000});
    tlb.translate(Addr{0x02000});
    // "Prefetch" touches a third page.
    EXPECT_EQ(tlb.translate(Addr{0x04000}), CycleDelta{30});
    EXPECT_TRUE(tlb.probe(Addr{0x04000}));
}

TEST(TlbTest, ResetStatsKeepsMappings)
{
    Tlb tlb(4, 8192, CycleDelta{30});
    tlb.translate(Addr{0x10000});
    tlb.resetStats();
    EXPECT_EQ(tlb.accesses(), 0u);
    EXPECT_EQ(tlb.misses(), 0u);
    EXPECT_EQ(tlb.translate(Addr{0x10000}), CycleDelta{}); // mapped
}

TEST(TlbTest, ReplayMatchesRepeatedTranslate)
{
    // n cycles of a k-access all-hit sequence, replayed in closed form
    // versus translated one by one. Page 2 repeats, so only its later
    // stamp may survive the replay.
    const Addr page[] = {Addr{0x0000}, Addr{0x2000}, Addr{0x4000},
                         Addr{0x6000}};
    const std::vector<Addr> seq = {page[2], page[0], page[2], page[1]};
    constexpr uint64_t rounds = 5;
    Tlb stepped(4, 8192, CycleDelta{30});
    Tlb replayed(4, 8192, CycleDelta{30});
    for (Tlb *tlb : {&stepped, &replayed}) {
        for (Addr a : page)
            tlb->translate(a);
    }
    for (uint64_t r = 0; r < rounds; ++r) {
        for (Addr a : seq)
            stepped.translate(a);
    }
    std::vector<TlbHit> hits;
    for (Addr a : seq)
        hits.push_back(replayed.resident(a));
    replayed.replayHits(hits, CycleDelta(rounds));
    EXPECT_EQ(replayed.accesses(), stepped.accesses());
    EXPECT_EQ(replayed.misses(), stepped.misses());

    // Each fresh page evicts the LRU survivor: page 3 (untouched by the
    // sequence), then 0, 2 and 1.
    const int evicted[] = {3, 0, 2, 1};
    for (int i = 0; i < 4; ++i) {
        const Addr fresh(0x100000 + 0x2000u * unsigned(i));
        EXPECT_EQ(stepped.translate(fresh), CycleDelta{30});
        EXPECT_EQ(replayed.translate(fresh), CycleDelta{30});
        EXPECT_FALSE(stepped.probe(page[evicted[i]])) << i;
        for (Addr a : page)
            EXPECT_EQ(replayed.probe(a), stepped.probe(a)) << i;
    }
}

TEST(TlbTest, CollidingPagesMatchLinearLru)
{
    // A 4-entry TLB against a linear LRU model. Sixteen pages
    // outnumber the TLB's eight way-hint slots, so alternating every
    // pair of them exercises pages that share a slot, both resident
    // and evicting each other. Each translation must hit or miss as
    // in the model, and leave the same pages mapped.
    for (uint64_t page_bytes : {MemoryConfig{}.pageBytes, uint64_t(4096)}) {
        SCOPED_TRACE(page_bytes);
        Tlb tlb(4, page_bytes, CycleDelta{30});
        std::vector<uint64_t> model; // resident pages, LRU first
        uint64_t model_misses = 0;
        auto touch = [&](uint64_t page) {
            const Addr vaddr(page * page_bytes + page % page_bytes);
            auto it = std::find(model.begin(), model.end(), page);
            const bool hit = it != model.end();
            if (hit) {
                model.erase(it);
            } else {
                ++model_misses;
                if (model.size() == 4)
                    model.erase(model.begin());
            }
            model.push_back(page);
            EXPECT_EQ(tlb.translate(vaddr),
                      hit ? CycleDelta{} : CycleDelta{30})
                << "page " << page;
        };
        for (uint64_t a = 0; a < 16; ++a) {
            for (uint64_t b = a + 1; b < 16; ++b) {
                for (int round = 0; round < 3; ++round) {
                    touch(a);
                    touch(b);
                }
                touch((a + b) % 16); // a third page shifts the LRU order
            }
            for (uint64_t p = 0; p < 16; ++p) {
                const bool mapped =
                    std::find(model.begin(), model.end(), p) != model.end();
                EXPECT_EQ(tlb.probe(Addr(p * page_bytes)), mapped)
                    << "page " << p;
            }
        }
        EXPECT_EQ(tlb.accesses(), 120u * 7u);
        EXPECT_EQ(tlb.misses(), model_misses);
        EXPECT_EQ(tlb.misses(), 211u);
    }
}

TEST(MainMemoryTest, FixedLatency)
{
    MainMemory mem(CycleDelta{120}, CycleDelta{4});
    EXPECT_EQ(mem.access(Cycle{}), Cycle{120});
    EXPECT_EQ(mem.accesses(), 1u);
    EXPECT_EQ(mem.latency(), CycleDelta{120});
}

TEST(MainMemoryTest, IssueIntervalPipelinesAccesses)
{
    MainMemory mem(CycleDelta{120}, CycleDelta{4});
    EXPECT_EQ(mem.access(Cycle{}), Cycle{120});
    // Second access at the same cycle starts 4 cycles later.
    EXPECT_EQ(mem.access(Cycle{}), Cycle{124});
    EXPECT_EQ(mem.access(Cycle{}), Cycle{128});
    // A later access after the pipeline drains starts on time.
    EXPECT_EQ(mem.access(Cycle{1000}), Cycle{1120});
}

} // namespace
} // namespace psb
