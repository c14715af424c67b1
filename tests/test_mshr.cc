/**
 * @file
 * Unit tests for the MSHR file: in-flight tracking, merges, lazy
 * retirement, and capacity stalls.
 */

#include <gtest/gtest.h>

#include "memory/mshr.hh"

namespace psb
{
namespace
{

TEST(MshrTest, LookupMissWhenEmpty)
{
    MshrFile m(4);
    EXPECT_FALSE(m.lookup(BlockAddr{0x1000}, Cycle{}).has_value());
    EXPECT_FALSE(m.full(Cycle{}));
    EXPECT_EQ(m.occupancy(Cycle{}), 0u);
}

TEST(MshrTest, AllocateThenMergeUntilReady)
{
    MshrFile m(4);
    m.allocate(BlockAddr{0x1000}, Cycle{50});
    auto hit = m.lookup(BlockAddr{0x1000}, Cycle{10});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, Cycle{50});
    EXPECT_EQ(m.merges(), 1u);
    // At the fill time the entry retires.
    EXPECT_FALSE(m.lookup(BlockAddr{0x1000}, Cycle{50}).has_value());
}

TEST(MshrTest, DifferentBlocksDoNotMerge)
{
    MshrFile m(4);
    m.allocate(BlockAddr{0x1000}, Cycle{50});
    EXPECT_FALSE(m.lookup(BlockAddr{0x2000}, Cycle{10}).has_value());

    // Blocks 5 and 69 share their low six bits: a lookup filtered on
    // them alone must still compare whole blocks.
    m.allocate(BlockAddr{5}, Cycle{60});
    EXPECT_FALSE(m.lookup(BlockAddr{69}, Cycle{10}).has_value());
    // Block 0x1000 retires at 50; block 5 must survive the retire.
    EXPECT_EQ(m.lookup(BlockAddr{5}, Cycle{50}), Cycle{60});
    EXPECT_FALSE(m.lookup(BlockAddr{69}, Cycle{50}).has_value());

    // Round trip: block 5 retires, then 69 takes an entry. Neither a
    // stale record of 5 nor a missing record of 69 may survive.
    EXPECT_FALSE(m.lookup(BlockAddr{5}, Cycle{60}).has_value());
    m.allocate(BlockAddr{69}, Cycle{90});
    EXPECT_EQ(m.lookup(BlockAddr{69}, Cycle{61}), Cycle{90});
    EXPECT_FALSE(m.lookup(BlockAddr{5}, Cycle{61}).has_value());
    EXPECT_EQ(m.occupancy(Cycle{61}), 1u);
    EXPECT_EQ(m.merges(), 2u);
}

TEST(MshrTest, FullAfterCapacityAllocations)
{
    MshrFile m(2);
    m.allocate(BlockAddr{0x1000}, Cycle{100});
    EXPECT_FALSE(m.full(Cycle{}));
    m.allocate(BlockAddr{0x2000}, Cycle{100});
    EXPECT_TRUE(m.full(Cycle{}));
    EXPECT_EQ(m.occupancy(Cycle{}), 2u);
    // Retirement frees capacity.
    EXPECT_FALSE(m.full(Cycle{100}));
    EXPECT_EQ(m.occupancy(Cycle{100}), 0u);
}

TEST(MshrTest, RetirementIsPerEntry)
{
    MshrFile m(4);
    m.allocate(BlockAddr{0x1000}, Cycle{10});
    m.allocate(BlockAddr{0x2000}, Cycle{20});
    EXPECT_EQ(m.occupancy(Cycle{15}), 1u);
    EXPECT_FALSE(m.lookup(BlockAddr{0x1000}, Cycle{15}).has_value());
    EXPECT_TRUE(m.lookup(BlockAddr{0x2000}, Cycle{15}).has_value());
}

TEST(MshrTest, AllocationsCounted)
{
    MshrFile m(8);
    for (int i = 0; i < 5; ++i)
        m.allocate(BlockAddr{0x1000 + 0x100 * uint64_t(i)}, Cycle{100});
    EXPECT_EQ(m.allocations(), 5u);
    EXPECT_EQ(m.capacity(), 8u);
}

TEST(MshrDeathTest, DoubleAllocationPanics)
{
    MshrFile m(4);
    m.allocate(BlockAddr{0x1000}, Cycle{100});
    EXPECT_DEATH(m.allocate(BlockAddr{0x1000}, Cycle{200}),
                 "double-allocation");
}

TEST(MshrDeathTest, AllocateWhenFullPanics)
{
    MshrFile m(1);
    m.allocate(BlockAddr{0x1000}, Cycle{100});
    EXPECT_DEATH(m.allocate(BlockAddr{0x2000}, Cycle{100}),
                 "no free entry");
}

} // namespace
} // namespace psb
