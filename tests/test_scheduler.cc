/**
 * @file
 * Unit tests for stream-buffer arbitration: round-robin fairness and
 * priority-with-LRU-tie-break scheduling (paper §4.4).
 */

#include <gtest/gtest.h>

#include <vector>

#include "prefetch/scheduler.hh"

namespace psb
{
namespace
{

StreamBufferFile
makeFile(std::vector<uint32_t> priorities)
{
    StreamBufferConfig cfg;
    cfg.numBuffers = unsigned(priorities.size());
    StreamBufferFile file(cfg);
    for (unsigned b = 0; b < file.numBuffers(); ++b) {
        file.buffer(b).allocateStream(StreamState{}, priorities[b]);
        file.buffer(b).lastHitStamp = file.nextStamp();
    }
    return file;
}

TEST(SchedulerTest, RoundRobinRotatesThroughCandidates)
{
    auto file = makeFile({0, 0, 0, 0});
    BufferScheduler sched(SchedPolicy::RoundRobin, 4);
    auto all = [](unsigned) { return true; };
    auto stamp = [](unsigned) { return uint64_t(0); };
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        order.push_back(sched.pick(file, all, stamp));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 0, 1, 2, 3, 0}));
}

TEST(SchedulerTest, RoundRobinSkipsNonCandidates)
{
    auto file = makeFile({0, 0, 0, 0});
    BufferScheduler sched(SchedPolicy::RoundRobin, 4);
    auto odd = [](unsigned b) { return b % 2 == 1; };
    auto stamp = [](unsigned) { return uint64_t(0); };
    EXPECT_EQ(sched.pick(file, odd, stamp), 1);
    EXPECT_EQ(sched.pick(file, odd, stamp), 3);
    EXPECT_EQ(sched.pick(file, odd, stamp), 1);
}

TEST(SchedulerTest, NoCandidateReturnsMinusOne)
{
    auto file = makeFile({0, 0});
    BufferScheduler sched(SchedPolicy::RoundRobin, 2);
    auto none = [](unsigned) { return false; };
    auto stamp = [](unsigned) { return uint64_t(0); };
    EXPECT_EQ(sched.pick(file, none, stamp), -1);
}

TEST(SchedulerTest, PriorityPicksHighestCounter)
{
    auto file = makeFile({2, 9, 4, 7});
    BufferScheduler sched(SchedPolicy::Priority, 4);
    auto all = [](unsigned) { return true; };
    auto stamp = [](unsigned) { return uint64_t(0); };
    EXPECT_EQ(sched.pick(file, all, stamp), 1);
    // Deterministic: repeats while priorities are unchanged.
    EXPECT_EQ(sched.pick(file, all, stamp), 1);
}

TEST(SchedulerTest, PriorityRespectsCandidateFilter)
{
    auto file = makeFile({2, 9, 4, 7});
    BufferScheduler sched(SchedPolicy::Priority, 4);
    auto not1 = [](unsigned b) { return b != 1; };
    auto stamp = [](unsigned) { return uint64_t(0); };
    EXPECT_EQ(sched.pick(file, not1, stamp), 3);
}

TEST(SchedulerTest, PriorityTieBrokenByLruStamp)
{
    auto file = makeFile({5, 5, 5, 5});
    BufferScheduler sched(SchedPolicy::Priority, 4);
    auto all = [](unsigned) { return true; };
    std::vector<uint64_t> stamps = {40, 10, 30, 20};
    auto stamp = [&](unsigned b) { return stamps[b]; };
    EXPECT_EQ(sched.pick(file, all, stamp), 1); // least recently used
    stamps[1] = 100;
    EXPECT_EQ(sched.pick(file, all, stamp), 3);
}

/**
 * Replaying @p n picks along winnerCycle() must match @p n pick()
 * calls whose winners are each restamped past all others: the same
 * winners, grants and round-robin pointer.
 */
void
expectReplayMatchesPicks(SchedPolicy policy,
                         std::vector<uint32_t> priorities,
                         std::vector<bool> candidates,
                         std::vector<uint64_t> stamps, unsigned rr_warm,
                         uint64_t n)
{
    auto file = makeFile(priorities);
    unsigned nb = file.numBuffers();
    BufferScheduler ticked(policy, nb);
    BufferScheduler replayed(policy, nb);
    auto all = [](unsigned) { return true; };
    auto zero = [](unsigned) { return uint64_t(0); };
    for (unsigned i = 0; i < rr_warm; ++i) {
        ticked.pick(file, all, zero);
        replayed.pick(file, all, zero);
    }

    auto candidate = [&](unsigned b) { return bool(candidates[b]); };
    std::vector<uint64_t> tick_stamps = stamps;
    auto tick_stamp = [&](unsigned b) { return tick_stamps[b]; };
    uint64_t clock = 1000;
    std::vector<int> winners;
    for (uint64_t j = 0; j < n; ++j) {
        int w = ticked.pick(file, candidate, tick_stamp);
        ASSERT_GE(w, 0);
        tick_stamps[unsigned(w)] = ++clock;
        winners.push_back(w);
    }

    std::vector<uint64_t> replay_stamps = stamps;
    auto replay_stamp = [&](unsigned b) { return replay_stamps[b]; };
    auto cycle = replayed.winnerCycle(file, candidate, replay_stamp);
    ASSERT_FALSE(cycle.empty());
    for (uint64_t j = 0; j < n; ++j)
        EXPECT_EQ(int(cycle[j % cycle.size()]), winners[j]) << "pick " << j;
    replayed.replayGrants(cycle, n);

    EXPECT_EQ(replayed.grants(), ticked.grants());
    EXPECT_EQ(replayed.noCandidatePicks(), ticked.noCandidatePicks());
    EXPECT_EQ(replayed.rrPointer(), ticked.rrPointer());
}

TEST(SchedulerTest, WinnerCycleReplaysRoundRobinFromPointer)
{
    // Three candidates; the pointer starts mid-file (after two warm
    // picks), so the cycle wraps: 3, 5, 1, 3, ...
    for (uint64_t n : {1, 2, 3, 7, 100})
        expectReplayMatchesPicks(SchedPolicy::RoundRobin,
                                 {0, 0, 0, 0, 0, 0},
                                 {false, true, false, true, false, true},
                                 {0, 0, 0, 0, 0, 0}, 2, n);
}

TEST(SchedulerTest, WinnerCycleBreaksEqualStampsByIndex)
{
    for (uint64_t n : {1, 2, 5, 64})
        expectReplayMatchesPicks(SchedPolicy::Priority, {4, 4, 4, 4},
                                 {true, true, true, true},
                                 {7, 7, 3, 7}, 0, n);
}

TEST(SchedulerTest, WinnerCycleServesOnlyTheTopPriorityClass)
{
    // Buffers 1 and 3 hold the top counter and rotate; 0 and 2 starve.
    for (uint64_t n : {1, 2, 9})
        expectReplayMatchesPicks(SchedPolicy::Priority, {3, 8, 5, 8},
                                 {true, true, true, true},
                                 {0, 50, 0, 20}, 0, n);
}

TEST(SchedulerTest, WinnerCycleEmptyWithoutCandidates)
{
    auto file = makeFile({1, 2});
    BufferScheduler sched(SchedPolicy::Priority, 2);
    auto none = [](unsigned) { return false; };
    auto stamp = [](unsigned) { return uint64_t(0); };
    EXPECT_TRUE(sched.winnerCycle(file, none, stamp).empty());
    EXPECT_EQ(sched.grants(), 0u);
    EXPECT_EQ(sched.noCandidatePicks(), 0u);
}

TEST(SchedulerTest, PolicyNames)
{
    EXPECT_STREQ(schedPolicyName(SchedPolicy::RoundRobin), "RR");
    EXPECT_STREQ(schedPolicyName(SchedPolicy::Priority), "Priority");
}

} // namespace
} // namespace psb
