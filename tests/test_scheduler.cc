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
        file.allocateStream(b, StreamState{}, priorities[b]);
        file.buffer(b).lastHitStamp = file.nextStamp();
    }
    return file;
}

/** Bit b set for every true @p candidates[b]. */
uint64_t
maskOf(const std::vector<bool> &candidates)
{
    uint64_t mask = 0;
    for (unsigned b = 0; b < candidates.size(); ++b)
        mask |= uint64_t(candidates[b]) << b;
    return mask;
}

/** Set each buffer's predict-port stamp to @p stamps[b]. */
void
setStamps(StreamBufferFile &file, const std::vector<uint64_t> &stamps)
{
    for (unsigned b = 0; b < file.numBuffers(); ++b)
        file.buffer(b).lastPredictStamp = stamps[b];
}

constexpr BufferScheduler::TieStamp predictStamp =
    &StreamBuffer::lastPredictStamp;

TEST(SchedulerTest, RoundRobinRotatesThroughCandidates)
{
    auto file = makeFile({0, 0, 0, 0});
    BufferScheduler sched(SchedPolicy::RoundRobin, 4);
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        order.push_back(sched.pick(file, 0b1111, predictStamp));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 0, 1, 2, 3, 0}));
}

TEST(SchedulerTest, RoundRobinSkipsNonCandidates)
{
    auto file = makeFile({0, 0, 0, 0});
    BufferScheduler sched(SchedPolicy::RoundRobin, 4);
    const uint64_t odd = 0b1010;
    EXPECT_EQ(sched.pick(file, odd, predictStamp), 1);
    EXPECT_EQ(sched.pick(file, odd, predictStamp), 3);
    EXPECT_EQ(sched.pick(file, odd, predictStamp), 1);
}

TEST(SchedulerTest, RoundRobinWrapsToZeroAndBackToThePointer)
{
    auto file = makeFile({0, 0, 0, 0});
    BufferScheduler sched(SchedPolicy::RoundRobin, 4);
    // Pointer on the last buffer: the next candidate is found by
    // wrapping to buffer 0.
    EXPECT_EQ(sched.pick(file, 0b1000, predictStamp), 3);
    EXPECT_EQ(sched.rrPointer(), 3u);
    EXPECT_EQ(sched.pick(file, 0b1001, predictStamp), 0);
    // The pointer's own buffer, the only candidate, wins again after
    // a full lap.
    EXPECT_EQ(sched.pick(file, 0b0001, predictStamp), 0);
    EXPECT_EQ(sched.pick(file, 0b0100, predictStamp), 2);
    EXPECT_EQ(sched.pick(file, 0b0100, predictStamp), 2);
    EXPECT_EQ(sched.grants(), 5u);
}

TEST(SchedulerTest, NoCandidateReturnsMinusOne)
{
    auto file = makeFile({0, 0});
    for (SchedPolicy policy :
         {SchedPolicy::RoundRobin, SchedPolicy::Priority}) {
        BufferScheduler sched(policy, 2);
        EXPECT_EQ(sched.pick(file, 0, predictStamp), -1);
        // An empty mask is counted, not granted, and leaves the
        // round-robin pointer alone.
        EXPECT_EQ(sched.noCandidatePicks(), 1u);
        EXPECT_EQ(sched.grants(), 0u);
        EXPECT_EQ(sched.rrPointer(), 0u);
    }
}

TEST(SchedulerTest, PriorityPicksHighestCounter)
{
    auto file = makeFile({2, 9, 4, 7});
    BufferScheduler sched(SchedPolicy::Priority, 4);
    EXPECT_EQ(sched.pick(file, 0b1111, predictStamp), 1);
    // Deterministic: repeats while priorities are unchanged.
    EXPECT_EQ(sched.pick(file, 0b1111, predictStamp), 1);
}

TEST(SchedulerTest, PriorityRespectsCandidateFilter)
{
    auto file = makeFile({2, 9, 4, 7});
    BufferScheduler sched(SchedPolicy::Priority, 4);
    EXPECT_EQ(sched.pick(file, 0b1101, predictStamp), 3);
}

TEST(SchedulerTest, PriorityTieBrokenByLruStamp)
{
    auto file = makeFile({5, 5, 5, 5});
    BufferScheduler sched(SchedPolicy::Priority, 4);
    setStamps(file, {40, 10, 30, 20});
    EXPECT_EQ(sched.pick(file, 0b1111, predictStamp), 1); // least recent
    file.buffer(1).lastPredictStamp = 100;
    EXPECT_EQ(sched.pick(file, 0b1111, predictStamp), 3);
}

TEST(SchedulerTest, PriorityTieBrokenByStampThenIndex)
{
    auto file = makeFile({5, 6, 6, 6, 6});
    BufferScheduler sched(SchedPolicy::Priority, 5);
    setStamps(file, {0, 9, 4, 4, 7});
    // 1-4 share the top counter; 2 and 3 share the oldest stamp, and
    // the lower index wins.
    EXPECT_EQ(sched.pick(file, 0b11111, predictStamp), 2);
    EXPECT_EQ(sched.pick(file, 0b11011, predictStamp), 3);
    // The stamp is read through the member pointer given.
    file.buffer(4).lastPrefetchStamp = 1;
    EXPECT_EQ(sched.pick(file, 0b11111, &StreamBuffer::lastPrefetchStamp),
              1);
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
    const uint64_t all = (uint64_t(1) << nb) - 1;
    setStamps(file, std::vector<uint64_t>(nb, 0));
    for (unsigned i = 0; i < rr_warm; ++i) {
        ticked.pick(file, all, predictStamp);
        replayed.pick(file, all, predictStamp);
    }

    const uint64_t mask = maskOf(candidates);
    setStamps(file, stamps);
    uint64_t clock = 1000;
    std::vector<int> winners;
    for (uint64_t j = 0; j < n; ++j) {
        int w = ticked.pick(file, mask, predictStamp);
        ASSERT_GE(w, 0);
        file.buffer(unsigned(w)).lastPredictStamp = ++clock;
        winners.push_back(w);
    }

    setStamps(file, stamps);
    auto cycle = replayed.winnerCycle(file, mask, predictStamp);
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
    EXPECT_TRUE(sched.winnerCycle(file, 0, predictStamp).empty());
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
