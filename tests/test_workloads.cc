/**
 * @file
 * Structural tests for every registry workload: deterministic per
 * seed, endless, plausible instruction mix, working set beyond the
 * L1. All of these run over allWorkloadNames(), so a workload added
 * to the registry is covered with no test edits.
 *
 * The per-workload *character* checks (is the chase serialised, is
 * the sweep stride-dominated, does the allocator recycle) are table
 * driven: one row per trait in kCharacterCases, instantiated as a
 * parameterised suite.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace psb
{
namespace
{

struct Mix
{
    uint64_t total = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t branches = 0;
    std::set<Addr> loadPcs;
    std::set<Addr> dataBlocks;
};

Mix
sample(Workload &w, uint64_t n)
{
    Mix mix;
    MicroOp op;
    for (uint64_t i = 0; i < n && w.next(op); ++i) {
        ++mix.total;
        if (op.isLoad()) {
            ++mix.loads;
            mix.loadPcs.insert(op.pc);
            mix.dataBlocks.insert(op.effAddr.alignDown(32));
        } else if (op.isStore()) {
            ++mix.stores;
        } else if (op.isBranch()) {
            ++mix.branches;
        }
    }
    return mix;
}

class WorkloadTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadTest, FactoryProducesNamedWorkload)
{
    auto w = makeWorkload(GetParam());
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->name(), GetParam());
}

TEST_P(WorkloadTest, DeterministicPerSeed)
{
    auto w1 = makeWorkload(GetParam(), 7);
    auto w2 = makeWorkload(GetParam(), 7);
    MicroOp a, b;
    for (int i = 0; i < 20000; ++i) {
        ASSERT_TRUE(w1->next(a));
        ASSERT_TRUE(w2->next(b));
        ASSERT_EQ(a.pc, b.pc);
        ASSERT_EQ(int(a.op), int(b.op));
        ASSERT_EQ(a.effAddr, b.effAddr);
        ASSERT_EQ(a.taken, b.taken);
    }
}

TEST_P(WorkloadTest, DifferentSeedsDiverge)
{
    auto w1 = makeWorkload(GetParam(), 1);
    auto w2 = makeWorkload(GetParam(), 999);
    MicroOp a, b;
    bool diverged = false;
    for (int i = 0; i < 50000 && !diverged; ++i) {
        w1->next(a);
        w2->next(b);
        diverged = (a.effAddr != b.effAddr);
    }
    EXPECT_TRUE(diverged);
}

TEST_P(WorkloadTest, EndlessSteadyState)
{
    auto w = makeWorkload(GetParam());
    MicroOp op;
    for (int i = 0; i < 300000; ++i)
        ASSERT_TRUE(w->next(op));
}

TEST_P(WorkloadTest, PlausibleInstructionMix)
{
    auto w = makeWorkload(GetParam());
    Mix mix = sample(*w, 200000);
    double loads = double(mix.loads) / double(mix.total);
    double stores = double(mix.stores) / double(mix.total);
    double branches = double(mix.branches) / double(mix.total);
    // Table 2 territory: loads 15-45%, stores 1-20%, branches 5-35%.
    EXPECT_GT(loads, 0.15) << "load fraction";
    EXPECT_LT(loads, 0.45) << "load fraction";
    EXPECT_GT(stores, 0.01) << "store fraction";
    EXPECT_LT(stores, 0.22) << "store fraction";
    EXPECT_GT(branches, 0.05) << "branch fraction";
    EXPECT_LT(branches, 0.35) << "branch fraction";
}

TEST_P(WorkloadTest, WorkingSetExceedsL1)
{
    auto w = makeWorkload(GetParam());
    Mix mix = sample(*w, 400000);
    // Accessed data footprint must exceed the 32 KB L1 (1024 blocks)
    // or there would be nothing to prefetch.
    EXPECT_GT(mix.dataBlocks.size(), 1200u);
}

TEST_P(WorkloadTest, StaticCodeFootprintReasonable)
{
    auto w = makeWorkload(GetParam());
    Mix mix = sample(*w, 200000);
    // A handful of load sites at least, but the synthetic "binary"
    // stays small (paper benchmarks fit comfortably in the 32K L1I).
    EXPECT_GE(mix.loadPcs.size(), 3u);
    EXPECT_LT(mix.loadPcs.size(), 512u);
}

TEST_P(WorkloadTest, BranchTargetsPointIntoCode)
{
    auto w = makeWorkload(GetParam());
    MicroOp op;
    for (int i = 0; i < 50000; ++i) {
        ASSERT_TRUE(w->next(op));
        if (op.isBranch() && op.taken) {
            EXPECT_GE(op.target, Addr{0x00400000});
            EXPECT_LT(op.target, Addr{0x01000000});
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Registry, WorkloadTest,
                         ::testing::ValuesIn(allWorkloadNames()),
                         [](const auto &pinfo) { return pinfo.param; });

TEST(WorkloadFactoryTest, UnknownNameReturnsNull)
{
    EXPECT_EQ(makeWorkload("nonesuch"), nullptr);
}

TEST(WorkloadFactoryTest, NamesMatchPaperTable1)
{
    std::vector<std::string> expected = {"health", "burg", "deltablue",
                                         "gs", "sis", "turb3d"};
    EXPECT_EQ(workloadNames(), expected);
}

TEST(WorkloadFactoryTest, RegistryExtendsPaperSixInOrder)
{
    const auto &six = workloadNames();
    const auto &all = allWorkloadNames();
    // The paper six come first and unchanged — figure-5 benches and
    // the golden corpus iterate workloadNames() and must not move.
    ASSERT_GE(all.size(), six.size());
    EXPECT_TRUE(std::equal(six.begin(), six.end(), all.begin()));
    for (const char *extra : {"graph", "hashjoin", "logscan", "fuzz"})
        EXPECT_NE(std::find(all.begin(), all.end(), extra), all.end())
            << extra;
}

// ------------------------------------------------------------------ //
// Character probes: one table row per workload trait.
// ------------------------------------------------------------------ //

/**
 * Share of consecutive per-PC load deltas covered by the @p top_k
 * most common deltas, over @p n ops. Pass @p only_pc to restrict the
 * probe to one load site; Addr{0} means all load PCs.
 */
double
topDeltaShare(Workload &w, uint64_t n, size_t top_k, Addr only_pc)
{
    std::map<Addr, Addr> last;
    std::map<int64_t, uint64_t> deltas;
    uint64_t total = 0;
    MicroOp op;
    for (uint64_t i = 0; i < n; ++i) {
        w.next(op);
        if (!op.isLoad())
            continue;
        if (only_pc != Addr{0} && op.pc != only_pc)
            continue;
        auto it = last.find(op.pc);
        if (it != last.end()) {
            ++deltas[op.effAddr - it->second];
            ++total;
        }
        last[op.pc] = op.effAddr;
    }
    if (total == 0)
        return 0.0;
    std::vector<uint64_t> counts;
    for (auto &[d, cnt] : deltas)
        counts.push_back(cnt);
    std::sort(counts.rbegin(), counts.rend());
    uint64_t top = 0;
    for (size_t i = 0; i < counts.size() && i < top_k; ++i)
        top += counts[i];
    return double(top) / double(total);
}

/**
 * Count loads with pc in [@p lo, @p hi), asserting each is serialised
 * through one register (src1 == dst): the true-pointer-chase shape.
 */
uint64_t
serialisedLoadCount(Workload &w, uint64_t n, Addr lo, Addr hi)
{
    uint64_t count = 0;
    MicroOp op;
    for (uint64_t i = 0; i < n; ++i) {
        w.next(op);
        if (op.isLoad() && op.pc >= lo && op.pc < hi) {
            ++count;
            EXPECT_EQ(op.src1, op.dst); // serialised through one reg
        }
    }
    return count;
}

struct CharacterCase
{
    const char *workload;
    const char *trait;
    void (*run)();
};

// Without a printer gtest dumps the row's raw bytes, which are
// per-process pointers, into the discovered ctest names.
void
PrintTo(const CharacterCase &c, std::ostream *os)
{
    *os << c.workload << "_" << c.trait;
}

void
turb3dStrideDominated()
{
    // Consecutive misses of the same PC should mostly advance by a
    // constant stride: a handful of strides (x/y/z sweeps, butterfly
    // gaps) covers the vast majority of per-PC deltas.
    auto w = makeWorkload("turb3d");
    EXPECT_GT(topDeltaShare(*w, 300000, 8, Addr{0}), 0.75);
}

void
healthChaseSerialised()
{
    // The patient-list walk must be a true pointer chase.
    auto w = makeWorkload("health");
    EXPECT_GT(serialisedLoadCount(*w, 100000, Addr{0x00400010},
                                  Addr{0x00400011}),
              1000u);
}

void
deltablueRecyclesAddresses()
{
    // Short-lived constraint objects must reuse addresses across
    // rounds — the allocator-recycling behaviour the paper's
    // deltablue depends on.
    auto w = makeWorkload("deltablue");
    MicroOp op;
    std::set<Addr> alloc_addrs;
    uint64_t repeats = 0, allocs = 0;
    for (int i = 0; i < 400000; ++i) {
        w->next(op);
        // Allocation stores write constraint field 0 at pc base+0x04.
        if (op.isStore() && op.pc == Addr{0x00600004}) {
            ++allocs;
            if (!alloc_addrs.insert(op.effAddr).second)
                ++repeats;
        }
    }
    ASSERT_GT(allocs, 100u);
    EXPECT_GT(double(repeats) / double(allocs), 0.5);
}

void
graphAdjacencyScanIsSequential()
{
    // The CSR colIdx scan (one load site) advances by +8 within a
    // row; only the jump between rows breaks the run.
    auto w = makeWorkload("graph");
    EXPECT_GT(topDeltaShare(*w, 300000, 1, Addr{0x00b00014}), 0.6);
}

void
hashjoinChainWalkSerialised()
{
    // Bucket chains are walked through next pointers, serialised
    // through the node register.
    auto w = makeWorkload("hashjoin");
    EXPECT_GT(serialisedLoadCount(*w, 100000, Addr{0x00b40018},
                                  Addr{0x00b40020}),
              1000u);
}

void
logscanSegmentScanIsSequential()
{
    // The lagging segment scan reads 64-byte records back to back;
    // only the ring wrap breaks the +64 run.
    auto w = makeWorkload("logscan");
    EXPECT_GT(topDeltaShare(*w, 300000, 1, Addr{0x00b80030}), 0.9);
}

void
fuzzChaseSerialised()
{
    // The fuzzer's chase generator walks its permutation ring
    // serialised through one register, like the real list chases.
    auto w = makeWorkload("fuzz");
    EXPECT_GT(serialisedLoadCount(*w, 200000, Addr{0x00bc0200},
                                  Addr{0x00bc0240}),
              1000u);
}

const CharacterCase kCharacterCases[] = {
    {"turb3d", "StrideDominated", turb3dStrideDominated},
    {"health", "ChaseSerialised", healthChaseSerialised},
    {"deltablue", "RecyclesAddresses", deltablueRecyclesAddresses},
    {"graph", "AdjacencyScanSequential", graphAdjacencyScanIsSequential},
    {"hashjoin", "ChainWalkSerialised", hashjoinChainWalkSerialised},
    {"logscan", "SegmentScanSequential", logscanSegmentScanIsSequential},
    {"fuzz", "ChaseSerialised", fuzzChaseSerialised},
};

class WorkloadCharacterTest
    : public ::testing::TestWithParam<CharacterCase>
{
};

TEST_P(WorkloadCharacterTest, Probe)
{
    // Every probed workload must exist in the registry, so a renamed
    // workload cannot silently orphan its character row.
    const auto &all = allWorkloadNames();
    ASSERT_NE(std::find(all.begin(), all.end(), GetParam().workload),
              all.end());
    GetParam().run();
}

INSTANTIATE_TEST_SUITE_P(Traits, WorkloadCharacterTest,
                         ::testing::ValuesIn(kCharacterCases),
                         [](const auto &pinfo) {
                             return std::string(pinfo.param.workload) +
                                    "_" + pinfo.param.trait;
                         });

} // namespace
} // namespace psb
