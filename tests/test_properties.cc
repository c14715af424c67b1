/**
 * @file
 * Randomised property tests: drive whole components with seeded random
 * stimulus and check the invariants that must hold for *any* input.
 * These catch interaction bugs the directed unit tests cannot
 * enumerate (entry leaks, double-booked blocks, stat drift,
 * non-monotonic time).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/psb.hh"
#include "cpu/ooo_core.hh"
#include "memory/hierarchy.hh"
#include "predictors/sfm_predictor.hh"
#include "prefetch/stream_buffer.hh"
#include "sim/simulator.hh"
#include "trace/trace_source.hh"
#include "util/random.hh"
#include "util/sat_counter.hh"
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

// ---------------------------------------------------------------- //
// PSB invariants under random stimulus
// ---------------------------------------------------------------- //

struct PsbFuzzParam
{
    AllocPolicy alloc;
    SchedPolicy sched;
    uint64_t seed;
};

class PsbFuzzTest : public ::testing::TestWithParam<PsbFuzzParam>
{
};

TEST_P(PsbFuzzTest, InvariantsHoldUnderRandomStimulus)
{
    const PsbFuzzParam param = GetParam();
    MemoryHierarchy hier(quietMemory());
    SfmPredictor sfm;
    PsbConfig cfg;
    cfg.alloc = param.alloc;
    cfg.sched = param.sched;
    PredictorDirectedStreamBuffers psb(cfg, sfm, hier);

    Xorshift64 rng(param.seed);
    Cycle now{};
    for (int step = 0; step < 30000; ++step) {
        ++now;
        Addr pc(0x400000 + 4 * rng.below(32));
        Addr addr(0x10000000 + 32 * rng.below(1 << 14));
        switch (rng.below(5)) {
          case 0:
            psb.trainLoad(pc, addr, rng.below(2) != 0,
                          rng.below(8) == 0);
            break;
          case 1:
            psb.demandMiss(pc, addr, now);
            break;
          case 2:
            psb.lookup(addr, now);
            break;
          default:
            psb.tick(now);
            break;
        }

        if (step % 512 != 0)
            continue;

        // Invariant 1: no block is held by two buffer entries
        // (non-overlapping streams).
        std::map<BlockAddr, int> seen;
        const StreamBufferFile &file = psb.bufferFile();
        for (unsigned b = 0; b < file.numBuffers(); ++b) {
            if (!file.buffer(b).allocated())
                continue;
            for (const SbEntry &e : file.buffer(b).entries()) {
                if (e.valid) {
                    ASSERT_EQ(++seen[e.block], 1)
                        << "duplicate block across buffers";
                }
            }
        }
        // Invariant 2: priority counters within their ceiling.
        for (unsigned b = 0; b < file.numBuffers(); ++b) {
            ASSERT_LE(file.buffer(b).priority.value(),
                      cfg.buffers.priorityMax);
        }
        // Invariant 3: stat arithmetic is consistent.
        const PrefetcherStats &s = psb.stats();
        ASSERT_LE(s.hits, psb.attribution().issued());
        ASSERT_LE(s.hitsPending, s.hits);
        ASSERT_EQ(s.allocations + s.allocationsFiltered,
                  s.allocationRequests);
        ASSERT_LE(psb.attribution().issued(), s.predictions);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PsbFuzzTest,
    ::testing::Values(
        PsbFuzzParam{AllocPolicy::TwoMiss, SchedPolicy::RoundRobin, 1},
        PsbFuzzParam{AllocPolicy::TwoMiss, SchedPolicy::Priority, 2},
        PsbFuzzParam{AllocPolicy::Confidence, SchedPolicy::RoundRobin,
                     3},
        PsbFuzzParam{AllocPolicy::Confidence, SchedPolicy::Priority, 4},
        PsbFuzzParam{AllocPolicy::Always, SchedPolicy::RoundRobin, 5},
        PsbFuzzParam{AllocPolicy::Always, SchedPolicy::Priority, 6}),
    [](const auto &pinfo) {
        return std::string(allocPolicyName(pinfo.param.alloc)) + "_" +
               schedPolicyName(pinfo.param.sched);
    });

// ---------------------------------------------------------------- //
// Memory-hierarchy invariants under random access streams
// ---------------------------------------------------------------- //

class HierarchyFuzzTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(HierarchyFuzzTest, TimingAndStateInvariants)
{
    MemoryHierarchy hier(quietMemory());
    Xorshift64 rng(GetParam());
    Cycle now{};

    for (int step = 0; step < 20000; ++step) {
        now += CycleDelta(rng.below(4));
        Addr addr(0x10000000 + 32 * rng.below(1 << 13));
        ProbeResult probe = hier.probeData(addr, now);

        // A block cannot be both resident-with-data and in flight.
        ASSERT_FALSE(probe.resident && probe.inFlight);

        if (probe.resident) {
            hier.touchData(addr, rng.below(2) != 0);
        } else if (probe.inFlight) {
            // Fill completion must not be in the past beyond `now`
            // retirement: an in-flight report means ready > now is
            // possible but ready <= now must have been retired.
            ASSERT_GT(probe.ready, now);
        } else if (!const_cast<MshrFile &>(hier.dataMshrs())
                        .full(now)) {
            FillOutcome fill =
                hier.missToL2(addr, now, rng.below(4) == 0);
            ASSERT_FALSE(fill.mshrStall);
            // Data can never arrive before the L2 latency elapses.
            ASSERT_GE(fill.ready, now + hier.config().l2Latency);
            // After the fill completes, the block is a plain hit.
            ProbeResult later = hier.probeData(addr, fill.ready);
            ASSERT_TRUE(later.resident);
        }

        // MSHR occupancy can never exceed its capacity.
        ASSERT_LE(
            const_cast<MshrFile &>(hier.dataMshrs()).occupancy(now),
            hier.dataMshrs().capacity());
    }

    // Bus busy time cannot exceed the elapsed wall time plus one
    // maximal queued backlog (transactions are serial).
    ASSERT_GT(now, Cycle{});
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchyFuzzTest,
                         ::testing::Values(11u, 22u, 33u));

// ---------------------------------------------------------------- //
// Core drains any random well-formed trace
// ---------------------------------------------------------------- //

class RandomTrace : public TraceSource
{
  public:
    /** @p dense draws every access from 64 words, with sizes of 1,
     *  2, 4 or 8 bytes at unaligned offsets, so loads overlap older
     *  in-flight stores. */
    RandomTrace(uint64_t seed, uint64_t count, bool dense = false)
        : _rng(seed), _left(count), _dense(dense)
    {}

    bool
    next(MicroOp &op) override
    {
        if (_left == 0)
            return false;
        --_left;
        op = MicroOp{};
        op.pc = Addr(0x400000 + 4 * _rng.below(256));
        // Dense traces trade the divides, which would bound their
        // cycles, for more stores.
        const uint64_t kind = _rng.below(8);
        switch (_dense && kind == 4 ? 1 : kind) {
          case 0:
            op.op = OpClass::Load;
            op.dst = uint8_t(1 + _rng.below(30));
            op.src1 = uint8_t(1 + _rng.below(30));
            setAccess(op);
            break;
          case 1:
            op.op = OpClass::Store;
            op.src1 = uint8_t(1 + _rng.below(30));
            setAccess(op);
            break;
          case 2:
            op.op = OpClass::Branch;
            // Dense traces keep branches predictable, so the window
            // fills with the stores their loads alias.
            op.taken = !_dense && _rng.below(2) != 0;
            op.target = Addr(0x400000 + 4 * _rng.below(256));
            break;
          case 3:
            op.op = OpClass::FpMult;
            op.dst = uint8_t(1 + _rng.below(30));
            op.src1 = uint8_t(1 + _rng.below(30));
            op.src2 = uint8_t(1 + _rng.below(30));
            break;
          case 4:
            op.op = OpClass::IntDiv;
            op.dst = uint8_t(1 + _rng.below(30));
            break;
          default:
            op.op = OpClass::IntAlu;
            op.dst = uint8_t(1 + _rng.below(30));
            op.src1 = uint8_t(1 + _rng.below(30));
            break;
        }
        return true;
    }

  private:
    void
    setAccess(MicroOp &op)
    {
        if (!_dense) {
            op.effAddr = Addr(0x10000000 + 8 * _rng.below(1 << 16));
            return;
        }
        op.memSize = uint8_t(1u << _rng.below(4));
        op.effAddr = Addr(0x10000000 + _rng.below(64 * 8 - op.memSize + 1));
    }

    Xorshift64 _rng;
    uint64_t _left;
    bool _dense;
};

/** Run @p count random ops through a core with PSB under @p dis. */
CoreStats
runRandomCore(uint64_t seed, uint64_t count, DisambiguationMode dis,
              bool dense)
{
    MemoryHierarchy hier(quietMemory());
    SfmPredictor sfm;
    PredictorDirectedStreamBuffers psb(PsbConfig{}, sfm, hier);
    RandomTrace trace(seed, count, dense);
    CoreConfig cfg;
    cfg.disambiguation = dis;
    OoOCore core(cfg, hier, psb, trace);

    Cycle now{};
    while (core.tick(now)) {
        psb.tick(now);
        ++now;
        if (now >= Cycle{10'000'000}) {
            ADD_FAILURE() << "core failed to drain";
            break;
        }
    }
    return core.stats();
}

/** Accounting identities every drained core run must satisfy. */
void
expectCountsConsistent(const CoreStats &s, uint64_t count)
{
    EXPECT_EQ(s.instructions, count);
    EXPECT_EQ(s.l1dAccesses, s.l1dHits + s.l1dMisses);
    EXPECT_LE(s.l1dInFlight, s.l1dMisses);
    EXPECT_LE(s.mispredicts, s.branches);
    EXPECT_EQ(s.loadLatency.count(), s.loads);
    EXPECT_GT(s.ipc(), 0.0);
}

struct CoreFuzzParam
{
    uint64_t seed;
    DisambiguationMode dis;
};

class CoreFuzzTest : public ::testing::TestWithParam<CoreFuzzParam>
{
};

TEST_P(CoreFuzzTest, DrainsAndCountsExactly)
{
    const CoreFuzzParam param = GetParam();
    constexpr uint64_t count = 20000;
    expectCountsConsistent(
        runRandomCore(param.seed, count, param.dis, /*dense=*/false),
        count);
}

TEST(CoreFuzzTest, DenseAliasingCountsPinned)
{
    // Every load shares 64 words with the older stores in flight, so
    // store forwards, disambiguation waits and (Learned) ordering
    // violations are common. The exact counts pin which store each
    // load aliases and when it may issue, in every mode.
    struct Pin
    {
        DisambiguationMode dis;
        uint64_t cycles;
        uint64_t storeForwards;
        uint64_t orderViolations;
        uint64_t l1dMisses;
    };
    constexpr uint64_t count = 20000;
    const Pin pins[] = {
        // mode                          cycles  fwds  viol  misses
        {DisambiguationMode::Perfect, 5443, 408, 0, 17},
        {DisambiguationMode::None, 5459, 356, 0, 17},
        {DisambiguationMode::Learned, 5537, 387, 19, 17},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(disambiguationModeName(pin.dis));
        const CoreStats s = runRandomCore(7, count, pin.dis, /*dense=*/true);
        expectCountsConsistent(s, count);
        EXPECT_EQ(s.cycles, pin.cycles);
        EXPECT_EQ(s.storeForwards, pin.storeForwards);
        EXPECT_EQ(s.orderViolations, pin.orderViolations);
        EXPECT_EQ(s.l1dMisses, pin.l1dMisses);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModes, CoreFuzzTest,
    ::testing::Values(
        CoreFuzzParam{101, DisambiguationMode::Perfect},
        CoreFuzzParam{102, DisambiguationMode::None},
        CoreFuzzParam{103, DisambiguationMode::Learned},
        CoreFuzzParam{104, DisambiguationMode::Perfect},
        CoreFuzzParam{105, DisambiguationMode::Learned}),
    [](const auto &pinfo) {
        return std::string(disambiguationModeName(pinfo.param.dis)) +
               "_" + std::to_string(pinfo.param.seed);
    });

// ---------------------------------------------------------------- //
// Whole-simulator invariants, checked through the stats registry
// ---------------------------------------------------------------- //

struct RegistryFuzzParam
{
    const char *workload;
    uint64_t seed;
};

class RegistryInvariantTest
    : public ::testing::TestWithParam<RegistryFuzzParam>
{
};

TEST_P(RegistryInvariantTest, ExportedStatsAreArithmeticallyConsistent)
{
    const RegistryFuzzParam param = GetParam();
    auto trace = makeWorkload(param.workload, param.seed);
    SimConfig cfg = makePaperConfig(PaperConfig::ConfAllocPriority);
    cfg.warmupInstructions = 5000;
    cfg.maxInstructions = 20000;
    Simulator sim(cfg, *trace);
    sim.run();

    auto snap = sim.statsRegistry().snapshot();
    auto scalar = [&](const char *path) {
        auto it = snap.find(path);
        EXPECT_NE(it, snap.end()) << "missing stat " << path;
        return it != snap.end() ? it->second.scalar : 0;
    };

    // Every cache level: hits + misses == accesses.
    EXPECT_EQ(scalar("l1d.hits") + scalar("l1d.misses"),
              scalar("l1d.accesses"));
    EXPECT_EQ(scalar("l1i.hits") + scalar("l1i.misses"),
              scalar("l1i.accesses"));
    EXPECT_EQ(scalar("l2.hits") + scalar("l2.misses"),
              scalar("l2.accesses"));

    // Prefetcher: useful prefetches cannot exceed issued ones, and
    // allocation accounting must balance.
    EXPECT_LE(scalar("psb.used"), scalar("psb.issued"));
    EXPECT_LE(scalar("psb.hits_pending"), scalar("psb.hits"));
    EXPECT_EQ(scalar("psb.allocations") +
                  scalar("psb.allocations_filtered"),
              scalar("psb.allocation_requests"));

    // Stream-buffer priority counters saturate at the paper's ceiling
    // of 12, and the recorded peak can never undercut the live value.
    for (unsigned b = 0; b < cfg.psb.buffers.numBuffers; ++b) {
        std::string prefix = "psb.buffer" + std::to_string(b);
        uint64_t prio = scalar((prefix + ".priority").c_str());
        uint64_t peak = scalar((prefix + ".priority_peak").c_str());
        EXPECT_LE(prio, cfg.psb.buffers.priorityMax) << prefix;
        EXPECT_LE(peak, cfg.psb.buffers.priorityMax) << prefix;
        EXPECT_GE(peak, prio) << prefix;
    }

    // The derived ratios must agree with the raw counters they claim
    // to summarise.
    auto real = [&](const char *path) {
        auto it = snap.find(path);
        EXPECT_NE(it, snap.end()) << "missing stat " << path;
        return it != snap.end() ? it->second.asReal() : 0.0;
    };
    uint64_t l1dAccesses = scalar("l1d.accesses");
    if (l1dAccesses > 0) {
        // In-flight accesses are already counted inside l1d.misses.
        EXPECT_NEAR(real("l1d.miss_rate"),
                    double(scalar("l1d.misses")) / double(l1dAccesses),
                    1e-12);
    }
    uint64_t issued = scalar("psb.issued");
    if (issued > 0) {
        EXPECT_NEAR(real("psb.accuracy"),
                    double(scalar("psb.used")) / double(issued), 1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, RegistryInvariantTest,
    ::testing::Values(RegistryFuzzParam{"health", 7},
                      RegistryFuzzParam{"gs", 8},
                      RegistryFuzzParam{"turb3d", 9}),
    [](const auto &pinfo) {
        return std::string(pinfo.param.workload) + "_" +
               std::to_string(pinfo.param.seed);
    });

// ---------------------------------------------------------------- //
// Hot-path equivalence: the optimised implementations (branchless
// saturating counter, bitmask stream-buffer occupancy, event-driven
// fast-forward) must be indistinguishable from their naive reference
// models under random stimulus
// ---------------------------------------------------------------- //

TEST(SatCounterEquivalenceTest, BranchlessClampMatchesReferenceModel)
{
    for (uint64_t seed : {11u, 12u, 13u, 14u}) {
        Xorshift64 rng(seed);
        uint32_t max = 1 + uint32_t(rng.below(31));
        uint32_t initial = uint32_t(rng.below(max + 1));
        SatCounter ctr(max, initial);
        uint64_t ref = initial;
        for (int i = 0; i < 100'000; ++i) {
            uint32_t step = uint32_t(rng.below(5));
            if (rng.below(2) == 0) {
                ctr.increment(step);
                ref = std::min<uint64_t>(ref + step, max);
            } else {
                ctr.decrement(step);
                ref = ref > step ? ref - step : 0;
            }
            ASSERT_EQ(ctr.value(), ref)
                << "seed " << seed << " step " << i;
        }
    }
}

namespace
{

/** The pre-bitmask reference implementations: linear entry scans. */
int
refFreeEntry(const std::vector<SbEntry> &entries)
{
    for (size_t i = 0; i < entries.size(); ++i)
        if (!entries[i].valid)
            return int(i);
    return -1;
}

int
refPendingEntry(const std::vector<SbEntry> &entries)
{
    for (size_t i = 0; i < entries.size(); ++i)
        if (entries[i].valid && !entries[i].prefetched)
            return int(i);
    return -1;
}

int
refFindEntry(const std::vector<SbEntry> &entries, BlockAddr block)
{
    for (size_t i = 0; i < entries.size(); ++i)
        if (entries[i].valid && entries[i].block == block)
            return int(i);
    return -1;
}

} // namespace

TEST(StreamBufferEquivalenceTest, BitmaskOccupancyMatchesLinearScan)
{
    for (uint64_t seed : {21u, 22u, 23u}) {
        Xorshift64 rng(seed);
        StreamBufferConfig cfg;
        cfg.numBuffers = 1;
        StreamBufferFile file(cfg);
        const StreamBuffer &buf = file.buffer(0);
        StreamState state;
        state.lastAddr = BlockAddr{rng.below(64)};
        file.allocateStream(0, state, 3);
        for (int i = 0; i < 50'000; ++i) {
            switch (rng.below(8)) {
            case 0: { // fresh stream (resets all entries)
                state.lastAddr = BlockAddr{rng.below(64)};
                file.allocateStream(0, state, uint32_t(rng.below(13)));
                break;
            }
            case 1:
            case 2:
            case 3: { // install a prediction into the free slot
                int slot = buf.freeEntry();
                if (slot >= 0)
                    file.fillEntry(0, slot, BlockAddr{rng.below(64)});
                break;
            }
            case 4:
            case 5: { // issue the pending prefetch
                int slot = buf.pendingPrefetchEntry();
                if (slot >= 0)
                    file.markPrefetched(0, slot, Cycle{uint64_t(i)});
                break;
            }
            default: { // consume a random valid entry
                int slot =
                    refFindEntry(buf.entries(),
                                 BlockAddr{rng.below(64)});
                if (slot >= 0)
                    file.clearEntry(0, slot);
                break;
            }
            }
            const std::vector<SbEntry> &entries = buf.entries();
            ASSERT_EQ(buf.freeEntry(), refFreeEntry(entries));
            ASSERT_EQ(buf.pendingPrefetchEntry(),
                      refPendingEntry(entries));
            BlockAddr probe{rng.below(64)};
            ASSERT_EQ(buf.findEntry(probe),
                      refFindEntry(entries, probe));
        }
    }
}

// ---------------------------------------------------------------- //
// Fast-forward exactness: skipping provably idle cycles must leave
// every exported stat byte-identical (SimConfig::fastForward doc)
// ---------------------------------------------------------------- //

struct FastForwardParam
{
    const char *workload;
    PaperConfig config;
    uint64_t warmup = 5000;
    /** One config key applied on top of the paper machine, or none. */
    const char *key = nullptr;
    const char *value = nullptr;
    /** DTLB entries, when not the paper's 128 (no config key sets it). */
    unsigned tlbEntries = 0;
};

std::string
fastForwardLabel(const FastForwardParam &p)
{
    std::string label =
        std::string(p.workload) + "/" + paperConfigName(p.config);
    if (p.key)
        label += std::string(" ") + p.key + "=" + p.value;
    if (p.tlbEntries)
        label += " tlb=" + std::to_string(p.tlbEntries);
    return label;
}

// Without a printer gtest dumps the row's raw bytes, which hold
// per-process pointers, into the discovered ctest names.
void
PrintTo(const FastForwardParam &p, std::ostream *os)
{
    *os << fastForwardLabel(p);
}

class FastForwardEquivalenceTest
    : public ::testing::TestWithParam<FastForwardParam>
{
};

TEST_P(FastForwardEquivalenceTest, StatsJsonByteIdenticalOnOff)
{
    const FastForwardParam param = GetParam();
    auto runWith = [&](bool fast_forward) {
        auto trace = makeWorkload(param.workload);
        SimConfig cfg = makePaperConfig(param.config);
        if (param.key) {
            std::string error;
            EXPECT_TRUE(applyConfigKey(cfg, param.key, param.value, error))
                << error;
        }
        if (param.tlbEntries)
            cfg.memory.tlbEntries = param.tlbEntries;
        cfg.warmupInstructions = param.warmup;
        cfg.maxInstructions = 25000;
        cfg.fastForward = fast_forward;
        Simulator sim(cfg, *trace);
        sim.run();
        return sim.statsJson();
    };
    EXPECT_EQ(runWith(true), runWith(false));
}

// The first four rows are the original smoke set. The deltablue and
// hashjoin rows are where stalled predictor-port spans replay (a
// stride-0 or self-looping stream winning the port); hashjoin's probe
// phase, where its streams stall, starts after ~100k instructions of
// build, and under 2Miss-RR it reaches only the bus-capped retry.
// order=2 is the opted-out ContextPredictor, and the next four
// backends reach only the retry capped at the next free L1-L2 bus
// cycle. The gs/PCStride and logscan/ConfAlloc-Priority rows skip
// MSHR-full spans in which a prefetch lands on a stalled block, where
// the skip guard must stand down. The next four are the cells with the
// most MSHR-full retries: with fast-forward on they replay idle core
// cycles whose prefetcher tick cannot be skipped, and park their
// stalled accesses (fast-forward off parks nothing). The last five are
// parking's hard cases: Markov prefetches waking parked logscan loads
// (NextLine's row is above), the None and Learned disambiguation
// waits in front of a parked load, and graph under PCStride with an
// 8-entry DTLB, where prefetch translations evict parked pages.
INSTANTIATE_TEST_SUITE_P(
    WorkloadsAndConfigs, FastForwardEquivalenceTest,
    ::testing::Values(
        FastForwardParam{"health", PaperConfig::ConfAllocPriority},
        FastForwardParam{"gs", PaperConfig::Base},
        FastForwardParam{"turb3d", PaperConfig::PcStride},
        FastForwardParam{"burg", PaperConfig::TwoMissRR},
        FastForwardParam{"deltablue", PaperConfig::TwoMissRR},
        FastForwardParam{"deltablue", PaperConfig::ConfAllocRR},
        FastForwardParam{"deltablue", PaperConfig::ConfAllocPriority},
        FastForwardParam{"hashjoin", PaperConfig::TwoMissRR, 120000},
        FastForwardParam{"hashjoin", PaperConfig::ConfAllocRR, 120000},
        FastForwardParam{"hashjoin", PaperConfig::ConfAllocPriority,
                         120000},
        FastForwardParam{"deltablue", PaperConfig::ConfAllocPriority,
                         5000, "order", "2"},
        FastForwardParam{"sis", PaperConfig::Base, 5000, "prefetcher",
                         "sequential"},
        FastForwardParam{"logscan", PaperConfig::Base, 5000,
                         "prefetcher", "nextline"},
        FastForwardParam{"hashjoin", PaperConfig::Base, 5000,
                         "prefetcher", "markov"},
        FastForwardParam{"sis", PaperConfig::Base, 5000, "prefetcher",
                         "mindelta"},
        FastForwardParam{"gs", PaperConfig::PcStride},
        FastForwardParam{"logscan", PaperConfig::ConfAllocPriority},
        FastForwardParam{"gs", PaperConfig::ConfAllocPriority},
        FastForwardParam{"gs", PaperConfig::TwoMissRR},
        FastForwardParam{"logscan", PaperConfig::Base},
        FastForwardParam{"fuzz", PaperConfig::ConfAllocPriority},
        FastForwardParam{"logscan", PaperConfig::Base, 5000, "prefetcher",
                         "markov"},
        FastForwardParam{"logscan", PaperConfig::ConfAllocPriority, 5000,
                         "disambig", "none"},
        FastForwardParam{"logscan", PaperConfig::ConfAllocPriority, 5000,
                         "disambig", "learned"},
        FastForwardParam{"graph", PaperConfig::PcStride, 5000, nullptr,
                         nullptr, 8}),
    [](const auto &pinfo) {
        // gtest names must be alphanumeric; drop the '-' from labels
        // like "ConfAlloc-Priority".
        const FastForwardParam &p = pinfo.param;
        std::string name =
            std::string(p.workload) + "_" + paperConfigName(p.config);
        if (p.key)
            name += std::string("_") + p.key + "_" + p.value;
        if (p.tlbEntries)
            name += "_tlb" + std::to_string(p.tlbEntries);
        name.erase(std::remove(name.begin(), name.end(), '-'),
                   name.end());
        return name;
    });

} // namespace
} // namespace psb
