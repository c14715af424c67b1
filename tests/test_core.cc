/**
 * @file
 * Tests for the out-of-order core timing model, driven by small
 * scripted micro-op traces.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/ooo_core.hh"
#include "memory/hierarchy.hh"
#include "prefetch/prefetcher.hh"
#include "trace/trace_source.hh"
#include "util/random.hh"

namespace psb
{
namespace
{

/** Trace source over a fixed vector of ops. */
class VectorTrace : public TraceSource
{
  public:
    explicit VectorTrace(std::vector<MicroOp> ops) : _ops(std::move(ops))
    {}

    bool
    next(MicroOp &op) override
    {
        if (_pos >= _ops.size())
            return false;
        op = _ops[_pos++];
        return true;
    }

  private:
    std::vector<MicroOp> _ops;
    size_t _pos = 0;
};

/** Prefetcher spy recording training and demand misses. */
class SpyPrefetcher : public NullPrefetcher
{
  public:
    void
    trainLoad(Addr pc, Addr addr, bool miss, bool fwd) override
    {
        trains.push_back({pc, addr, miss, fwd});
    }

    void
    demandMiss(Addr pc, Addr, Cycle now) override
    {
        demandPcs.push_back(pc);
        demandCycles.push_back(now);
    }

    struct Train
    {
        Addr pc;
        Addr addr;
        bool miss;
        bool fwd;
    };
    std::vector<Train> trains;
    std::vector<Addr> demandPcs;
    std::vector<Cycle> demandCycles;
};

MicroOp
aluOp(Addr pc, uint8_t dst, uint8_t src1 = regNone,
      uint8_t src2 = regNone)
{
    MicroOp op;
    op.pc = pc;
    op.op = OpClass::IntAlu;
    op.dst = dst;
    op.src1 = src1;
    op.src2 = src2;
    return op;
}

MicroOp
loadOp(Addr pc, uint8_t dst, Addr addr, uint8_t base = regNone)
{
    MicroOp op;
    op.pc = pc;
    op.op = OpClass::Load;
    op.dst = dst;
    op.src1 = base;
    op.effAddr = addr;
    return op;
}

MicroOp
storeOp(Addr pc, Addr addr, uint8_t val = regNone)
{
    MicroOp op;
    op.pc = pc;
    op.op = OpClass::Store;
    op.src1 = val;
    op.effAddr = addr;
    return op;
}

MicroOp
branchOp(Addr pc, bool taken, Addr target)
{
    MicroOp op;
    op.pc = pc;
    op.op = OpClass::Branch;
    op.taken = taken;
    op.target = target;
    return op;
}

MemoryConfig
quietMemory()
{
    MemoryConfig cfg;
    cfg.tlbMissPenalty = CycleDelta{};
    return cfg;
}

/** Run a trace to completion; returns final stats. */
CoreStats
runTrace(std::vector<MicroOp> ops,
         CoreConfig core_cfg = CoreConfig{},
         Prefetcher *pf = nullptr)
{
    MemoryHierarchy hier(quietMemory());
    NullPrefetcher null_pf;
    VectorTrace trace(std::move(ops));
    OoOCore core(core_cfg, hier, pf ? *pf : null_pf, trace);
    Cycle now{};
    while (core.tick(now)) {
        if (pf)
            pf->tick(now);
        ++now;
        if (now > Cycle{2'000'000})
            ADD_FAILURE() << "core did not drain";
    }
    return core.stats();
}

TEST(CoreTest, DrainsAndCountsInstructions)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 100; ++i)
        ops.push_back(aluOp(Addr(0x1000 + 4 * i), regNone));
    CoreStats s = runTrace(ops);
    EXPECT_EQ(s.instructions, 100u);
    EXPECT_GT(s.cycles, 0u);
}

TEST(CoreTest, IndependentOpsReachHighIpc)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 40000; ++i)
        ops.push_back(aluOp(Addr(0x1000 + 4 * (i % 64)), regNone));
    CoreStats s = runTrace(ops);
    // 8-wide machine, no dependences: IPC should approach the width
    // (bounded by the 8 ALUs and fetch) once the cold instruction
    // misses at the start are amortised.
    EXPECT_GT(s.ipc(), 6.0);
}

TEST(CoreTest, DependenceChainSerialises)
{
    std::vector<MicroOp> ops;
    ops.push_back(aluOp(Addr{0x1000}, 1));
    for (int i = 0; i < 1000; ++i)
        ops.push_back(aluOp(Addr{0x1004}, 1, 1)); // r1 = f(r1)
    CoreStats s = runTrace(ops);
    // One op per cycle at best: IPC <= ~1.
    EXPECT_LE(s.ipc(), 1.2);
    EXPECT_GE(s.cycles, 1000u);
}

TEST(CoreTest, MultiCycleOpsRespectLatency)
{
    // A chain of dependent FP multiplies (4 cycles each).
    std::vector<MicroOp> ops;
    ops.push_back(aluOp(Addr{0x1000}, 1));
    for (int i = 0; i < 100; ++i) {
        MicroOp op = aluOp(Addr{0x1004}, 1, 1);
        op.op = OpClass::FpMult;
        ops.push_back(op);
    }
    CoreStats s = runTrace(ops);
    EXPECT_GE(s.cycles, 400u);
}

TEST(CoreTest, UnpipelinedDivideLimitsThroughput)
{
    // Independent divides: only 2 units, 12 cycles, unpipelined.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 50; ++i) {
        MicroOp op = aluOp(Addr(0x1000 + 4 * i), regNone);
        op.op = OpClass::IntDiv;
        ops.push_back(op);
    }
    CoreStats s = runTrace(ops);
    // 50 divides / 2 units * 12 cycles = 300 cycles minimum.
    EXPECT_GE(s.cycles, 300u);
}

TEST(CoreTest, OldestReadyOpsWinContendedUnits)
{
    // Three independent divides are ready in the same cycle and
    // compete for the two unpipelined MULT/DIV units. Oldest-first
    // issue gives the units to the two oldest; the youngest starts one
    // divide latency (12 cycles) later. A dependence chain hung off
    // each divide in turn shows which one waited.
    auto cycles_with_chain_on = [](uint8_t reg) {
        std::vector<MicroOp> ops;
        for (uint8_t r = 1; r <= 3; ++r) {
            MicroOp div = aluOp(Addr(0x1000 + 4 * r), r);
            div.op = OpClass::IntDiv;
            ops.push_back(div);
        }
        for (int i = 0; i < 40; ++i)
            ops.push_back(aluOp(Addr{0x1010}, reg, reg));
        return runTrace(ops).cycles;
    };
    uint64_t oldest = cycles_with_chain_on(1);
    EXPECT_EQ(cycles_with_chain_on(2), oldest);
    EXPECT_EQ(cycles_with_chain_on(3), oldest + 12);
}

TEST(CoreTest, MshrFullLoadRetriesEveryBlockedCycle)
{
    // One data MSHR: the second of two independent cold loads finds
    // it taken and retries each cycle until the first fill frees it.
    // Every retry is a full attempt, so a load blocked for k cycles
    // adds exactly k stall retries and k DTLB accesses.
    MemoryConfig mem = quietMemory();
    mem.l1dMshrs = 1;
    MemoryHierarchy hier(mem);
    SpyPrefetcher spy;
    VectorTrace trace({loadOp(Addr{0x1000}, 1, Addr{0x400000}),
                       loadOp(Addr{0x1004}, 2, Addr{0x800000})});
    OoOCore core(CoreConfig{}, hier, spy, trace);
    Cycle now{};
    while (core.tick(now))
        ++now;
    // demandMiss fires when each load finally issues; both were first
    // attempted in the older one's issue cycle.
    ASSERT_EQ(spy.demandCycles.size(), 2u);
    uint64_t blocked = (spy.demandCycles[1] - spy.demandCycles[0]).raw();
    EXPECT_GT(blocked, 100u); // a whole memory round trip
    EXPECT_EQ(core.stats().mshrStallRetries, blocked);
    EXPECT_EQ(hier.dtlb().accesses(), 2 + blocked);
}

TEST(CoreTest, LoadMissesAreSlowerThanHits)
{
    // Loads that revisit one block (hits after the first fill) vs
    // loads streaming over distinct blocks (all misses).
    std::vector<MicroOp> hit_ops, miss_ops;
    hit_ops.push_back(aluOp(Addr{0x0ffc}, 1));
    miss_ops.push_back(aluOp(Addr{0x0ffc}, 1));
    for (int i = 0; i < 200; ++i) {
        // Serialise through r1 so latency is exposed.
        hit_ops.push_back(loadOp(Addr{0x1000}, 1, Addr{0x100000}, 1));
        miss_ops.push_back(
            loadOp(Addr{0x1000}, 1, Addr(0x100000 + 4096u * i), 1));
    }
    CoreStats hit = runTrace(hit_ops);
    CoreStats miss = runTrace(miss_ops);
    EXPECT_LT(hit.cycles * 3, miss.cycles);
    EXPECT_GT(miss.loadLatency.mean(), 15.0);
    EXPECT_LT(hit.loadLatency.mean(), 3.0);
    EXPECT_GE(hit.l1dHits, 199u);
    EXPECT_GE(miss.l1dMisses, 200u);
}

TEST(CoreTest, StoreForwardingHasTwoCycleLatency)
{
    std::vector<MicroOp> ops;
    ops.push_back(aluOp(Addr{0x1000}, 2));
    ops.push_back(storeOp(Addr{0x1004}, Addr{0x200000}, 2));
    ops.push_back(loadOp(Addr{0x1008}, 1, Addr{0x200000}));
    CoreStats s = runTrace(ops);
    EXPECT_EQ(s.storeForwards, 1u);
    // The forwarded load never touches the cache.
    EXPECT_EQ(s.l1dMisses, 1u); // only the store's commit access
}

TEST(CoreTest, ForwardedLoadsNotTrained)
{
    SpyPrefetcher spy;
    std::vector<MicroOp> ops;
    ops.push_back(storeOp(Addr{0x1004}, Addr{0x200000}));
    ops.push_back(loadOp(Addr{0x1008}, 1, Addr{0x200000}));
    ops.push_back(loadOp(Addr{0x100c}, 2, Addr{0x300000}));
    runTrace(ops, CoreConfig{}, &spy);
    ASSERT_EQ(spy.trains.size(), 2u);
    EXPECT_TRUE(spy.trains[0].fwd);
    EXPECT_FALSE(spy.trains[1].fwd);
    EXPECT_TRUE(spy.trains[1].miss);
    // Only the real miss generated an allocation request.
    ASSERT_EQ(spy.demandPcs.size(), 1u);
    EXPECT_EQ(spy.demandPcs[0], Addr{0x100c});
}

TEST(CoreTest, NoDisambiguationDelaysIndependentLoads)
{
    // A store whose data depends on a long chain, followed by a load
    // to an unrelated address.
    auto build = [] {
        std::vector<MicroOp> ops;
        ops.push_back(aluOp(Addr{0x1000}, 1));
        for (int i = 0; i < 50; ++i) {
            MicroOp op = aluOp(Addr{0x1004}, 1, 1);
            op.op = OpClass::FpMult; // 4-cycle chain links
            ops.push_back(op);
        }
        ops.push_back(storeOp(Addr{0x1008}, Addr{0x200000}, 1));
        ops.push_back(loadOp(Addr{0x100c}, 2, Addr{0x300000}));
        // Consumer chain of the load to surface its latency.
        for (int i = 0; i < 20; ++i)
            ops.push_back(aluOp(Addr{0x1010}, 2, 2));
        return ops;
    };
    CoreConfig perfect;
    perfect.disambiguation = DisambiguationMode::Perfect;
    CoreConfig nodis;
    nodis.disambiguation = DisambiguationMode::None;
    CoreStats p = runTrace(build(), perfect);
    CoreStats n = runTrace(build(), nodis);
    // Under perfect store sets the load issues early and overlaps the
    // FP chain; without disambiguation it waits ~200 cycles.
    EXPECT_LT(p.cycles + 50, n.cycles);
}

TEST(CoreTest, AliasingLoadWaitsEvenWithPerfectStoreSets)
{
    auto build = [](Addr load_addr) {
        std::vector<MicroOp> ops;
        ops.push_back(aluOp(Addr{0x1000}, 1));
        for (int i = 0; i < 50; ++i) {
            MicroOp op = aluOp(Addr{0x1004}, 1, 1);
            op.op = OpClass::FpMult;
            ops.push_back(op);
        }
        ops.push_back(storeOp(Addr{0x1008}, Addr{0x200000}, 1));
        ops.push_back(loadOp(Addr{0x100c}, 2, load_addr));
        for (int i = 0; i < 60; ++i)
            ops.push_back(aluOp(Addr{0x1010}, 2, 2));
        return ops;
    };
    CoreConfig cfg;
    cfg.disambiguation = DisambiguationMode::Perfect;
    CoreStats independent = runTrace(build(Addr{0x300000}), cfg);
    CoreStats aliasing = runTrace(build(Addr{0x200000}), cfg);
    // The independent load overlaps the FP chain; the aliasing one
    // waits for the store, pushing its 60-op consumer chain past the
    // end of the FP chain.
    EXPECT_LT(independent.cycles + 40, aliasing.cycles);
    EXPECT_EQ(aliasing.storeForwards, 1u);
}

TEST(CoreTest, MispredictedBranchStallsFetch)
{
    // Alternating taken/not-taken branches on cold predictor state:
    // plenty of mispredicts, each an 8+ cycle fetch bubble.
    auto build = [](bool with_branches) {
        std::vector<MicroOp> ops;
        Xorshift64 rng(11);
        for (int i = 0; i < 400; ++i) {
            ops.push_back(aluOp(Addr(0x1000 + 4 * (i % 16)), regNone));
            if (with_branches && i % 4 == 3) {
                ops.push_back(branchOp(Addr(0x2000 + 4 * (i % 64)),
                                       rng.next() & 1, Addr{0x1000}));
            }
        }
        return ops;
    };
    CoreStats without = runTrace(build(false));
    CoreStats with = runTrace(build(true));
    EXPECT_GT(with.mispredicts, 10u);
    EXPECT_GT(with.cycles, without.cycles + 8 * with.mispredicts / 2);
}

TEST(CoreTest, InFlightMergeCountsAsMiss)
{
    // Two independent loads to the same cold block issued together:
    // the second merges into the first's fill and still counts as a
    // miss (the paper's definition).
    std::vector<MicroOp> ops;
    ops.push_back(loadOp(Addr{0x1000}, 1, Addr{0x400000}));
    ops.push_back(loadOp(Addr{0x1004}, 2, Addr{0x400008}));
    CoreStats s = runTrace(ops);
    EXPECT_EQ(s.l1dMisses, 2u);
    EXPECT_EQ(s.l1dInFlight, 1u);
}

TEST(CoreTest, RobCapacityRespected)
{
    // A long-latency load followed by far more ALU ops than ROB
    // entries: the core must not deadlock or reorder commits.
    std::vector<MicroOp> ops;
    ops.push_back(loadOp(Addr{0x1000}, 1, Addr{0x500000}));
    for (int i = 0; i < 1000; ++i)
        ops.push_back(aluOp(Addr(0x1004 + 4 * (i % 8)), regNone));
    CoreConfig cfg;
    cfg.robEntries = 16;
    CoreStats s = runTrace(ops, cfg);
    EXPECT_EQ(s.instructions, 1001u);
}

TEST(CoreTest, LsqCapacityRespected)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 300; ++i)
        ops.push_back(
            loadOp(Addr{0x1000}, regNone, Addr(0x600000 + 8 * i)));
    CoreConfig cfg;
    cfg.lsqEntries = 4;
    CoreStats s = runTrace(ops, cfg);
    EXPECT_EQ(s.instructions, 300u);
    EXPECT_EQ(s.loads, 300u);
}

TEST(CoreTest, StoresCommitInOrderAndAccessCache)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 50; ++i)
        ops.push_back(storeOp(Addr(0x1000 + 4 * (i % 4)),
                              Addr(0x700000 + 64 * i)));
    CoreStats s = runTrace(ops);
    EXPECT_EQ(s.stores, 50u);
    EXPECT_EQ(s.l1dAccesses, 50u);
    EXPECT_GE(s.l1dMisses, 50u); // all cold blocks
}

TEST(CoreTest, ResetStatsMidRun)
{
    MemoryHierarchy hier(quietMemory());
    NullPrefetcher pf;
    std::vector<MicroOp> ops;
    for (int i = 0; i < 200; ++i)
        ops.push_back(aluOp(Addr{0x1000}, regNone));
    VectorTrace trace(ops);
    OoOCore core(CoreConfig{}, hier, pf, trace);
    Cycle now{};
    while (core.stats().instructions < 100) {
        core.tick(now);
        ++now;
    }
    core.resetStats();
    while (core.tick(now))
        ++now;
    EXPECT_LE(core.stats().instructions, 100u);
    EXPECT_GT(core.stats().instructions, 0u);
}

} // namespace
} // namespace psb
