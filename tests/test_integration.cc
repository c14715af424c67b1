/**
 * @file
 * End-to-end behavioural tests: the paper's headline claims on small
 * scripted traces, where ground truth is unambiguous.
 *
 *  - PSB follows a pointer chain and speeds it up; stride buffers
 *    cannot (the paper's Figure 5 story in miniature);
 *  - both follow a strided stream (the turb3d story);
 *  - confidence allocation resists stream thrashing where two-miss
 *    allocation churns (the sis story);
 *  - predictor ablation: SFM >= stride-only on pointer streams.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.hh"
#include "trace/synthetic_heap.hh"
#include "trace/trace_builder.hh"

namespace psb
{
namespace
{

/** Endless pointer chase over a fixed scattered node list. */
class ChaseTrace : public TraceBuilder
{
  public:
    ChaseTrace(unsigned nodes, unsigned scatter, uint64_t seed = 3)
    {
        SyntheticHeap heap(Addr{0x10000000}, scatter, seed);
        for (unsigned i = 0; i < nodes; ++i)
            _nodes.push_back(heap.alloc(48, 32));
    }

  protected:
    bool
    step() override
    {
        emitLoad(Addr{0x400000}, 1, _nodes[_pos], 1);
        emitAlu(Addr{0x400004}, 2, 1);
        emitAlu(Addr{0x400008}, 2, 2);
        emitBranch(Addr{0x40000c}, _pos + 1 < _nodes.size(),
                   Addr{0x400000}, 2);
        _pos = (_pos + 1) % _nodes.size();
        return true;
    }

  private:
    std::vector<Addr> _nodes;
    size_t _pos = 0;
};

/** Endless strided sweep. */
class StrideTrace : public TraceBuilder
{
  public:
    explicit StrideTrace(uint64_t footprint = 512 * 1024,
                         int64_t stride = 64)
        : _footprint(footprint), _stride(stride)
    {}

  protected:
    bool
    step() override
    {
        emitLoad(Addr{0x400000}, 1, Addr(0x20000000 + _off), 2);
        emitAlu(Addr{0x400004}, 2, 1);
        emitAlu(Addr{0x400008}, 2, 2);
        emitBranch(Addr{0x40000c}, true, Addr{0x400000}, 2);
        _off = uint64_t(int64_t(_off) + _stride) % _footprint;
        return true;
    }

  private:
    uint64_t _footprint;
    int64_t _stride;
    uint64_t _off = 0;
};

/**
 * Hot/cold stream mix, the stream-thrashing stressor: a few hot
 * stride streams that miss every few loads (and therefore hit their
 * buffers quickly), plus many cold streams whose allocation requests
 * keep trying to steal buffers. Naive two-miss allocation lets the
 * cold streams evict the hot ones; confidence allocation protects
 * buffers that are getting hits (paper §6, the sis discussion).
 */
class ManyStreamsTrace : public TraceBuilder
{
  public:
    ManyStreamsTrace(unsigned hot, unsigned cold)
        : _hotCursors(hot, 0), _coldCursors(cold, 0)
    {}

  protected:
    bool
    step() override
    {
        bool is_cold = (_step % 5 == 4);
        unsigned s;
        Addr base, pc;
        uint64_t *cursor;
        if (is_cold) {
            s = unsigned((_step / 5) % _coldCursors.size());
            base = Addr(0x30000000 + uint64_t(s) * 0x100000);
            pc = Addr(0x500000 + uint64_t(s) * 0x44);
            cursor = &_coldCursors[s];
        } else {
            s = unsigned(_step % _hotCursors.size());
            base = Addr(0x20000000 + uint64_t(s) * 0x100000);
            pc = Addr(0x400000 + uint64_t(s) * 0x44);
            cursor = &_hotCursors[s];
        }
        ++_step;
        emitLoad(pc, 1, base + *cursor, 2);
        emitAlu(pc + 4, 2, 1);
        emitBranch(pc + 8, true, pc, 2);
        *cursor = (*cursor + 32) % (256 * 1024);
        return true;
    }

  private:
    std::vector<uint64_t> _hotCursors;
    std::vector<uint64_t> _coldCursors;
    uint64_t _step = 0;
};

struct RunResult
{
    double ipc;
    double accuracy;
    uint64_t sbServiced;
    uint64_t allocations;
    uint64_t issued; ///< the attribution ledger's count
    PrefetcherStats prefetch;
};

/**
 * Simulate @p cfg over @p trace: the first @p instructions / 2 warm
 * up, then @p instructions are measured.
 */
RunResult
run(TraceBuilder &&trace, SimConfig cfg, uint64_t instructions = 120000)
{
    cfg.warmupInstructions = instructions / 2;
    cfg.maxInstructions = instructions;
    Simulator sim(cfg, trace);
    sim.run();
    const CoreStats &core = sim.core().stats();
    const Prefetcher &pf = sim.prefetcher();
    return RunResult{core.ipc(),
                     pf.accuracy(),
                     core.sbServiced,
                     pf.stats().allocations,
                     pf.attribution().issued(),
                     pf.stats()};
}

SimConfig
machine(PrefetcherKind kind)
{
    SimConfig cfg;
    cfg.prefetcher = kind;
    return cfg;
}

SimConfig
psbConfig(AllocPolicy alloc, SchedPolicy sched)
{
    SimConfig cfg = machine(PrefetcherKind::Psb);
    cfg.psb.alloc = alloc;
    cfg.psb.sched = sched;
    return cfg;
}

TEST(IntegrationTest, PsbFollowsPointerChainStrideBuffersCannot)
{
    // 900 scattered nodes: beyond the L1, within the Markov table.
    double base_ipc =
        run(ChaseTrace(900, 64), machine(PrefetcherKind::None)).ipc;
    double psb_ipc;
    {
        RunResult r = run(
            ChaseTrace(900, 64),
            psbConfig(AllocPolicy::Confidence, SchedPolicy::Priority));
        psb_ipc = r.ipc;
        EXPECT_GT(r.accuracy, 0.12);
        EXPECT_GT(r.sbServiced, 1000u);
    }
    double stride_ipc =
        run(ChaseTrace(900, 64), machine(PrefetcherKind::PcStride)).ipc;
    // The paper's headline claim: PSB speeds up the pointer chase.
    EXPECT_GT(psb_ipc, base_ipc * 1.08);
    // Stride buffers gain little to nothing here.
    EXPECT_GT(psb_ipc, stride_ipc * 1.05);
}

TEST(IntegrationTest, BothFollowStridedStreams)
{
    double base_ipc = run(StrideTrace(), machine(PrefetcherKind::None)).ipc;
    double psb_ipc =
        run(StrideTrace(),
            psbConfig(AllocPolicy::Confidence, SchedPolicy::Priority))
            .ipc;
    double stride_ipc =
        run(StrideTrace(), machine(PrefetcherKind::PcStride)).ipc;
    EXPECT_GT(stride_ipc, base_ipc * 1.15);
    EXPECT_GT(psb_ipc, base_ipc * 1.15);
    // And PSB is in PCStride's neighbourhood on FORTRAN-like code
    // (paper §6; the Markov table also learns line transitions, so
    // PSB may run slightly ahead).
    EXPECT_NEAR(psb_ipc / stride_ipc, 1.1, 0.4);
}

TEST(IntegrationTest, NegativeStrideStreamsFollowed)
{
    double base_ipc =
        run(StrideTrace(512 * 1024, -64), machine(PrefetcherKind::None))
            .ipc;
    double psb_ipc =
        run(StrideTrace(512 * 1024, -64),
            psbConfig(AllocPolicy::Confidence, SchedPolicy::Priority))
            .ipc;
    EXPECT_GT(psb_ipc, base_ipc * 1.1);
}

TEST(IntegrationTest, ConfidenceAllocationResistsThrashing)
{
    // 4 hot + 20 cold stride streams over 8 buffers.
    RunResult two_miss =
        run(ManyStreamsTrace(4, 20),
            psbConfig(AllocPolicy::TwoMiss, SchedPolicy::RoundRobin));
    RunResult conf =
        run(ManyStreamsTrace(4, 20),
            psbConfig(AllocPolicy::Confidence, SchedPolicy::Priority));
    // Confidence allocation reallocates noticeably less (it still
    // lets cold-but-predictable streams rotate through the low-priority
    // buffers, so the reduction is bounded)...
    EXPECT_LT(double(conf.allocations),
              0.75 * double(two_miss.allocations));
    // ...and turns more of its prefetches into hits.
    EXPECT_GT(conf.accuracy, two_miss.accuracy);
}

TEST(IntegrationTest, SfmBeatsStrideOnlyOnPointerCode)
{
    auto run_mode = [](SfmMode mode) {
        SimConfig cfg =
            psbConfig(AllocPolicy::Confidence, SchedPolicy::Priority);
        cfg.sfm.mode = mode;
        return run(ChaseTrace(900, 64), cfg);
    };
    RunResult full = run_mode(SfmMode::Sfm);
    RunResult stride_only = run_mode(SfmMode::StrideOnly);
    EXPECT_GT(full.sbServiced, stride_only.sbServiced + 500);
    EXPECT_GE(full.ipc, stride_only.ipc);
}

TEST(IntegrationTest, PrefetchingNeverBreaksCorrectnessInvariants)
{
    // Sanity over every policy combination on a mixed trace.
    for (AllocPolicy alloc : {AllocPolicy::TwoMiss,
                              AllocPolicy::Confidence,
                              AllocPolicy::Always}) {
        for (SchedPolicy sched :
             {SchedPolicy::RoundRobin, SchedPolicy::Priority}) {
            RunResult r =
                run(ChaseTrace(1000, 16), psbConfig(alloc, sched), 40000);
            EXPECT_GT(r.ipc, 0.0);
            const auto &s = r.prefetch;
            EXPECT_LE(s.hits, r.issued);
            EXPECT_LE(s.allocations + s.allocationsFiltered,
                      s.allocationRequests);
        }
    }
}

} // namespace
} // namespace psb
