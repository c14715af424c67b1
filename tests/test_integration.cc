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

#include "cpu/ooo_core.hh"
#include "memory/hierarchy.hh"
#include "core/psb.hh"
#include "predictors/sfm_predictor.hh"
#include "prefetch/stride_stream_buffers.hh"
#include "trace/synthetic_heap.hh"
#include "trace/trace_builder.hh"
#include "util/random.hh"

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
};

RunResult
run(TraceBuilder &trace, Prefetcher &pf, MemoryHierarchy &hier,
    uint64_t instructions = 120000)
{
    CoreConfig cfg;
    OoOCore core(cfg, hier, pf, trace);
    Cycle now{};
    while (core.stats().instructions < instructions / 2) {
        core.tick(now);
        pf.tick(now);
        ++now;
    }
    core.resetStats();
    pf.resetStats();
    while (core.stats().instructions < instructions) {
        core.tick(now);
        pf.tick(now);
        ++now;
    }
    return RunResult{core.stats().ipc(), pf.accuracy(),
                     core.stats().sbServiced, pf.stats().allocations};
}

PsbConfig
psbConfig(AllocPolicy alloc, SchedPolicy sched)
{
    PsbConfig cfg;
    cfg.alloc = alloc;
    cfg.sched = sched;
    return cfg;
}

TEST(IntegrationTest, PsbFollowsPointerChainStrideBuffersCannot)
{
    // 900 scattered nodes: beyond the L1, within the Markov table.
    double base_ipc, psb_ipc, stride_ipc;
    {
        ChaseTrace t(900, 64);
        MemoryHierarchy hier({});
        NullPrefetcher pf;
        base_ipc = run(t, pf, hier).ipc;
    }
    {
        ChaseTrace t(900, 64);
        MemoryHierarchy hier({});
        SfmPredictor sfm;
        PredictorDirectedStreamBuffers pf(
            psbConfig(AllocPolicy::Confidence, SchedPolicy::Priority),
            sfm, hier);
        RunResult r = run(t, pf, hier);
        psb_ipc = r.ipc;
        EXPECT_GT(r.accuracy, 0.12);
        EXPECT_GT(r.sbServiced, 1000u);
    }
    {
        ChaseTrace t(900, 64);
        MemoryHierarchy hier({});
        StrideStreamBuffers pf({}, {}, hier);
        stride_ipc = run(t, pf, hier).ipc;
    }
    // The paper's headline claim: PSB speeds up the pointer chase.
    EXPECT_GT(psb_ipc, base_ipc * 1.08);
    // Stride buffers gain little to nothing here.
    EXPECT_GT(psb_ipc, stride_ipc * 1.05);
}

TEST(IntegrationTest, BothFollowStridedStreams)
{
    double base_ipc, psb_ipc, stride_ipc;
    {
        StrideTrace t;
        MemoryHierarchy hier({});
        NullPrefetcher pf;
        base_ipc = run(t, pf, hier).ipc;
    }
    {
        StrideTrace t;
        MemoryHierarchy hier({});
        SfmPredictor sfm;
        PredictorDirectedStreamBuffers pf(
            psbConfig(AllocPolicy::Confidence, SchedPolicy::Priority),
            sfm, hier);
        psb_ipc = run(t, pf, hier).ipc;
    }
    {
        StrideTrace t;
        MemoryHierarchy hier({});
        StrideStreamBuffers pf({}, {}, hier);
        stride_ipc = run(t, pf, hier).ipc;
    }
    EXPECT_GT(stride_ipc, base_ipc * 1.15);
    EXPECT_GT(psb_ipc, base_ipc * 1.15);
    // And PSB is in PCStride's neighbourhood on FORTRAN-like code
    // (paper §6; the Markov table also learns line transitions, so
    // PSB may run slightly ahead).
    EXPECT_NEAR(psb_ipc / stride_ipc, 1.1, 0.4);
}

TEST(IntegrationTest, NegativeStrideStreamsFollowed)
{
    double base_ipc, psb_ipc;
    {
        StrideTrace t(512 * 1024, -64);
        MemoryHierarchy hier({});
        NullPrefetcher pf;
        base_ipc = run(t, pf, hier).ipc;
    }
    {
        StrideTrace t(512 * 1024, -64);
        MemoryHierarchy hier({});
        SfmPredictor sfm;
        PredictorDirectedStreamBuffers pf(
            psbConfig(AllocPolicy::Confidence, SchedPolicy::Priority),
            sfm, hier);
        psb_ipc = run(t, pf, hier).ipc;
    }
    EXPECT_GT(psb_ipc, base_ipc * 1.1);
}

TEST(IntegrationTest, ConfidenceAllocationResistsThrashing)
{
    // 4 hot + 20 cold stride streams over 8 buffers.
    RunResult two_miss, conf;
    {
        ManyStreamsTrace t(4, 20);
        MemoryHierarchy hier({});
        SfmPredictor sfm;
        PredictorDirectedStreamBuffers pf(
            psbConfig(AllocPolicy::TwoMiss, SchedPolicy::RoundRobin),
            sfm, hier);
        two_miss = run(t, pf, hier);
    }
    {
        ManyStreamsTrace t(4, 20);
        MemoryHierarchy hier({});
        SfmPredictor sfm;
        PredictorDirectedStreamBuffers pf(
            psbConfig(AllocPolicy::Confidence, SchedPolicy::Priority),
            sfm, hier);
        conf = run(t, pf, hier);
    }
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
        ChaseTrace t(900, 64);
        MemoryHierarchy hier({});
        SfmConfig cfg;
        cfg.mode = mode;
        SfmPredictor sfm(cfg);
        PredictorDirectedStreamBuffers pf(
            psbConfig(AllocPolicy::Confidence, SchedPolicy::Priority),
            sfm, hier);
        return run(t, pf, hier);
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
            ChaseTrace t(1000, 16);
            MemoryHierarchy hier({});
            SfmPredictor sfm;
            PredictorDirectedStreamBuffers pf(psbConfig(alloc, sched),
                                              sfm, hier);
            RunResult r = run(t, pf, hier, 40000);
            EXPECT_GT(r.ipc, 0.0);
            const auto &s = pf.stats();
            EXPECT_LE(s.hits, pf.attribution().issued());
            EXPECT_LE(s.allocations + s.allocationsFiltered,
                      s.allocationRequests);
        }
    }
}

} // namespace
} // namespace psb
