#include "sim/simulator.hh"

#include <algorithm>

#include "predictors/context_predictor.hh"
#include "prefetch/markov_prefetcher.hh"
#include "prefetch/min_delta_stream_buffers.hh"
#include "prefetch/next_line_prefetcher.hh"
#include "prefetch/sequential_stream_buffers.hh"
#include "prefetch/stride_stream_buffers.hh"
#include "util/alloc_guard.hh"
#include "util/logging.hh"
#include "util/trace.hh"

namespace psb
{

namespace
{

/** The Psb kind's built-in predictor: SFM, or order-k context. */
std::unique_ptr<AddressPredictor>
makePsbPredictor(const SimConfig &cfg)
{
    if (cfg.psbContextOrder == 0)
        return std::make_unique<SfmPredictor>(cfg.sfm);
    ContextConfig ctx;
    ctx.stride = cfg.sfm.stride;
    ctx.entries = cfg.sfm.markov.entries;
    ctx.historyLength = cfg.psbContextOrder;
    return std::make_unique<ContextPredictor>(ctx);
}

} // namespace

Simulator::Simulator(const SimConfig &cfg, TraceSource &trace)
    : Simulator(cfg, trace, nullptr)
{}

Simulator::Simulator(const SimConfig &cfg, TraceSource &trace,
                     AddressPredictor &predictor)
    : Simulator(cfg, trace, &predictor)
{}

Simulator::Simulator(const SimConfig &cfg, TraceSource &trace,
                     AddressPredictor *predictor)
    : _cfg(cfg), _predictor(predictor)
{
    _cfg.harmonize();
    if (_predictor && _cfg.prefetcher != PrefetcherKind::Psb) {
        fatal("a caller-built predictor needs PrefetcherKind::Psb, "
              "not %s",
              prefetcherKindName(_cfg.prefetcher));
    }
    _hierarchy = std::make_unique<MemoryHierarchy>(_cfg.memory);

    switch (_cfg.prefetcher) {
      case PrefetcherKind::None:
        _prefetcher = std::make_unique<NullPrefetcher>();
        break;
      case PrefetcherKind::PcStride:
        _prefetcher = std::make_unique<StrideStreamBuffers>(
            _cfg.psb.buffers, _cfg.stride, *_hierarchy);
        break;
      case PrefetcherKind::Psb:
        if (!_predictor) {
            _ownedPredictor = makePsbPredictor(_cfg);
            _predictor = _ownedPredictor.get();
        }
        _prefetcher = std::make_unique<PredictorDirectedStreamBuffers>(
            _cfg.psb, *_predictor, *_hierarchy);
        break;
      case PrefetcherKind::Sequential:
        _prefetcher = std::make_unique<SequentialStreamBuffers>(
            _cfg.psb.buffers, *_hierarchy);
        break;
      case PrefetcherKind::NextLine:
        _prefetcher = std::make_unique<NextLinePrefetcher>(*_hierarchy);
        break;
      case PrefetcherKind::MarkovDemand: {
        MarkovTableConfig table;
        table.blockBytes = _cfg.memory.l1d.blockBytes;
        _prefetcher = std::make_unique<MarkovPrefetcher>(*_hierarchy,
                                                         table);
        break;
      }
      case PrefetcherKind::MinDelta: {
        MinDeltaConfig table;
        table.blockBytes = _cfg.memory.l1d.blockBytes;
        _prefetcher = std::make_unique<MinDeltaStreamBuffers>(
            _cfg.psb.buffers, table, *_hierarchy);
        break;
      }
    }

    _core = std::make_unique<OoOCore>(_cfg.core, *_hierarchy,
                                      *_prefetcher, trace,
                                      _cfg.fastForward);
    buildStatsRegistry();
}

const char *
prefetcherStatsPrefix(PrefetcherKind kind)
{
    switch (kind) {
      case PrefetcherKind::None:         return "prefetcher";
      case PrefetcherKind::PcStride:     return "pcstride";
      case PrefetcherKind::Psb:          return "psb";
      case PrefetcherKind::Sequential:   return "seqsb";
      case PrefetcherKind::NextLine:     return "nextline";
      case PrefetcherKind::MarkovDemand: return "markov";
      case PrefetcherKind::MinDelta:     return "mindelta";
    }
    return "prefetcher";
}

void
Simulator::buildStatsRegistry()
{
    _core->registerStats(_registry);
    _hierarchy->registerStats(_registry);
    _prefetcher->registerStats(_registry,
                               prefetcherStatsPrefix(_cfg.prefetcher));
    if (_predictor)
        _predictor->registerStats(_registry, "sfm_predictor");

    // Cross-component derived values (Figure 9's bus utilisation,
    // Table 2's instruction mix).
    _registry.addReal("sim.l1_l2_bus_util", [this] {
        return ratio(_hierarchy->l1L2Bus().busyCycles(),
                     _core->stats().cycles);
    });
    _registry.addReal("sim.l2_mem_bus_util", [this] {
        return ratio(_hierarchy->l2MemBus().busyCycles(),
                     _core->stats().cycles);
    });
    _registry.addReal("sim.pct_loads", [this] {
        return percent(_core->stats().loads,
                       _core->stats().instructions);
    });
    _registry.addReal("sim.pct_stores", [this] {
        return percent(_core->stats().stores,
                       _core->stats().instructions);
    });
}

Simulator::~Simulator() = default;

void
Simulator::setIntervalStats(uint64_t period, std::ostream &out)
{
    _intervalStats =
        std::make_unique<IntervalStatsWriter>(_registry, period, out);
}

void
Simulator::resetAllStats()
{
    _core->resetStats();
    _hierarchy->resetStats();
    _prefetcher->resetStats();
    if (_predictor)
        _predictor->resetStats();
}

bool
Simulator::maybeFastForward()
{
    // Skip ahead to the core's next possible activity, provided the
    // prefetcher agrees the span is idle and replays its idle-cycle
    // counters (scheduler no-candidate picks, stalled predictor-port
    // grants). An idle core cycle only advances the cycle counter and
    // repeats the last tick's MSHR-full attempts, which the core
    // replays in closed form; nextWake() has already checked, before
    // anything below mutates, that the prefetcher's last tick left
    // those attempts unchanged. So the skip is exact: every stat and
    // every piece of architectural state matches the cycle-by-cycle
    // run (asserted by tests/test_properties.cc).
    Cycle wake = _core->nextWake();
    if (wake == Cycle::max() || wake <= _now)
        return false;
    CycleDelta span = wake - _now;
    if (_intervalStats && _intervalStats->started()) {
        // Land exactly on the interval boundary so the record's
        // "end" cycle matches the unskipped run.
        Cycle boundary = _intervalStats->nextBoundary();
        if (boundary <= _now)
            return true;
        span = std::min(span, boundary - _now);
    }
    if (!_prefetcher->fastForwardTicks(_now, span.raw())) {
        // Most refusals are a queued prefetch waiting for the L1-L2
        // bus. A refusal changes nothing (Prefetcher::fastForwardTicks
        // contract), so retry the stretch the bus stays busy, where no
        // prefetch can issue.
        CycleDelta busy = _hierarchy->l1L2Bus().busyFor(_now);
        if (busy == CycleDelta{} || busy >= span ||
            !_prefetcher->fastForwardTicks(_now, busy.raw()))
            return true;
        span = busy;
    }
    _core->skipIdleCycles(span.raw());
    _now += span;
    if (_intervalStats && _intervalStats->started()) {
        // Interval snapshots are an observability side-channel: they
        // allocate by design and pause the guard (static counterpart:
        // the allow() below keeps the writer out of the hot graph).
        PSB_ALLOC_GUARD_PAUSE();
        _intervalStats->tick(_now); // psb-analyze: allow(R10)
    }
    return _now < wake;
}

void
Simulator::stepCycle()
{
    // A cycle before the core's wake is idle by the nextWake()
    // contract even when the prefetcher would not let it be skipped:
    // replay the core's part in closed form and tick only the
    // prefetcher.
    const bool core_idle = _cfg.fastForward && maybeFastForward();
    PSB_TRACE_SET_NOW(_now);
    if (core_idle) {
        _core->skipIdleCycles(1);
        ++_replayedCycles; // psb-analyze: allow(R2)
    } else {
        _core->tick(_now);
    }
    _prefetcher->tick(_now);
    ++_now;
    // A work count, not a stat: registering it would make statsJson()
    // differ with fast-forward on and off (see steppedCycles()).
    ++_steppedCycles; // psb-analyze: allow(R2)
}

void
Simulator::run()
{
    while (!_core->done() &&
           _core->stats().instructions < _cfg.warmupInstructions)
        stepCycle();

    resetAllStats();
    if (_intervalStats)
        _intervalStats->start(_now);

    {
        // Steady state: the per-cycle hot path must not touch the
        // heap (rule R10). Under a PSB_ALLOC_GUARD build this scope,
        // armed via --assert-no-alloc, forbids every allocation; the
        // observability side-channels that
        // legitimately allocate (workload trace generation in
        // OoOCore::fetchStage, interval stats snapshots) sit inside
        // PSB_ALLOC_GUARD_PAUSE blocks. The scope closes before the
        // interval writer's final record, which is teardown, not
        // per-cycle work.
        PSB_NO_ALLOC_SCOPE("steady-state cycle loop");
        while (!_core->done() &&
               _core->stats().instructions < _cfg.maxInstructions) {
            stepCycle();
            if (_intervalStats) {
                PSB_ALLOC_GUARD_PAUSE();
                _intervalStats->tick(_now);
            }
        }

        // Settle prefetch attribution (squash still-live prefetches
        // and check the conservation invariant) BEFORE the final
        // interval record, so the squash counters land inside the
        // measured region and the interval deltas still telescope to
        // the final document. The settle path is per-cycle-class
        // work and stays inside the no-alloc scope.
        PSB_TRACE_SET_NOW(_now);
        _prefetcher->endOfSim(_now);
    }

    if (_intervalStats)
        _intervalStats->finish(_now);
}

} // namespace psb
