/**
 * @file
 * The top-level simulator and the one loop that runs a whole
 * simulation: assembles memory hierarchy, predictor, prefetcher, and
 * out-of-order core around a trace source, then runs the warm-up and
 * measurement phases. Every number the paper's tables and figures
 * report is read afterwards from the stats registry (statsJson()),
 * or from the components' own stats.
 */

#ifndef PSB_SIM_SIMULATOR_HH
#define PSB_SIM_SIMULATOR_HH

#include <memory>
#include <string>

#include "sim/config.hh"
#include "sim/interval_stats.hh"
#include "trace/trace_source.hh"
#include "util/hot_path.hh"
#include "util/stats.hh"

namespace psb
{

/** Registry prefix of @p kind's own counters ("psb", "pcstride", ...). */
const char *prefetcherStatsPrefix(PrefetcherKind kind);

/** See file comment. */
class Simulator
{
  public:
    /**
     * @param cfg Machine configuration (harmonize() is applied).
     * @param trace Instruction stream to execute (not owned).
     */
    Simulator(const SimConfig &cfg, TraceSource &trace);

    /**
     * A PSB directed by a caller-built predictor (paper §7: any
     * address predictor can guide the prefetch stream). @p cfg must
     * select PrefetcherKind::Psb; any other kind is a fatal error.
     * @param predictor Directs the stream buffers (not owned).
     */
    Simulator(const SimConfig &cfg, TraceSource &trace,
              AddressPredictor &predictor);
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Run warm-up (stats discarded) then the measurement region. */
    void run();

    MemoryHierarchy &hierarchy() { return *_hierarchy; }
    Prefetcher &prefetcher() { return *_prefetcher; }
    OoOCore &core() { return *_core; }
    const SimConfig &config() const { return _cfg; }

    /** Every component's stats, registered at construction. */
    const StatsRegistry &statsRegistry() const { return _registry; }

    /**
     * Emit one interval-stats JSONL record to @p out every @p period
     * measured cycles (see sim/interval_stats.hh). Call before run();
     * @p out must outlive the run.
     */
    void setIntervalStats(uint64_t period, std::ostream &out);

    /**
     * Deterministic flat-JSON dump of every registered stat (sorted
     * keys, fixed float formatting). Byte-identical across runs with
     * the same configuration and seed.
     */
    std::string statsJson() const { return _registry.toJson(); }

    /**
     * Cycles run() has ticked one by one, warm-up included; the rest
     * of the run was fast-forwarded. A work count for tests and
     * profiles, deliberately kept out of the stats registry so
     * statsJson() is the same with fast-forward on and off.
     */
    uint64_t steppedCycles() const { return _steppedCycles; }

    /**
     * Of the stepped cycles, those whose core tick was replayed in
     * closed form (OoOCore::skipIdleCycles(1)) because nextWake()
     * proved the core idle but the prefetcher's tick could not be
     * skipped. A work count, like steppedCycles(); the core's retry
     * counts are OoOCore::memoRetries() and fullRetries().
     */
    uint64_t replayedCycles() const { return _replayedCycles; }

  private:
    Simulator(const SimConfig &cfg, TraceSource &trace,
              AddressPredictor *predictor);

    void resetAllStats();
    void buildStatsRegistry();

    /**
     * One simulated cycle: optional exact fast-forward, core tick,
     * prefetcher tick, clock advance. This is the per-cycle hot-path
     * root — everything reachable from here must satisfy R10–R12
     * (no allocation, no throw, devirtualizable dispatch).
     */
    PSB_HOT_PATH void stepCycle();

    /**
     * Fast-forward as far as the core and the prefetcher allow.
     * @retval true when the core is still idle at the cycle reached
     *         (nextWake() is later), so its tick may be replayed.
     */
    bool maybeFastForward();

    SimConfig _cfg;
    StatsRegistry _registry;
    std::unique_ptr<MemoryHierarchy> _hierarchy;
    std::unique_ptr<AddressPredictor> _ownedPredictor; ///< built-in one
    AddressPredictor *_predictor = nullptr; ///< PSB kind only
    std::unique_ptr<Prefetcher> _prefetcher;
    std::unique_ptr<OoOCore> _core;
    std::unique_ptr<IntervalStatsWriter> _intervalStats;
    Cycle _now{};
    uint64_t _steppedCycles = 0;
    uint64_t _replayedCycles = 0;
};

} // namespace psb

#endif // PSB_SIM_SIMULATOR_HH
