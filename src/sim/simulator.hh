/**
 * @file
 * The top-level simulator: assembles memory hierarchy, predictor,
 * prefetcher, and out-of-order core around a trace source, runs the
 * warm-up and measurement phases, and collects a SimResult with every
 * number the paper's tables and figures report.
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

/**
 * The headline numbers of one simulation.
 *
 * This is a thin copied-out view over the stats registry: every field
 * here is also registered under a stable dotted path (core.*, l1d.*,
 * l2.*, bus.*, the prefetcher's prefix, sim.*) and exported by
 * Simulator::statsJson(); the struct remains for psb-sim's text
 * report, the examples, and the tests that index fields directly.
 */
struct SimResult
{
    CoreStats core;
    HierarchyStats memory;
    PrefetcherStats prefetch;

    uint64_t tlbMisses = 0;

    double ipc = 0.0;
    double l1dMissRate = 0.0;       ///< in-flight counts as miss (§6)
    double avgLoadLatency = 0.0;    ///< Figure 8
    double prefetchAccuracy = 0.0;  ///< Figure 6
    double l1L2BusUtil = 0.0;       ///< Figure 9, left axis
    double l2MemBusUtil = 0.0;      ///< Figure 9, right axis
    double pctLoads = 0.0;          ///< Table 2
    double pctStores = 0.0;         ///< Table 2
};

/** See file comment. */
class Simulator
{
  public:
    /**
     * @param cfg Machine configuration (harmonize() is applied).
     * @param trace Instruction stream to execute (not owned).
     */
    Simulator(const SimConfig &cfg, TraceSource &trace);
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /**
     * Run warm-up (stats discarded) then the measurement region.
     * @return Aggregated results of the measurement region.
     */
    SimResult run();

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

  private:
    void resetAllStats();
    void buildStatsRegistry();

    /**
     * One simulated cycle: optional exact fast-forward, core tick,
     * prefetcher tick, clock advance. This is the per-cycle hot-path
     * root — everything reachable from here must satisfy R10–R12
     * (no allocation, no throw, devirtualizable dispatch).
     */
    PSB_HOT_PATH void stepCycle();

    void maybeFastForward();
    SimResult gather() const;

    SimConfig _cfg;
    StatsRegistry _registry;
    std::unique_ptr<MemoryHierarchy> _hierarchy;
    std::unique_ptr<AddressPredictor> _predictor; ///< PSB kind only
    std::unique_ptr<Prefetcher> _prefetcher;
    std::unique_ptr<OoOCore> _core;
    std::unique_ptr<IntervalStatsWriter> _intervalStats;
    Cycle _now{};
    uint64_t _steppedCycles = 0;
};

} // namespace psb

#endif // PSB_SIM_SIMULATOR_HH
