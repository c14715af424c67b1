/**
 * @file
 * Declarative sweep specifications for the psb-sweep CLI: one JSON
 * document describing a base machine configuration, the axes to
 * vary, the workloads (and seeds) to run them over, the default
 * worker count, and the tables psb-report renders from the results.
 * Example:
 *
 *   {
 *     "jobs": 8,
 *     "workloads": ["health", "burg"],
 *     "seeds": [1],
 *     "base": {"insts": 60000, "warmup": 20000, "prefetcher": "psb"},
 *     "axes": {"buffers": [4, 8], "l1d-kb": [16, 32]},
 *     "tables": [{
 *       "title": "IPC by buffer count at 16 KB",
 *       "average": true,
 *       "columns": [
 *         {"label": "4 buffers", "job": "buffers=4,l1d-kb=16",
 *          "stat": "core.ipc", "digits": 3},
 *         {"label": "8 vs 4", "job": "buffers=8,l1d-kb=16",
 *          "stat": "core.ipc", "vs": "buffers=4"}
 *       ]
 *     }]
 *   }
 *
 * expandSweepSpec() takes the cartesian product workloads x seeds x
 * axes (axes in spec order, values in spec order) into a flat job
 * list. Config keys are the psb-sim flag names (sim/config.hh
 * applyConfigKey); parsing is strict end to end — unknown top-level
 * sections, unknown config keys, duplicate JSON keys, and a key
 * appearing in both "base" and "axes" are all hard errors, and every
 * expanded configuration must pass SimConfig::validate().
 *
 * Job keys are "workload/seed=S/axis1=v1,axis2=v2" — unique by
 * construction, and the sort order of the merged document.
 *
 * Tables: one row per workload (in spec order; "rows" picks a
 * subset) and seed, plus an "average" row when asked. A column names
 * one job per row by assigning a value to every axis ("job"), reads
 * the first present of a comma list of stat paths ("stat"), and
 * prints it with "digits" decimals (default: the stat's source
 * spelling). With "vs" the cell is instead the percent speedup of
 * that stat over the job reached by substituting the given axis
 * values into "job" (digits default 1).
 */

#ifndef PSB_SIM_SWEEP_SPEC_HH
#define PSB_SIM_SWEEP_SPEC_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.hh"
#include "sim/sweep.hh"
#include "util/json.hh"

namespace psb
{

/** Axis key -> value token assignments, in spec axis order. */
using AxisAssignment = std::vector<std::pair<std::string, std::string>>;

/** One column of a spec table (see file comment). */
struct SweepTableColumn
{
    std::string label;
    AxisAssignment job;             ///< every axis, once
    std::vector<std::string> stats; ///< candidates; first present wins
    AxisAssignment vs;              ///< baseline job; empty = none
    int digits = -1;                ///< -1 = default (see file comment)
};

/** One table psb-report renders from a merged sweep document. */
struct SweepTable
{
    std::string title;
    std::vector<std::string> rows; ///< workloads, in row order
    bool average = false;
    std::vector<SweepTableColumn> columns;
};

/** Parsed but not yet expanded sweep description. */
struct SweepSpec
{
    unsigned jobs = 1; ///< default worker count (CLI --jobs overrides)
    std::vector<std::string> workloads;
    std::vector<uint64_t> seeds{1};
    /** Config key -> value token, in spec order. */
    std::vector<std::pair<std::string, std::string>> base;
    /** Axis key -> value tokens, in spec order. */
    std::vector<std::pair<std::string, std::vector<std::string>>> axes;
    std::vector<SweepTable> tables;
};

/**
 * Parse @p text as a sweep spec, strictly (see file comment).
 * @param error Human-readable message when returning false.
 */
bool parseSweepSpec(const std::string &text, SweepSpec &out,
                    std::string &error);

/** Same, from an already parsed document (a merged doc's "spec"). */
bool parseSweepSpec(const JsonValue &doc, SweepSpec &out,
                    std::string &error);

/** The job key for one workload, seed and axis assignment. */
std::string sweepJobKey(const std::string &workload, uint64_t seed,
                        const AxisAssignment &axes);

/** One fully resolved simulation the spec asks for. */
struct SweepRun
{
    std::string key; ///< unique job key (see file comment)
    std::string workload;
    uint64_t seed = 1;
    SimConfig cfg; ///< harmonize() already applied
};

/**
 * Expand the spec into the full job grid. Every run's configuration
 * goes through applyConfigKeys() — the key grammar plus
 * SimConfig::validate() — so one bad cell rejects the whole spec up
 * front instead of crashing its worker.
 * @param error Set when a key/value is rejected.
 */
bool expandSweepSpec(const SweepSpec &spec, std::vector<SweepRun> &out,
                     std::string &error);

/**
 * Wrap one run as an engine job: instantiate the workload and a
 * fully isolated Simulator + StatsRegistry on the worker thread, run
 * it, and return the deterministic flat stats JSON as the payload.
 */
SweepJob makeSimJob(const SweepRun &run);

} // namespace psb

#endif // PSB_SIM_SWEEP_SPEC_HH
