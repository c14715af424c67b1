/**
 * @file
 * Consolidated run-report rendering for tools/psb-report.
 *
 * Ingests the observability documents the simulator family already
 * produces — a flat --stats-json dump, an --interval-stats JSONL
 * series, a psb-sweep merged document, and a golden stats file — and
 * renders one deterministic Markdown or HTML report:
 *
 *   - run summary (instructions, cycles, IPC, instruction mix, load
 *     latency, branches, memory-system totals, bus utilisation)
 *   - prefetch attribution: lifecycle outcome table, accuracy /
 *     coverage / timeliness, per-source breakdown, distance and
 *     lateness percentiles (DESIGN.md §13)
 *   - interval series summary with the telescoping check re-verified
 *     (deltas sum to the final stats; records numbered 0, 1, 2, ...,
 *     each starting where the previous one ended)
 *   - the tables a sweep spec declares (sim/sweep_spec.hh), rendered
 *     from the psb-sweep merged document — every paper figure is one
 *     such table — or, for a spec without tables, a per-cell sweep
 *     table (IPC + attribution accuracy per config)
 *   - golden-drift summary (added / removed / changed stats)
 *
 * Determinism contract: the output is a pure function of the input
 * documents — no timestamps, hostnames, or wall-clock facts; all maps
 * are sorted; parsed numbers are re-emitted with their source
 * spelling and derived values through fixed-precision formatting. Two
 * invocations over identical inputs are byte-identical (the report
 * ctest and CI job diff exactly this).
 */

#ifndef PSB_SIM_RUN_REPORT_HH
#define PSB_SIM_RUN_REPORT_HH

#include <string>

namespace psb
{

/** Raw input documents (file contents, not paths). Empty = absent. */
struct RunReportInputs
{
    std::string title;             ///< report heading (optional)
    std::string statsJson;         ///< --stats-json dump (see below)
    std::string intervalsJsonl;    ///< --interval-stats series
    std::string sweepJson;         ///< psb-sweep merged document
    std::string goldenJson;        ///< golden stats for drift summary
};

enum class ReportFormat
{
    Markdown,
    Html,
};

/**
 * Render the report for @p in as @p format into @p out.
 * The stats document is required unless a sweep document is given;
 * without it the run summary and attribution sections are omitted.
 * @retval false (with @p error set) when a provided document fails to
 *         parse; absent optional documents simply omit their section.
 */
bool renderRunReport(const RunReportInputs &in, ReportFormat format,
                     std::string &out, std::string &error);

} // namespace psb

#endif // PSB_SIM_RUN_REPORT_HH
