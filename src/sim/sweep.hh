/**
 * @file
 * Parallel sweep engine: a fixed-size worker-pool that runs N
 * independent jobs concurrently, each in full isolation (shared-
 * nothing; every simulation job owns its Simulator, StatsRegistry,
 * workload, and PRNG), exactly once each, with a progress line per
 * completed job.
 *
 * Determinism contract (DESIGN.md §10): a job's outcome is a pure
 * function of its own inputs, never of sibling jobs, worker count, or
 * completion order. run() returns results sorted by job key and
 * mergeStatsJson() renders them with the same sorted-key / %.17g
 * discipline as util/stats_json, so the merged document is
 * byte-identical at --jobs 1, 2, or 8 (the sweep_invariance ctest and
 * SweepEngineTest pin this down).
 *
 * Concurrency model: the worker threads share exactly three things —
 * an atomic next-job cursor, their own job slot (each slot touched by
 * one worker at a time), and a mutex-protected completion queue
 * drained by the calling thread, which is the only thread that writes
 * progress output. Wall-clock time is used only for the progress
 * line's duration, never in any job result (sweep.cc's
 * steady_clock::now() is the symbol_bans R3 allowlist entry).
 *
 * Event tracing (util/trace.hh) is process-global and therefore
 * incompatible with concurrent jobs: run() refuses to start with more
 * than one worker while tracing is enabled.
 */

#ifndef PSB_SIM_SWEEP_HH
#define PSB_SIM_SWEEP_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace psb
{

/**
 * What the engine hands a job: nothing. A job is a pure function of
 * the inputs its closure captured; the empty type keeps the job
 * signature that callers name.
 */
struct JobContext
{
};

/** What one job run produces. */
struct JobOutcome
{
    bool ok = false;
    std::string payload; ///< flat stats JSON for simulation jobs
    std::string error;   ///< deterministic message when !ok
};

/** One schedulable unit of work. */
struct SweepJob
{
    /**
     * Unique sort key; the merged document is ordered by it, which is
     * what makes the output independent of completion order.
     */
    std::string key;
    std::function<JobOutcome(const JobContext &)> run;
};

enum class JobStatus
{
    Ok,     ///< the job succeeded
    Failed, ///< the job failed (or threw)
};

const char *jobStatusName(JobStatus status);

/** Final per-job record. */
struct JobResult
{
    std::string key;
    JobStatus status = JobStatus::Failed;
    std::string payload; ///< JobOutcome payload when Ok
    std::string error;   ///< the job's error when not Ok
};

/** Engine-wide knobs. */
struct SweepOptions
{
    unsigned jobs = 1; ///< worker threads (min 1)
    /**
     * Progress sink ("[3/24] key: ok (0.41s)" per completion),
     * written only from the thread that called run(). Null = silent.
     */
    std::ostream *progress = nullptr;
};

/** See file comment. */
class SweepEngine
{
  public:
    explicit SweepEngine(SweepOptions opts) : _opts(opts) {}

    /**
     * Run every job once, to completion, and return one result per
     * job, sorted by key. Blocks the calling thread; reentrant
     * per engine instance is not supported (make a new engine).
     * Duplicate job keys are a caller bug and panic.
     */
    std::vector<JobResult> run(const std::vector<SweepJob> &jobs);

    /**
     * Render results (as returned by run(): sorted by key) as one
     * deterministic JSON document keyed by job key:
     *
     *   {
     *     "spec": { ...@p spec verbatim, when given... },
     *     "jobs": {
     *       "<key>": {
     *         "status": "ok",
     *         "attempts": 1,
     *         "stats": { ...the job's flat stats JSON... }
     *       },
     *       ...
     *     }
     *   }
     *
     * Failed jobs carry "error" instead of "stats". "attempts" is
     * always 1 (each job runs once); it stays so that merged
     * documents keep their shape. Byte-identical
     * for byte-identical results — no timestamps, durations, or host
     * facts are ever included. psb-sweep passes the spec text as
     * @p spec so psb-report can render the spec's tables from the
     * merged document alone.
     */
    static std::string mergeStatsJson(
        const std::vector<JobResult> &results,
        const std::string &spec = "");

  private:
    SweepOptions _opts;
};

} // namespace psb

#endif // PSB_SIM_SWEEP_HH
