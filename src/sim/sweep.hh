/**
 * @file
 * Parallel sweep engine: a fixed-size worker-pool that runs N
 * independent jobs concurrently, each in full isolation (shared-
 * nothing; every simulation job owns its Simulator, StatsRegistry,
 * workload, and PRNG), with per-job cooperative timeout, bounded
 * retry-on-failure, and a progress line per completed job.
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
 * progress output. Timeouts are *cooperative*: the engine sets the
 * job's CancelToken when the deadline passes and the job is expected
 * to poll it at convenient points; simulation jobs terminate by
 * construction (bounded instruction count), so only misbehaving
 * test-injected jobs ever need the token. Wall-clock time is used
 * only for timeout control and progress display, never in any job
 * result (the R3 determinism rule's allow() markers in sweep.cc are
 * exactly these control-plane uses).
 *
 * Event tracing (util/trace.hh) is process-global and therefore
 * incompatible with concurrent jobs: run() refuses to start with more
 * than one worker while tracing is enabled.
 */

#ifndef PSB_SIM_SWEEP_HH
#define PSB_SIM_SWEEP_HH

#include <atomic>
#include <chrono>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace psb
{

/**
 * Cooperative cancellation flag shared between the engine (writer)
 * and one running job (reader). The only cross-thread state a job
 * ever sees.
 */
class CancelToken
{
  public:
    bool
    cancelled() const
    {
        return _flag.load(std::memory_order_acquire);
    }

    void
    cancel()
    {
        _flag.store(true, std::memory_order_release);
    }

  private:
    std::atomic<bool> _flag{false};
};

/** What the engine hands a job at the start of each attempt. */
struct JobContext
{
    const CancelToken *cancel = nullptr;
    unsigned attempt = 0; ///< 0 on the first try, 1 on first retry...

    /** Poll at convenient points; return promptly when set. */
    bool
    cancelled() const
    {
        return cancel != nullptr && cancel->cancelled();
    }
};

/** What one job attempt produces. */
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
    Ok,       ///< an attempt succeeded
    Failed,   ///< every attempt failed (or threw)
    TimedOut, ///< the deadline passed and the job honoured the token
};

const char *jobStatusName(JobStatus status);

/** Final per-job record, after retries. */
struct JobResult
{
    std::string key;
    JobStatus status = JobStatus::Failed;
    unsigned attempts = 0; ///< attempts actually made
    std::string payload;   ///< JobOutcome payload of the Ok attempt
    std::string error;     ///< last attempt's error when not Ok
};

/** Engine-wide knobs. */
struct SweepOptions
{
    unsigned jobs = 1;       ///< worker threads (min 1)
    unsigned maxRetries = 0; ///< extra attempts after a failure
    /** Per-job deadline; zero disables. Timeouts are not retried. */
    std::chrono::milliseconds timeout{0};
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
     * Run every job to completion (or timeout) and return one result
     * per job, sorted by key. Blocks the calling thread; reentrant
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
     * Failed jobs carry "error" instead of "stats". Byte-identical
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
