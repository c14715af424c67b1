#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <exception>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "util/json.hh"
#include "util/logging.hh"
#include "util/thread_annotations.hh"
#include "util/trace.hh"

namespace psb
{

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok:     return "ok";
      case JobStatus::Failed: return "failed";
    }
    return "unknown";
}

namespace
{

/*
 * The engine's only wall-clock access point. Wall time is control
 * plane — the progress line's duration — and must never reach a job
 * result or the merged document (DESIGN.md §10), which is why this
 * object is the R3 allowlist entry for steady_clock::now() in
 * tests/symbol_bans/check_symbol_bans.py.
 */
double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** State shared by the workers and the supervising caller thread. */
struct Pool
{
    Mutex mu;
    CondVar cv;
    /** Completed slot indices, FIFO, drained by the caller thread. */
    std::deque<size_t> done PSB_GUARDED_BY(mu);
    std::atomic<size_t> next{0};
};

/**
 * Per-job state. A slot is touched by exactly one worker at a time;
 * its duration is handed to the supervising thread under the pool
 * mutex, with the completion.
 */
struct JobSlot
{
    /// Set before any worker starts, const afterwards — the thread
    /// launch is the publication barrier, so no lock to name.
    Pool *pool = nullptr; // psb-analyze: allow(R8)
    /*
     * `job` and `result` follow the slot-ownership protocol instead
     * of a lock: the cursor hands each slot to exactly one worker,
     * and the caller reads `result` only once the slot is completed.
     * R8 is suppressed because no lock exists to name.
     */
    const SweepJob *job = nullptr; // psb-analyze: allow(R8)
    JobResult result; // psb-analyze: allow(R8)
    double seconds PSB_GUARDED_BY(pool->mu) = 0.0;
};

void
runOneJob(JobSlot &slot)
{
    JobResult &res = slot.result;
    res.key = slot.job->key;
    JobOutcome out;
    try {
        out = slot.job->run(JobContext{});
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    } catch (...) {
        out.ok = false;
        out.error = "unknown exception";
    }
    if (out.ok) {
        res.status = JobStatus::Ok;
        res.payload = std::move(out.payload);
    } else {
        res.status = JobStatus::Failed;
        res.error = out.error.empty() ? "job failed" : out.error;
    }
}

void
workerLoop(Pool &pool, std::vector<std::unique_ptr<JobSlot>> &slots)
{
    while (true) {
        size_t idx = pool.next.fetch_add(1, std::memory_order_relaxed);
        if (idx >= slots.size())
            return;
        JobSlot &slot = *slots[idx];
        double started = wallSeconds();
        runOneJob(slot);
        double seconds = wallSeconds() - started;
        {
            MutexLock lock(pool.mu);
            slot.seconds = seconds;
            pool.done.push_back(idx);
        }
        pool.cv.notifyOne();
    }
}

/**
 * Re-indent an embedded flat stats JSON document (as produced by
 * StatsRegistry::toJson()) so it nests under the per-job object:
 * every line after the first gets @p indent leading spaces.
 */
std::string
indentPayload(const std::string &payload, unsigned indent)
{
    std::string body = payload;
    while (!body.empty() && body.back() == '\n')
        body.pop_back();
    if (body.empty())
        return "{}";
    std::string pad(indent, ' ');
    std::string out;
    out.reserve(body.size() + 256);
    for (size_t i = 0; i < body.size(); ++i) {
        out.push_back(body[i]);
        if (body[i] == '\n')
            out += pad;
    }
    return out;
}

} // namespace

std::vector<JobResult>
SweepEngine::run(const std::vector<SweepJob> &jobs)
{
    {
        std::set<std::string> keys;
        for (const SweepJob &job : jobs) {
            if (!keys.insert(job.key).second)
                panic("sweep: duplicate job key '%s'", job.key.c_str());
            psb_assert(bool(job.run), "sweep job without a run fn");
        }
    }
    if (_opts.jobs > 1 && traceAnyEnabled()) {
        fatal("sweep: event tracing is process-global and cannot run "
              "under concurrent jobs; disable tracing or use 1 job");
    }

    Pool pool;
    std::vector<std::unique_ptr<JobSlot>> slots;
    slots.reserve(jobs.size());
    for (const SweepJob &job : jobs) {
        slots.push_back(std::make_unique<JobSlot>());
        slots.back()->pool = &pool;
        slots.back()->job = &job;
    }

    size_t nworkers = std::max<size_t>(
        1, std::min<size_t>(_opts.jobs, slots.size()));
    std::vector<std::thread> workers;
    workers.reserve(nworkers);
    for (size_t i = 0; i < nworkers; ++i) {
        workers.emplace_back(workerLoop, std::ref(pool),
                             std::ref(slots));
    }

    size_t completed = 0;
    {
        MutexLock lock(pool.mu);
        while (completed < slots.size()) {
            if (pool.done.empty()) {
                pool.cv.wait(pool.mu);
                continue;
            }
            size_t idx = pool.done.front();
            pool.done.pop_front();
            ++completed;
            if (_opts.progress != nullptr) {
                const JobSlot &slot = *slots[idx];
                char timing[32];
                std::snprintf(timing, sizeof(timing), "%.2fs",
                              slot.seconds);
                *_opts.progress
                    << "[" << completed << "/" << slots.size() << "] "
                    << slot.result.key << ": "
                    << jobStatusName(slot.result.status) << " ("
                    << timing << ")" << std::endl;
            }
        }
    }
    for (std::thread &w : workers)
        w.join();

    std::vector<JobResult> results;
    results.reserve(slots.size());
    for (auto &slot : slots)
        results.push_back(std::move(slot->result));
    std::sort(results.begin(), results.end(),
              [](const JobResult &a, const JobResult &b) {
                  return a.key < b.key;
              });
    return results;
}

std::string
SweepEngine::mergeStatsJson(const std::vector<JobResult> &results,
                            const std::string &spec)
{
    std::ostringstream out;
    out << "{\n";
    if (!spec.empty())
        out << "  \"spec\": " << indentPayload(spec, 2) << ",\n";
    out << "  \"jobs\": {";
    bool first = true;
    for (const JobResult &r : results) {
        out << (first ? "\n" : ",\n");
        first = false;
        out << "    \"" << escapeJson(r.key) << "\": {\n"
            << "      \"status\": \"" << jobStatusName(r.status)
            << "\",\n"
            << "      \"attempts\": 1,\n";
        if (r.status == JobStatus::Ok) {
            out << "      \"stats\": " << indentPayload(r.payload, 6);
        } else {
            out << "      \"error\": \"" << escapeJson(r.error)
                << "\"";
        }
        out << "\n    }";
    }
    out << "\n  }\n}\n";
    return out.str();
}

} // namespace psb
