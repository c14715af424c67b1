#include "sim/sweep.hh"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <exception>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "util/logging.hh"
#include "util/thread_annotations.hh"
#include "util/trace.hh"

namespace psb
{

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok:       return "ok";
      case JobStatus::Failed:   return "failed";
      case JobStatus::TimedOut: return "timed_out";
    }
    return "unknown";
}

namespace
{

/*
 * The engine's only wall-clock access point. Wall time is control
 * plane — timeout enforcement and progress display — and must never
 * reach a job result or the merged document (DESIGN.md §10), which is
 * why this object is the R3 allowlist entry for steady_clock::now() in
 * tests/symbol_bans/check_symbol_bans.py.
 */
using WallClock = std::chrono::steady_clock;
using WallTime = WallClock::time_point;

WallTime
nowWall()
{
    return WallClock::now();
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
 * the `running`/`deadline`/`started` control fields are additionally
 * guarded by the pool mutex because the supervising thread reads them
 * for timeout enforcement.
 */
struct JobSlot
{
    /// Set before any worker starts, const afterwards — the thread
    /// launch is the publication barrier, so no lock to name.
    Pool *pool = nullptr; // psb-analyze: allow(R8)
    /*
     * `job` and `result` follow the slot-ownership protocol instead
     * of a lock: the cursor hands each slot to exactly one worker,
     * and the caller reads `result` only after join(). R8 is
     * suppressed because no lock exists to name.
     */
    const SweepJob *job = nullptr; // psb-analyze: allow(R8)
    CancelToken cancel;
    JobResult result; // psb-analyze: allow(R8)
    bool running PSB_GUARDED_BY(pool->mu) = false;
    bool deadlineSet PSB_GUARDED_BY(pool->mu) = false;
    WallTime deadline PSB_GUARDED_BY(pool->mu) = {};
    WallTime started PSB_GUARDED_BY(pool->mu) = {};
};

void
runOneJob(JobSlot &slot, const SweepOptions &opts)
{
    JobResult &res = slot.result;
    res.key = slot.job->key;
    unsigned attempt = 0;
    while (true) {
        JobContext ctx{&slot.cancel, attempt};
        JobOutcome out;
        ++res.attempts;
        try {
            out = slot.job->run(ctx);
        } catch (const std::exception &e) {
            out.ok = false;
            out.error = e.what();
        } catch (...) {
            out.ok = false;
            out.error = "unknown exception";
        }
        // Completed work is never discarded: a success that raced the
        // deadline still counts (and keeps results timing-independent
        // whenever every job completes).
        if (out.ok) {
            res.status = JobStatus::Ok;
            res.payload = std::move(out.payload);
            res.error.clear();
            return;
        }
        if (slot.cancel.cancelled()) {
            res.status = JobStatus::TimedOut;
            res.error = "timed out after " +
                        std::to_string(opts.timeout.count()) + "ms";
            return;
        }
        res.status = JobStatus::Failed;
        res.error = out.error.empty() ? "job failed" : out.error;
        if (attempt >= opts.maxRetries)
            return;
        ++attempt;
    }
}

void
workerLoop(Pool &pool, std::vector<std::unique_ptr<JobSlot>> &slots,
           const SweepOptions &opts)
{
    while (true) {
        size_t idx = pool.next.fetch_add(1, std::memory_order_relaxed);
        if (idx >= slots.size())
            return;
        JobSlot &slot = *slots[idx];
        {
            MutexLock lock(pool.mu);
            slot.running = true;
            slot.started = nowWall();
            if (opts.timeout.count() > 0) {
                slot.deadline = slot.started + opts.timeout;
                slot.deadlineSet = true;
            }
        }
        runOneJob(slot, opts);
        {
            MutexLock lock(pool.mu);
            slot.running = false;
            pool.done.push_back(idx);
        }
        pool.cv.notifyOne();
    }
}

/** JSON string escaping for job keys and error messages. */
std::string
escapeJson(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              unsigned(static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
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
                             std::ref(slots), std::cref(_opts));
    }

    size_t completed = 0;
    {
        MutexLock lock(pool.mu);
        while (completed < slots.size()) {
            if (pool.done.empty()) {
                if (_opts.timeout.count() > 0) {
                    pool.cv.waitFor(pool.mu,
                                    std::chrono::milliseconds(10));
                    WallTime now = nowWall();
                    for (auto &slot : slots) {
                        if (slot->running && slot->deadlineSet &&
                            now >= slot->deadline &&
                            !slot->cancel.cancelled()) {
                            slot->cancel.cancel();
                        }
                    }
                } else {
                    pool.cv.wait(pool.mu);
                }
                continue;
            }
            size_t idx = pool.done.front();
            pool.done.pop_front();
            ++completed;
            if (_opts.progress != nullptr) {
                const JobSlot &slot = *slots[idx];
                double secs =
                    std::chrono::duration<double>(nowWall() -
                                                  slot.started)
                        .count();
                char timing[32];
                std::snprintf(timing, sizeof(timing), "%.2fs", secs);
                *_opts.progress
                    << "[" << completed << "/" << slots.size() << "] "
                    << slot.result.key << ": "
                    << jobStatusName(slot.result.status);
                if (slot.result.attempts > 1) {
                    *_opts.progress << " (attempts "
                                    << slot.result.attempts << ")";
                }
                *_opts.progress << " (" << timing << ")" << std::endl;
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
            << "      \"attempts\": " << r.attempts << ",\n";
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
