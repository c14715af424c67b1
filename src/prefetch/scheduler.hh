/**
 * @file
 * Stream-buffer arbitration (paper §4.4). The predictor port and the
 * L1-L2 bus are single resources contended for by up to eight buffers;
 * each cycle one buffer wins each resource, chosen either round-robin
 * (separate rotation pointers per resource) or by priority counter
 * (highest first, LRU breaking ties).
 */

#ifndef PSB_PREFETCH_SCHEDULER_HH
#define PSB_PREFETCH_SCHEDULER_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "prefetch/stream_buffer.hh"
#include "util/hot_path.hh"
#include "util/trace.hh"

namespace psb
{

class StatsRegistry;

/** Arbitration policy for the predictor port and prefetch bus slot. */
enum class SchedPolicy
{
    RoundRobin,
    Priority,
};

const char *schedPolicyName(SchedPolicy policy);

/**
 * Picks the stream buffer that wins one shared resource this cycle.
 * Instantiate one per resource so round-robin keeps independent
 * pointers ("a pointer is kept to the last stream buffer to perform a
 * prediction and another pointer for the last entry to issue a
 * prefetch").
 */
class BufferScheduler
{
  public:
    /** @param label Resource name for trace events ("predict"...). */
    BufferScheduler(SchedPolicy policy, unsigned num_buffers,
                    const char *label = "sched");

    /**
     * Choose among buffers for which @p candidate returns true.
     *
     * A template so the per-cycle call binds the caller's lambdas
     * directly (this is on the simulator's hottest path; going
     * through std::function showed up in profiles).
     *
     * @param file The stream-buffer file.
     * @param candidate Whether a buffer can use the resource now.
     * @param tie_stamp Last-use stamp for LRU tie-breaking under the
     *        priority policy (lower = less recently used = wins).
     * @return Winning buffer index, or -1 when no candidate exists.
     */
    template <typename CandidateFn, typename StampFn>
    PSB_HOT_PATH int
    pick(const StreamBufferFile &file, const CandidateFn &candidate,
         const StampFn &tie_stamp)
    {
        if (_policy == SchedPolicy::RoundRobin) {
            for (unsigned i = 1; i <= _numBuffers; ++i) {
                unsigned b = (_rrPtr + i) % _numBuffers;
                if (candidate(b)) {
                    _rrPtr = b;
                    ++_grants;
                    PSB_TRACE(Sched, "grant", int(b),
                              "resource=%s policy=rr", _label);
                    return int(b);
                }
            }
            ++_noCandidate;
            return -1;
        }

        // Priority: highest counter first, least-recently-used on
        // ties.
        int best = -1;
        for (unsigned b = 0; b < _numBuffers; ++b) {
            if (!candidate(b))
                continue;
            if (best < 0) {
                best = int(b);
                continue;
            }
            uint32_t pb = file.buffer(b).priority.value();
            uint32_t pbest =
                file.buffer(unsigned(best)).priority.value();
            if (pb > pbest ||
                (pb == pbest &&
                 tie_stamp(b) < tie_stamp(unsigned(best)))) {
                best = int(b);
            }
        }
        if (best >= 0) {
            ++_grants;
            PSB_TRACE(Sched, "grant", best,
                      "resource=%s policy=priority priority=%u", _label,
                      file.buffer(unsigned(best)).priority.value());
        } else {
            ++_noCandidate;
        }
        return best;
    }

    /**
     * Replay @p n picks that would each have found no candidate: the
     * fast-forward path's stand-in for calling pick() once per idle
     * cycle (round-robin pointers are untouched by empty picks).
     */
    void addNoCandidatePicks(uint64_t n) { _noCandidate += n; }

    /**
     * The buffers that win the next picks, in order: pick j of a run
     * goes to winnerCycle()[j % k], provided the candidate set and the
     * priority counters hold still and the caller restamps each winner
     * past all others (both PSB ports do). Round-robin rotates through
     * every candidate after the pointer; Priority rotates through the
     * top-priority candidates, least recently stamped first (ties:
     * lower index), and starves the rest. Arguments as for pick();
     * nothing observable changes.
     *
     * @return A view of scratch space sized at construction, valid
     *         until the next call; empty when no buffer is a candidate.
     */
    template <typename CandidateFn, typename StampFn>
    std::span<const unsigned>
    winnerCycle(const StreamBufferFile &file, const CandidateFn &candidate,
                const StampFn &tie_stamp)
    {
        unsigned k = 0;
        if (_policy == SchedPolicy::RoundRobin) {
            for (unsigned i = 1; i <= _numBuffers; ++i) {
                unsigned b = (_rrPtr + i) % _numBuffers;
                if (candidate(b))
                    _cycle[k++] = b;
            }
            return {_cycle.data(), k};
        }

        uint32_t top = 0;
        for (unsigned b = 0; b < _numBuffers; ++b) {
            if (!candidate(b))
                continue;
            uint32_t p = file.buffer(b).priority.value();
            if (k > 0 && p < top)
                continue;
            if (k == 0 || p > top) {
                top = p;
                k = 0;
            }
            _cycle[k++] = b;
        }
        std::sort(_cycle.begin(), _cycle.begin() + k,
                  [&tie_stamp](unsigned a, unsigned b) {
                      return std::pair(tie_stamp(a), a) <
                             std::pair(tie_stamp(b), b);
                  });
        return {_cycle.data(), k};
    }

    /**
     * Replay @p n consecutive picks along @p cycle (a non-empty
     * winnerCycle() result): n grants, and the round-robin pointer
     * left on the last winner.
     */
    void
    replayGrants(std::span<const unsigned> cycle, uint64_t n)
    {
        _grants += n;
        if (_policy == SchedPolicy::RoundRobin)
            _rrPtr = cycle[(n - 1) % cycle.size()];
    }

    SchedPolicy policy() const { return _policy; }

    /** The last round-robin winner (pick() starts after it). */
    unsigned rrPointer() const { return _rrPtr; }

    /** Arbitration outcomes: picks with and without a candidate. */
    uint64_t grants() const { return _grants; }
    uint64_t noCandidatePicks() const { return _noCandidate; }

    /** Zero the accounting (end-of-warm-up); pointers are kept. */
    void
    resetStats()
    {
        _grants = 0;
        _noCandidate = 0;
    }

    /** Register grants and no_candidate under @p prefix. */
    void registerStats(StatsRegistry &reg, const std::string &prefix) const;

  private:
    SchedPolicy _policy;
    unsigned _numBuffers;
    const char *_label;
    unsigned _rrPtr = 0;
    /** winnerCycle() scratch: one slot per buffer. */
    std::vector<unsigned> _cycle;
    uint64_t _grants = 0;
    uint64_t _noCandidate = 0;
};

} // namespace psb

#endif // PSB_PREFETCH_SCHEDULER_HH
