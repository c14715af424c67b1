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
#include <bit>
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
     * Which StreamBuffer stamp breaks a priority tie: the resource's
     * last-use stamp (&StreamBuffer::lastPredictStamp or
     * &StreamBuffer::lastPrefetchStamp). Lower = less recently used =
     * wins.
     */
    using TieStamp = uint64_t StreamBuffer::*;

    /**
     * Choose among the buffers in @p candidates (bit b = buffer b, as
     * StreamBufferFile::portCandidates() or pendingCandidates()).
     * Round-robin takes the first candidate after the pointer,
     * wrapping; Priority takes the highest counter, then the lowest
     * @p tie_stamp, then the lowest index.
     *
     * @return Winning buffer index, or -1 when no candidate exists.
     */
    PSB_HOT_PATH int
    pick(const StreamBufferFile &file, uint64_t candidates,
         TieStamp tie_stamp)
    {
        if (candidates == 0) {
            ++_noCandidate;
            return -1;
        }
        ++_grants;
        if (_policy == SchedPolicy::RoundRobin) {
            const uint64_t after = candidates & above(_rrPtr);
            _rrPtr = unsigned(std::countr_zero(after ? after : candidates));
            PSB_TRACE(Sched, "grant", int(_rrPtr), "resource=%s policy=rr",
                      _label);
            return int(_rrPtr);
        }

        unsigned best = unsigned(std::countr_zero(candidates));
        for (uint64_t m = candidates & (candidates - 1); m != 0;
             m &= m - 1) {
            const unsigned b = unsigned(std::countr_zero(m));
            const StreamBuffer &buf = file.buffer(b);
            const StreamBuffer &cur = file.buffer(best);
            if (buf.priority.value() > cur.priority.value() ||
                (buf.priority.value() == cur.priority.value() &&
                 buf.*tie_stamp < cur.*tie_stamp))
                best = b;
        }
        PSB_TRACE(Sched, "grant", int(best),
                  "resource=%s policy=priority priority=%u", _label,
                  file.buffer(best).priority.value());
        return int(best);
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
    std::span<const unsigned>
    winnerCycle(const StreamBufferFile &file, uint64_t candidates,
                TieStamp tie_stamp)
    {
        unsigned k = 0;
        if (_policy == SchedPolicy::RoundRobin) {
            // Candidates after the pointer, then from 0 to it.
            const uint64_t after = above(_rrPtr);
            for (uint64_t part : {candidates & after, candidates & ~after}) {
                for (; part != 0; part &= part - 1)
                    _cycle[k++] = unsigned(std::countr_zero(part));
            }
            return {_cycle.data(), k};
        }

        uint32_t top = 0;
        for (uint64_t m = candidates; m != 0; m &= m - 1) {
            const unsigned b = unsigned(std::countr_zero(m));
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
                  [&file, tie_stamp](unsigned a, unsigned b) {
                      return std::pair(file.buffer(a).*tie_stamp, a) <
                             std::pair(file.buffer(b).*tie_stamp, b);
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
    /** The bits strictly above bit @p b. */
    static uint64_t
    above(unsigned b)
    {
        return b + 1 < 64 ? ~uint64_t(0) << (b + 1) : 0;
    }

    SchedPolicy _policy;
    const char *_label;
    unsigned _rrPtr = 0;
    /** winnerCycle() scratch: one slot per buffer. */
    std::vector<unsigned> _cycle;
    uint64_t _grants = 0;
    uint64_t _noCandidate = 0;
};

} // namespace psb

#endif // PSB_PREFETCH_SCHEDULER_HH
