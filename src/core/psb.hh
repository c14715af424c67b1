/**
 * @file
 * Predictor-Directed Stream Buffers — the paper's primary contribution
 * (§4).
 *
 * A PSB decouples stream following from any fixed stride: each stream
 * buffer carries *per-stream history* (StreamState) and one *shared,
 * stateless* address predictor generates the next prefetch address for
 * whichever buffer wins the single predictor port each cycle. The
 * prediction is written back into the stream's history so prediction n
 * follows from prediction n-1; the base of the recursion is the cache
 * miss that allocated the buffer. The predictor tables themselves are
 * updated only in the write-back stage on true L1D load misses.
 *
 * Lifecycle of a stream (paper §4.1):
 *  - Allocation: a load misses the L1D and every stream buffer. An
 *    allocation filter gates the allocation — either the generalised
 *    two-miss filter or accuracy-confidence thresholding (§4.3). On
 *    allocation the load's PC, current address, stride, and confidence
 *    are copied predictor -> buffer; the predictor is not modified.
 *  - Prediction: each cycle one buffer (round-robin or priority, §4.4)
 *    uses the predictor. The predicted block is searched in *all*
 *    buffers; a duplicate is dropped (history still advances), else it
 *    lands in a free entry marked ready-to-prefetch.
 *  - Prefetching: when the L1-L2 bus is free at the start of a cycle,
 *    one buffer (same two policies) issues its oldest unissued entry.
 *  - Lookup: loads search every entry of every buffer in parallel with
 *    the L1D. A hit moves the block to the L1D (or its tag into an
 *    MSHR when the fill is still in flight), frees the entry, and
 *    bumps the buffer's priority counter by 2.
 *  - Aging: every agingPeriod allocation requests, all priority
 *    counters decay by 1 so stale high-confidence streams can be
 *    reclaimed.
 */

#ifndef PSB_CORE_PSB_HH
#define PSB_CORE_PSB_HH

#include <cstdint>

#include "memory/hierarchy.hh"
#include "predictors/address_predictor.hh"
#include "prefetch/prefetcher.hh"
#include "prefetch/scheduler.hh"
#include "prefetch/stream_buffer.hh"
#include "util/hot_path.hh"

namespace psb
{

/** Allocation filter choice (paper §4.3). */
enum class AllocPolicy
{
    TwoMiss,    ///< two misses in a row, both correctly predictable
    Confidence, ///< accuracy-confidence threshold + priority contest
    Always,     ///< no filter: every miss allocates (Jouppi [19])
};

const char *allocPolicyName(AllocPolicy policy);

/** Full PSB configuration; defaults reproduce ConfAlloc-Priority. */
struct PsbConfig
{
    StreamBufferConfig buffers;
    AllocPolicy alloc = AllocPolicy::Confidence;
    SchedPolicy sched = SchedPolicy::Priority;

    bool operator==(const PsbConfig &) const = default;
};

/** See file comment. */
class PredictorDirectedStreamBuffers : public Prefetcher
{
  public:
    /**
     * @param cfg Buffer geometry and policies.
     * @param predictor The shared address predictor (not owned; any
     *        AddressPredictor can direct the buffers).
     * @param hierarchy The memory system prefetches are issued into.
     */
    PredictorDirectedStreamBuffers(const PsbConfig &cfg,
                                   AddressPredictor &predictor,
                                   MemoryHierarchy &hierarchy);

    PSB_HOT_PATH PrefetchLookup lookup(Addr addr, Cycle now) override;
    PSB_HOT_PATH void trainLoad(Addr pc, Addr addr, bool l1_miss,
                                bool store_forwarded) override;
    PSB_HOT_PATH void demandMiss(Addr pc, Addr addr, Cycle now) override;
    PSB_HOT_PATH void tick(Cycle now) override;

    /**
     * Fast-forward support: a span of ticks is replayable iff no
     * pending prefetch can reach a free L1-L2 bus cycle (so
     * issuePrefetch() either returns on the busy bus or counts a
     * no-candidate pick) and the predictor port is either idle or
     * held by stalled streams (replayStalledPort()). The replay applies
     * exactly the stamps and counter bumps those ticks would have; a
     * refusal changes nothing.
     */
    bool fastForwardTicks(Cycle from, uint64_t n) override;

    /** Every entry becomes prefetched through
     *  MemoryHierarchy::prefetch() (issuePrefetch()). */
    uint64_t hitEpoch() const override { return 1; }
    void replayMissedLookups(uint64_t n) override { _stats.lookups += n; }

    const PrefetcherStats &stats() const override { return _stats; }
    void resetStats() override;

    /**
     * Common prefetcher stats plus per-buffer telemetry
     * (prefix.bufferN.{priority,priority_peak,hits,stream_allocs,
     * allocated}) and the two arbitration schedulers
     * (prefix.sched.{predict,prefetch}.*).
     */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const override;

    const StreamBufferFile &bufferFile() const { return _file; }
    const BufferScheduler &predictScheduler() const { return _predictSched; }
    const PsbConfig &config() const { return _cfg; }

  private:
    PSB_HOT_PATH void makePrediction(Cycle now);
    /**
     * Replay @p n cycles whose predictor-port winners are all stalled
     * (AddressPredictor::fixedPoint()) on a block already in the file,
     * so each tick only restamps its winner and counts a suppressed
     * duplicate: O(buffers) grants, stamps and counters, no
     * allocation. Refuses, changing nothing, otherwise or while any
     * trace flag is on.
     */
    bool replayStalledPort(uint64_t n);
    PSB_HOT_PATH void issuePrefetch(Cycle now);
    bool tryAllocate(Addr pc, Addr addr);
    /** Settle evicted-unused terminals before @p buf is re-allocated. */
    void settleThrashedStream(const StreamBuffer &buf);

    PsbConfig _cfg;
    AddressPredictor &_predictor;
    MemoryHierarchy &_hierarchy;
    StreamBufferFile _file;
    BufferScheduler _predictSched;
    BufferScheduler _prefetchSched;
    unsigned _agingCountdown;
    PrefetcherStats _stats;
};

/**
 * The predictor of a stream-buffer design that owns one (PC-stride,
 * sequential, min-delta). The design lists it as a private base ahead
 * of PredictorDirectedStreamBuffers, so the predictor is built before
 * the PSB binds its reference to it.
 */
template <class Predictor>
struct PredictorOwner
{
    Predictor ownedPredictor;
};

} // namespace psb

#endif // PSB_CORE_PSB_HH
