/**
 * @file
 * The prefetcher interface the out-of-order core drives.
 *
 * The core looks the prefetcher up in parallel with the L1D on every
 * load (paper: "we assume the data cache lookup latency is the same as
 * the stream buffer lookup latency"), trains it in the write-back
 * stage, reports demand misses that also missed the buffers (the
 * allocation trigger), and ticks it once per cycle so it can make one
 * prediction and issue one prefetch when the L1-L2 bus is free.
 */

#ifndef PSB_PREFETCH_PREFETCHER_HH
#define PSB_PREFETCH_PREFETCHER_HH

#include <cstdint>
#include <string>

#include "prefetch/attribution.hh"
#include "trace/micro_op.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace psb
{

/** Result of looking an address up in the prefetcher's storage. */
struct PrefetchLookup
{
    bool hit = false;        ///< tag matched a prefetched block
    Cycle ready{};           ///< cycle the block's data is available
    bool dataPending = false;///< tag hit but the fill is still in flight
};

/** Statistics common to all prefetchers. */
struct PrefetcherStats
{
    uint64_t lookups = 0;
    uint64_t hits = 0;           ///< tag hits on prefetched data
    uint64_t hitsPending = 0;    ///< of which the data was in flight
    uint64_t lateTagHits = 0;    ///< tag matched a not-yet-issued entry
    uint64_t allocationRequests = 0;
    uint64_t allocations = 0;
    uint64_t allocationsFiltered = 0;
    uint64_t predictions = 0;
    uint64_t duplicateSuppressed = 0;
    uint64_t tlbTranslationsSkipped = 0; ///< §4.5 cached translations
};

/** Abstract hardware prefetcher sitting beside the L1 data cache. */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /**
     * Search the prefetch storage for the block containing @p addr, in
     * parallel with the L1D lookup. A hit frees the matching entry;
     * the caller is responsible for moving the block into the L1D
     * (MemoryHierarchy::fillFromStreamBuffer / registerInFlightFill).
     */
    virtual PrefetchLookup lookup(Addr addr, Cycle now) = 0;

    /**
     * Write-back-stage training for a committed load.
     *
     * @param pc The load's PC.
     * @param addr The load's effective address.
     * @param l1_miss The load missed in the L1D (prediction tables are
     *        trained on the miss stream only).
     * @param store_forwarded The load got its value from a store
     *        forward; such loads are never entered in the tables.
     */
    virtual void trainLoad(Addr pc, Addr addr, bool l1_miss,
                           bool store_forwarded) = 0;

    /**
     * A load missed both the L1D and the prefetcher: an allocation
     * request (and the aging event for priority counters).
     */
    virtual void demandMiss(Addr pc, Addr addr, Cycle now) = 0;

    /** Advance one cycle: predict and/or issue prefetches. */
    virtual void tick(Cycle now) = 0;

    /**
     * Replay @p n consecutive ticks [@p from, @p from + @p n) without
     * running them, for the simulator's event-driven fast-forward. An
     * implementation may return true ONLY when it can apply exactly
     * what ticking those cycles one by one would have done: every
     * state change, stamp and stat bump (scheduler no-candidate
     * counts, a stalled predictor port's grants and suppressed
     * duplicates), so a fast-forwarded run stays byte-identical to a
     * cycle-by-cycle run.
     *
     * A refusal (false) must change nothing at all: the simulator then
     * retries once with a shorter span, cut at the L1-L2 bus's next
     * free cycle, before ticking through normally. The conservative
     * default, which always refuses, is always correct.
     *
     * The contract holds because the core is quiescent over a skipped
     * span: no training or demand misses arrive, and the only lookups
     * are MSHR-stalled accesses re-attempted every cycle. Those are
     * skipped only while lookupWouldHit() says they miss, and arrive
     * afterwards as counted replays (replayMissedLookups()). So the
     * only inputs that change are the cycle number and bus occupancy,
     * and no replayed tick may change what a lookup would find.
     */
    virtual bool fastForwardTicks(Cycle from, uint64_t n)
    {
        (void)from;
        (void)n;
        return false;
    }

    /**
     * Side-effect-free preview of lookup(): would looking @p addr up
     * now hit? The core asks it for every MSHR-stalled access before
     * skipping the cycles that would repeat the lookup. The default
     * answers "yes", which is conservative: such spans then never
     * skip.
     */
    virtual bool
    lookupWouldHit(Addr addr) const
    {
        (void)addr;
        return true;
    }

    /**
     * Account @p n lookups that lookupWouldHit() previewed as misses,
     * made by skipped cycles. A missed lookup only counts itself.
     * Never called on an implementation that keeps the default
     * lookupWouldHit().
     */
    virtual void
    replayMissedLookups(uint64_t n)
    {
        (void)n;
        panic("replayMissedLookups() without a lookupWouldHit() preview");
    }

    virtual const PrefetcherStats &stats() const = 0;

    /** Zero the statistics (end-of-warm-up); state is kept. */
    virtual void resetStats() = 0;

    /**
     * End-of-simulation hook: settle every still-live prefetch to its
     * squashed/redundant terminal outcome and fatally check the
     * attribution conservation invariant (attribution.hh). Called by
     * Simulator::run() before the final interval-stats record so the
     * squash counters land inside the measured region. Wrapper
     * prefetchers forward to the implementation that owns the live
     * attribution state.
     */
    virtual void
    endOfSim(Cycle now)
    {
        _attrib.finalize(now);
    }

    /** Lifecycle attribution ledger (read-only; tests and reports). */
    const PrefetchAttribution &attribution() const { return _attrib; }

    /**
     * Paper Figure 6: prefetches used / prefetches made. A use is a
     * hit on prefetched data; the issue count is the ledger's.
     */
    double
    accuracy() const
    {
        uint64_t issued = _attrib.issued();
        return issued ? double(stats().hits) / double(issued) : 0.0;
    }

    /**
     * Register this prefetcher's stats under @p prefix. The default
     * registers the common PrefetcherStats counters by reading
     * stats() at snapshot time (`.used` is `.hits`), `.issued` from
     * the attribution ledger, `.accuracy` from accuracy(), and the
     * prefetch.attrib.* lifecycle subtree (a fixed path: the
     * simulator owns exactly one prefetcher per registry);
     * implementations with extra internal state (per-buffer counters,
     * schedulers) extend it.
     */
    virtual void
    registerStats(StatsRegistry &reg, const std::string &prefix) const
    {
        _attrib.registerStats(reg, "prefetch.attrib");
        reg.addScalar(prefix + ".lookups",
                      [this] { return stats().lookups; });
        reg.addScalar(prefix + ".hits", [this] { return stats().hits; });
        reg.addScalar(prefix + ".hits_pending",
                      [this] { return stats().hitsPending; });
        reg.addScalar(prefix + ".late_tag_hits",
                      [this] { return stats().lateTagHits; });
        reg.addScalar(prefix + ".issued",
                      [this] { return _attrib.issued(); });
        reg.addScalar(prefix + ".used", [this] { return stats().hits; });
        reg.addScalar(prefix + ".allocation_requests",
                      [this] { return stats().allocationRequests; });
        reg.addScalar(prefix + ".allocations",
                      [this] { return stats().allocations; });
        reg.addScalar(prefix + ".allocations_filtered",
                      [this] { return stats().allocationsFiltered; });
        reg.addScalar(prefix + ".predictions",
                      [this] { return stats().predictions; });
        reg.addScalar(prefix + ".duplicate_suppressed",
                      [this] { return stats().duplicateSuppressed; });
        reg.addScalar(prefix + ".tlb_translations_skipped",
                      [this] { return stats().tlbTranslationsSkipped; });
        reg.addReal(prefix + ".accuracy", [this] { return accuracy(); });
    }

  protected:
    /** Lifecycle ledger shared by every concrete prefetcher. */
    PrefetchAttribution _attrib;
};

/** The no-prefetching baseline. */
class NullPrefetcher : public Prefetcher
{
  public:
    PrefetchLookup
    lookup(Addr, Cycle) override
    {
        ++_stats.lookups;
        return {};
    }

    void trainLoad(Addr, Addr, bool, bool) override {}
    void demandMiss(Addr, Addr, Cycle) override {}
    void tick(Cycle) override {}
    bool fastForwardTicks(Cycle, uint64_t) override { return true; }
    bool lookupWouldHit(Addr) const override { return false; }
    void replayMissedLookups(uint64_t n) override { _stats.lookups += n; }
    const PrefetcherStats &stats() const override { return _stats; }

    void
    resetStats() override
    {
        _stats = PrefetcherStats{};
        _attrib.resetStats();
    }

  private:
    PrefetcherStats _stats;
};

} // namespace psb

#endif // PSB_PREFETCH_PREFETCHER_HH
