/**
 * @file
 * The FIFO prefetch buffer beside the L1D that the two
 * demand-triggered prefetchers of paper §3.2 share: next-line (Smith
 * [31]) and one-shot Markov (Joseph & Grunwald [18]). A demand miss
 * queues predictions, replacing an invalid entry, else the FIFO-oldest
 * one; each cycle the L1-L2 bus is free the FIFO-oldest queued entry
 * issues; a lookup that matches an issued entry hits and frees it.
 */

#ifndef PSB_PREFETCH_FIFO_BUFFER_PREFETCHER_HH
#define PSB_PREFETCH_FIFO_BUFFER_PREFETCHER_HH

#include <array>

#include "memory/hierarchy.hh"
#include "prefetch/prefetcher.hh"

namespace psb
{

/** Demand-triggered prefetcher over a 16-entry FIFO prefetch buffer. */
class FifoBufferPrefetcher : public Prefetcher
{
  public:
    PrefetchLookup lookup(Addr addr, Cycle now) override;
    /** No training by default: only the demand misses drive it. */
    void trainLoad(Addr, Addr, bool, bool) override {}
    void tick(Cycle now) override;
    bool fastForwardTicks(Cycle from, uint64_t n) override;
    /** A queued entry becomes prefetched, the only change that
     *  turns a missing lookup into a hit, through
     *  MemoryHierarchy::prefetch() (tick()). */
    uint64_t hitEpoch() const override { return 1; }
    void replayMissedLookups(uint64_t n) override { _stats.lookups += n; }
    const PrefetcherStats &stats() const override { return _stats; }

    void
    resetStats() override
    {
        _stats = PrefetcherStats{};
        _attrib.resetStats();
    }

  protected:
    static constexpr unsigned kBufferEntries = 16;

    /** @param source The PredictionSource stamped on every issue. */
    FifoBufferPrefetcher(MemoryHierarchy &hierarchy,
                         PredictionSource source)
        : _hierarchy(hierarchy), _source(source)
    {
    }

    /** Start a demandMiss(): release the entries for @p addr's block
     *  whose prefetch never issued (late tag hits), count the
     *  allocation request, and return the block. */
    BlockAddr releaseLateTags(Addr addr);

    /** Queue @p block unless already queued or in flight; @p source
     *  is the block whose miss predicted it. */
    void enqueue(BlockAddr block, BlockAddr source);

    /** A prefetched entry predicted by the miss of block `source` was
     *  used, or (`used` false) replaced unused. */
    virtual void prefetchRetired(BlockAddr /*source*/, bool /*used*/) {}

    MemoryHierarchy &_hierarchy;
    PrefetcherStats _stats;

  private:
    struct BufEntry
    {
        BlockAddr block{};
        BlockAddr sourceBlock{}; ///< the miss that predicted this
        bool valid = false;
        bool prefetched = false;
        Cycle ready{};
        uint64_t fifoStamp = 0;
        uint64_t lineage = 0; ///< attribution id (0 until issued)
    };

    PredictionSource _source;
    std::array<BufEntry, kBufferEntries> _buffer{};
    uint64_t _stamp = 0;
};

} // namespace psb

#endif // PSB_PREFETCH_FIFO_BUFFER_PREFETCHER_HH
