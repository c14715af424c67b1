/**
 * @file
 * Next-Line Prefetching (Smith [31]), the paper's §3.2 example of
 * demand-based prefetching: a cache miss triggers a prefetch of the
 * next sequential block. The original tagged-bit scheme marks cache
 * blocks; we model the equivalent behaviour with a small prefetch
 * buffer beside the L1D so the design composes with the same
 * Prefetcher interface the stream buffers use (the substitution is
 * noted in DESIGN.md).
 */

#ifndef PSB_PREFETCH_NEXT_LINE_PREFETCHER_HH
#define PSB_PREFETCH_NEXT_LINE_PREFETCHER_HH

#include <deque>
#include <vector>

#include "memory/hierarchy.hh"
#include "prefetch/prefetcher.hh"

namespace psb
{

/** Demand-triggered next-sequential-block prefetcher. */
class NextLinePrefetcher : public Prefetcher
{
  public:
    /**
     * @param buffer_entries Capacity of the FIFO prefetch buffer.
     * @param degree Sequential blocks prefetched per triggering miss.
     */
    NextLinePrefetcher(MemoryHierarchy &hierarchy,
                       unsigned buffer_entries = 16, unsigned degree = 1);

    PrefetchLookup lookup(Addr addr, Cycle now) override;
    void trainLoad(Addr pc, Addr addr, bool l1_miss,
                   bool store_forwarded) override;
    void demandMiss(Addr pc, Addr addr, Cycle now) override;
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

  private:
    struct BufEntry
    {
        BlockAddr block{};
        bool valid = false;
        bool prefetched = false;
        Cycle ready{};
        uint64_t fifoStamp = 0;
        uint64_t lineage = 0; ///< attribution id (0 until issued)
    };

    void enqueue(BlockAddr block);

    MemoryHierarchy &_hierarchy;
    unsigned _degree;
    std::vector<BufEntry> _buffer;
    uint64_t _stamp = 0;
    PrefetcherStats _stats;
};

} // namespace psb

#endif // PSB_PREFETCH_NEXT_LINE_PREFETCHER_HH
