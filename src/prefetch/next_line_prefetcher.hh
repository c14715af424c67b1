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

#include "prefetch/fifo_buffer_prefetcher.hh"

namespace psb
{

/** Demand-triggered next-sequential-block prefetcher (degree 1). */
class NextLinePrefetcher final : public FifoBufferPrefetcher
{
  public:
    explicit NextLinePrefetcher(MemoryHierarchy &hierarchy)
        : FifoBufferPrefetcher(hierarchy, PredictionSource::NextLine)
    {
    }

    void
    demandMiss(Addr, Addr addr, Cycle) override
    {
        BlockAddr block = releaseLateTags(addr);
        ++_stats.predictions;
        enqueue(block + BlockDelta(1), block);
    }
};

} // namespace psb

#endif // PSB_PREFETCH_NEXT_LINE_PREFETCHER_HH
