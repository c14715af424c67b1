/**
 * @file
 * Jouppi-style sequential stream buffers [19] (paper §3.3.2): every
 * miss allocates a buffer that prefetches consecutive cache blocks.
 * Expressed in the PSB framework as a NextBlockPredictor with the
 * Always allocation policy and round-robin arbitration. Kept as an
 * additional historical baseline and a thrashing demonstration for the
 * ablation benches (no allocation filter means high contention).
 */

#ifndef PSB_PREFETCH_SEQUENTIAL_STREAM_BUFFERS_HH
#define PSB_PREFETCH_SEQUENTIAL_STREAM_BUFFERS_HH

#include "core/psb.hh"
#include "predictors/last_address_predictor.hh"

namespace psb
{

/** Jouppi sequential stream buffers, with an optional 2-miss filter
 *  (Palacharla & Kessler's allocation filter [22]). */
class SequentialStreamBuffers : public Prefetcher
{
  public:
    SequentialStreamBuffers(const StreamBufferConfig &buffers,
                            MemoryHierarchy &hierarchy,
                            bool filtered = false);

    PrefetchLookup lookup(Addr addr, Cycle now) override;
    void trainLoad(Addr pc, Addr addr, bool l1_miss,
                   bool store_forwarded) override;
    void demandMiss(Addr pc, Addr addr, Cycle now) override;
    void tick(Cycle now) override;

    bool
    fastForwardTicks(Cycle from, uint64_t n) override
    {
        return _psb.fastForwardTicks(from, n);
    }

    bool
    lookupWouldHit(Addr addr) const override
    {
        return _psb.lookupWouldHit(addr);
    }

    void
    replayMissedLookups(uint64_t n) override
    {
        _psb.replayMissedLookups(n);
    }

    const PrefetcherStats &stats() const override;
    void resetStats() override { _psb.resetStats(); }

    /** The inner PSB owns the live attribution state. */
    void endOfSim(Cycle now) override { _psb.endOfSim(now); }

    /** Delegate to the inner PSB so per-buffer stats are exported. */
    void
    registerStats(StatsRegistry &reg,
                  const std::string &prefix) const override
    {
        _psb.registerStats(reg, prefix);
    }

  private:
    NextBlockPredictor _predictor;
    PredictorDirectedStreamBuffers _psb;
};

} // namespace psb

#endif // PSB_PREFETCH_SEQUENTIAL_STREAM_BUFFERS_HH
