/**
 * @file
 * PC-stride stream buffers — the Farkas et al. [13] design the paper
 * compares against ("PCStride"): each stream buffer is assigned a
 * fixed stride at allocation time from a PC-indexed two-delta stride
 * table, allocation is gated by the two-miss filter (two misses in a
 * row with identical strides), and arbitration is round-robin.
 *
 * The paper frames PSB as the generalisation of this design; we
 * implement it literally that way — a PredictorDirectedStreamBuffers
 * instance directed by FarkasStridePredictor, whose predictNext()
 * never consults a shared table: it just adds the stride captured in
 * the buffer at allocation ("when a stream buffer is allocated, it is
 * assigned a predicted stride to use to generate all of its prefetch
 * addresses", Figure 1).
 */

#ifndef PSB_PREFETCH_STRIDE_STREAM_BUFFERS_HH
#define PSB_PREFETCH_STRIDE_STREAM_BUFFERS_HH

#include <memory>

#include "core/psb.hh"
#include "predictors/address_predictor.hh"
#include "predictors/stride_table.hh"

namespace psb
{

/** The stride-only predictor behind Farkas-style stream buffers. */
class FarkasStridePredictor : public AddressPredictor
{
  public:
    explicit FarkasStridePredictor(const StrideTableConfig &cfg = {});

    void train(Addr pc, Addr addr) override;

    /** lastAddr + the stride fixed at allocation; no table access. */
    std::optional<BlockAddr>
    predictNext(StreamState &state) const override;

    /** Stalled exactly when the allocated stride is 0. */
    PredictFixedPoint
    fixedPoint(const StreamState &state) const override;

    StreamState allocateStream(Addr pc, Addr addr) const override;
    uint32_t confidence(Addr pc) const override;

    /** Farkas filter: two misses in a row with identical strides. */
    bool twoMissFilterPass(Addr pc, Addr addr) const override;

    const StrideTable &table() const { return _table; }

  private:
    StrideTableConfig _cfg;
    StrideTable _table;
};

/** Farkas et al. PC-stride stream buffers (paper's "PCStride"). */
class StrideStreamBuffers : public Prefetcher
{
  public:
    StrideStreamBuffers(const StreamBufferConfig &buffers,
                        const StrideTableConfig &table,
                        MemoryHierarchy &hierarchy);

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

    const FarkasStridePredictor &predictor() const { return _predictor; }

  private:
    FarkasStridePredictor _predictor;
    PredictorDirectedStreamBuffers _psb;
};

} // namespace psb

#endif // PSB_PREFETCH_STRIDE_STREAM_BUFFERS_HH
