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
class StrideStreamBuffers final
    : private PredictorOwner<FarkasStridePredictor>,
      public PredictorDirectedStreamBuffers
{
  public:
    StrideStreamBuffers(const StreamBufferConfig &buffers,
                        const StrideTableConfig &table,
                        MemoryHierarchy &hierarchy)
        : PredictorOwner{FarkasStridePredictor(table)},
          PredictorDirectedStreamBuffers(
              PsbConfig{buffers, AllocPolicy::TwoMiss,
                        SchedPolicy::RoundRobin},
              ownedPredictor, hierarchy)
    {
    }
};

} // namespace psb

#endif // PSB_PREFETCH_STRIDE_STREAM_BUFFERS_HH
