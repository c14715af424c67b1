/**
 * @file
 * NextBlockPredictor always predicts the next sequential cache block —
 * directing the PSB with it recovers Jouppi-style sequential stream
 * buffers inside the PSB framework (prefetch/
 * sequential_stream_buffers.hh), which the ablation benches use to
 * isolate the value of the SFM predictor from the value of the
 * confidence/priority machinery.
 *
 * It reuses StrideTable purely as per-PC bookkeeping (last address,
 * accuracy confidence, two-miss history) so it composes with PSB's
 * allocation filters exactly like the SFM predictor does.
 * examples/custom_predictor.cpp shows how to write a new predictor.
 */

#ifndef PSB_PREDICTORS_NEXT_BLOCK_PREDICTOR_HH
#define PSB_PREDICTORS_NEXT_BLOCK_PREDICTOR_HH

#include "predictors/address_predictor.hh"
#include "predictors/stride_table.hh"

namespace psb
{

/** Predicts last address + one cache block, always. */
class NextBlockPredictor : public AddressPredictor
{
  public:
    explicit NextBlockPredictor(unsigned block_bytes = 32,
                                const StrideTableConfig &table = {});

    void train(Addr pc, Addr addr) override;
    std::optional<BlockAddr>
    predictNext(StreamState &state) const override;
    StreamState allocateStream(Addr pc, Addr addr) const override;
    uint32_t confidence(Addr pc) const override;
    bool twoMissFilterPass(Addr pc, Addr addr) const override;

  private:
    unsigned _lineBits;
    StrideTable _table;
};

} // namespace psb

#endif // PSB_PREDICTORS_NEXT_BLOCK_PREDICTOR_HH
