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

/** Jouppi sequential stream buffers. */
class SequentialStreamBuffers final
    : private PredictorOwner<NextBlockPredictor>,
      public PredictorDirectedStreamBuffers
{
  public:
    SequentialStreamBuffers(const StreamBufferConfig &buffers,
                            MemoryHierarchy &hierarchy)
        : PredictorOwner{NextBlockPredictor(buffers.blockBytes)},
          PredictorDirectedStreamBuffers(
              PsbConfig{buffers, AllocPolicy::Always,
                        SchedPolicy::RoundRobin},
              ownedPredictor, hierarchy)
    {
    }
};

} // namespace psb

#endif // PSB_PREFETCH_SEQUENTIAL_STREAM_BUFFERS_HH
