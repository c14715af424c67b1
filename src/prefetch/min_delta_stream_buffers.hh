/**
 * @file
 * Palacharla & Kessler minimum-delta stream buffers [22] — the
 * address-indexed non-unit-stride detection scheme of paper §3.3.2:
 * memory is divided into chunks, each chunk tracks its recent miss
 * addresses, and a stream's stride is "the minimum signed difference
 * between the miss address and the past N miss addresses" of its
 * chunk; deltas smaller than an L1 block round up to one block with
 * the delta's sign. Allocation uses their filter (two consecutive
 * misses to the same chunk).
 *
 * The paper implemented this scheme and found it "uniformly
 * outperformed by the per-load stride detector of Farkas et al.", so
 * it reports only PC-stride results;
 * experiments/ablation-prefetchers.json reproduces that comparison.
 * Expressed, like the other stream-buffer designs, as a
 * PredictorDirectedStreamBuffers instance around a MinDeltaPredictor.
 */

#ifndef PSB_PREFETCH_MIN_DELTA_STREAM_BUFFERS_HH
#define PSB_PREFETCH_MIN_DELTA_STREAM_BUFFERS_HH

#include <cstdint>
#include <vector>

#include "core/psb.hh"
#include "predictors/address_predictor.hh"

namespace psb
{

/** Minimum-delta detection configuration. */
struct MinDeltaConfig
{
    unsigned chunkBytes = 4096;   ///< memory region per stride entry
    unsigned chunkTableEntries = 256; ///< power of two
    unsigned historyDepth = 4;    ///< N past miss addresses per chunk
    unsigned blockBytes = 32;
};

/** Address-region-indexed minimum-delta stride predictor. */
class MinDeltaPredictor : public AddressPredictor
{
  public:
    explicit MinDeltaPredictor(const MinDeltaConfig &cfg = {});

    void train(Addr pc, Addr addr) override;
    std::optional<BlockAddr>
    predictNext(StreamState &state) const override;
    StreamState allocateStream(Addr pc, Addr addr) const override;
    uint32_t confidence(Addr pc) const override;

    /** Palacharla-Kessler filter: two consecutive misses per chunk. */
    bool twoMissFilterPass(Addr pc, Addr addr) const override;

    /** Current minimum-delta stride for the chunk of @p addr. */
    int64_t strideFor(Addr addr) const;

  private:
    struct ChunkEntry
    {
        uint64_t chunk = 0;
        unsigned recentHead = 0;  ///< next write slot in the ring
        unsigned recentCount = 0; ///< valid ring entries (<= depth)
        unsigned consecutiveMisses = 0;
        int64_t stride = 0;
        bool valid = false;
    };

    unsigned indexOf(Addr addr) const;
    uint64_t chunkOf(Addr addr) const;

    MinDeltaConfig _cfg;
    unsigned _lineBits;
    std::vector<ChunkEntry> _chunks;
    /** Per-chunk miss-history rings, historyDepth slots each, laid
     *  out flat and sized once at construction so training (which
     *  runs on the per-cycle hot path) never touches the heap. */
    std::vector<Addr> _history;
    Addr _lastMissAddr{};
    bool _haveLastMiss = false;
    /** Chunk of the most recent trained miss (for the filter). */
    mutable uint64_t _lastChunk = ~uint64_t(0);
};

/** The Palacharla-Kessler stream-buffer design. */
class MinDeltaStreamBuffers final
    : private PredictorOwner<MinDeltaPredictor>,
      public PredictorDirectedStreamBuffers
{
  public:
    MinDeltaStreamBuffers(const StreamBufferConfig &buffers,
                          const MinDeltaConfig &table,
                          MemoryHierarchy &hierarchy)
        : PredictorOwner{MinDeltaPredictor(table)},
          PredictorDirectedStreamBuffers(
              PsbConfig{buffers, AllocPolicy::TwoMiss,
                        SchedPolicy::RoundRobin},
              ownedPredictor, hierarchy)
    {
    }
};

} // namespace psb

#endif // PSB_PREFETCH_MIN_DELTA_STREAM_BUFFERS_HH
