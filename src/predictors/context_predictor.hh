/**
 * @file
 * Order-k context (Markov) predictor — paper §2.2.
 *
 * An order-k predictor indexes its transition table with a hash of the
 * last k (block) addresses instead of just the last one. The paper
 * simulated higher-order Markov predictors and the correlation
 * predictor of Bekerman et al. and "saw little to no improvement in
 * prediction accuracy and coverage over first order" for its
 * benchmarks; this class exists so experiments/ablation-order.json can
 * reproduce that claim inside the PSB framework.
 *
 * Implemented as a full AddressPredictor: a two-delta stride filter in
 * front (same as SFM) with an order-k hashed-history Markov table
 * behind it. With historyLength == 1 it degenerates to (a hashed-index
 * variant of) the SFM predictor.
 */

#ifndef PSB_PREDICTORS_CONTEXT_PREDICTOR_HH
#define PSB_PREDICTORS_CONTEXT_PREDICTOR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "predictors/address_predictor.hh"
#include "predictors/stride_table.hh"

namespace psb
{

/** Order-k context predictor configuration. */
struct ContextConfig
{
    StrideTableConfig stride;   ///< front-end filter (paper defaults)
    unsigned entries = 2048;    ///< transition-table entries (2^n)
    unsigned historyLength = 2; ///< k: addresses hashed into the index
    unsigned tagBits = 16;
};

/**
 * Per-stream history for the context predictor is the last k predicted
 * block addresses; they are packed into StreamState::lastAddr plus a
 * shadow history table indexed by a small stream id. To keep
 * StreamState predictor-agnostic (the paper stores "History" bits in
 * the buffer), the predictor maintains the shadow history internally,
 * keyed by the low bits of StreamState::loadPc combined with the
 * allocation address — see historySlot().
 */
class ContextPredictor : public AddressPredictor
{
  public:
    explicit ContextPredictor(const ContextConfig &cfg = {});

    void train(Addr pc, Addr addr) override;
    std::optional<BlockAddr>
    predictNext(StreamState &state) const override;
    StreamState allocateStream(Addr pc, Addr addr) const override;
    uint32_t confidence(Addr pc) const override;
    bool twoMissFilterPass(Addr pc, Addr addr) const override;

    uint64_t population() const;
    const ContextConfig &config() const { return _cfg; }

    /** Largest supported historyLength (the order k). */
    static constexpr unsigned maxHistory = 4;

  private:
    static constexpr unsigned numStreamSlots = 64;

    struct Entry
    {
        uint32_t tag = 0;
        BlockAddr next{};
        bool valid = false;
    };

    /** Rolling per-context history (training side). */
    struct History
    {
        std::array<BlockAddr, maxHistory> blocks{};
        unsigned filled = 0;
    };

    uint64_t hashHistory(const std::array<BlockAddr, maxHistory> &blocks,
                         unsigned filled) const;
    unsigned indexOf(uint64_t hash) const;
    uint32_t tagOf(uint64_t hash) const;
    BlockAddr blockOf(Addr addr) const;
    unsigned historySlot(const StreamState &state) const;

    ContextConfig _cfg;
    unsigned _lineBits;
    StrideTable _stride;
    std::vector<Entry> _entries;
    /** Training-side history per load PC (folded into 64 slots). */
    mutable std::array<History, numStreamSlots> _trainHistory{};
    /** Speculative per-stream history (prediction side). */
    mutable std::array<History, numStreamSlots> _streamHistory{};
    /** Stream-slot allocator for StreamState::historyToken. */
    mutable uint64_t _nextSlot = 0;
};

} // namespace psb

#endif // PSB_PREDICTORS_CONTEXT_PREDICTOR_HH
