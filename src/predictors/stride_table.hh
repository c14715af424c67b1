/**
 * @file
 * PC-indexed two-delta stride table.
 *
 * This one structure serves three roles from the paper:
 *  1. the PC-stride predictor of Farkas et al. [13] that drives the
 *     baseline stride stream buffers (stride copied into the buffer at
 *     allocation, 2-miss allocation filter);
 *  2. the stride front half of the Stride-Filtered Markov predictor
 *     (§4.2) — addresses it predicts correctly are kept out of the
 *     Markov table;
 *  3. the home of the per-load accuracy confidence counter that guides
 *     PSB allocation (§4.3).
 *
 * Only loads that miss in the L1 data cache are entered, which is why
 * a small 256-entry 4-way table "captures all the critical loads that
 * miss" (§6). Addresses are tracked at cache-block granularity.
 */

#ifndef PSB_PREDICTORS_STRIDE_TABLE_HH
#define PSB_PREDICTORS_STRIDE_TABLE_HH

#include <cstdint>
#include <vector>

#include "trace/micro_op.hh"
#include "util/hot_path.hh"
#include "util/sat_counter.hh"

namespace psb
{

/** Configuration for the stride table. Defaults match the paper. */
struct StrideTableConfig
{
    unsigned entries = 256;
    unsigned assoc = 4;
    unsigned blockBytes = 32;       ///< prediction granularity
    uint32_t confidenceMax = 7;     ///< accuracy counter saturation

    bool operator==(const StrideTableConfig &) const = default;
};

/**
 * A two-delta stride entry: the predicted stride is replaced only when
 * a new stride has been seen twice in a row [12, 28].
 */
struct StrideEntry
{
    Addr pc{};
    BlockAddr lastAddr{};    ///< block of the last miss address
    BlockDelta lastStride{}; ///< most recent stride (blocks)
    BlockDelta stride2d{};   ///< two-delta (predicted) stride (blocks)
    SatCounter accuracy;     ///< SFM accuracy confidence (§4.3)
    /** Last two train() outcomes for the generalised 2-miss filter. */
    bool lastCorrect = false;
    bool prevCorrect = false;
    /** Farkas filter state: last two strides were identical. */
    bool strideRepeated = false;
    bool valid = false;
    uint64_t lastUse = 0;
};

/** Outcome of one training step, consumed by SfmPredictor. */
struct StrideTrainResult
{
    bool firstTouch = false;    ///< entry was just allocated
    BlockAddr prevAddr{};       ///< entry's lastAddr before this update
    BlockDelta observedStride{};
    bool stridePredicted = false; ///< two-delta stride was correct
};

/** Set-associative, LRU-replaced two-delta stride table. */
class StrideTable
{
  public:
    explicit StrideTable(const StrideTableConfig &cfg = {});

    /**
     * Record a miss of load @p pc at @p addr and advance the two-delta
     * state. Does not touch the accuracy counter — the owner decides
     * correctness (for SFM it also depends on the Markov table) and
     * calls recordOutcome().
     */
    StrideTrainResult train(Addr pc, Addr addr);

    /**
     * Update the accuracy confidence and 2-miss history of @p pc after
     * the owner determined whether its predictor combination would
     * have predicted this miss.
     */
    void recordOutcome(Addr pc, bool correct);

    /** Read-only lookup. @return nullptr when @p pc is not tracked. */
    PSB_HOT_PATH const StrideEntry *lookup(Addr pc) const;

    /** Predicted (two-delta) stride for @p pc, 0 when untracked. */
    BlockDelta predictedStride(Addr pc) const;

    /** Accuracy-confidence value for @p pc, 0 when untracked. */
    uint32_t confidence(Addr pc) const;

    /**
     * Farkas-style two-miss filter: the load missed at least twice in
     * a row with identical strides.
     */
    bool strideFilterPass(Addr pc) const;

    /**
     * PSB's generalised filter: the last two misses were both
     * predicted correctly (per recordOutcome()).
     */
    bool twoCorrectInARow(Addr pc) const;

    const StrideTableConfig &config() const { return _cfg; }

    /** log2 of the prediction granularity (cfg.blockBytes). */
    unsigned lineBits() const { return _lineBits; }

  private:
    StrideEntry *find(Addr pc);
    const StrideEntry *find(Addr pc) const;
    unsigned setOf(Addr pc) const;

    StrideTableConfig _cfg;
    unsigned _numSets;
    unsigned _lineBits;
    std::vector<StrideEntry> _entries;
    uint64_t _useStamp = 0;
};

} // namespace psb

#endif // PSB_PREDICTORS_STRIDE_TABLE_HH
