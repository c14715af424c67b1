/**
 * @file
 * Stride-Filtered Markov (SFM) predictor, the paper's §4.2: a PC-indexed
 * two-delta stride table in front of a differential Markov table.
 *
 * Update (write-back stage, L1D load misses only, store-forwarded loads
 * excluded): the load's PC indexes the stride table; if the observed
 * stride matches neither the last stride nor the two-delta stride, the
 * last-address -> current-address transition is recorded in the Markov
 * table. The stride table thus *filters* stride-predictable transitions
 * out of the Markov table, leaving its 2K entries for pointer behaviour.
 *
 * Prediction (per stream, stateless w.r.t. the tables): look the
 * stream's last address up in the Markov table; on a hit the Markov
 * target is the next prefetch address, otherwise last address + the
 * stride assigned at allocation (Figure 3).
 *
 * The accuracy-confidence counter (saturating at 7) lives with the
 * stride entry and counts whether the *combination* would have
 * predicted each observed miss (§4.3).
 *
 * Modes StrideOnly / MarkovOnly expose the two halves individually for
 * the ablation benches.
 */

#ifndef PSB_PREDICTORS_SFM_PREDICTOR_HH
#define PSB_PREDICTORS_SFM_PREDICTOR_HH

#include "predictors/address_predictor.hh"
#include "predictors/diff_markov_table.hh"
#include "predictors/stride_table.hh"
#include "util/hot_path.hh"

namespace psb
{

/** Which halves of the hybrid are active. */
enum class SfmMode
{
    Sfm,        ///< stride-filtered Markov (the paper's predictor)
    StrideOnly, ///< two-delta stride predictions only
    MarkovOnly, ///< unfiltered Markov (every transition recorded)
};

/** SFM predictor configuration; defaults are the paper's. */
struct SfmConfig
{
    StrideTableConfig stride;
    DiffMarkovConfig markov;
    SfmMode mode = SfmMode::Sfm;

    bool operator==(const SfmConfig &) const = default;
};

/** See file comment. */
class SfmPredictor : public AddressPredictor
{
  public:
    explicit SfmPredictor(const SfmConfig &cfg = {});

    PSB_HOT_PATH void train(Addr pc, Addr addr) override;
    PSB_HOT_PATH std::optional<BlockAddr>
    predictNext(StreamState &state) const override;
    PredictFixedPoint
    fixedPoint(const StreamState &state) const override;
    StreamState allocateStream(Addr pc, Addr addr) const override;
    uint32_t confidence(Addr pc) const override;
    bool twoMissFilterPass(Addr pc, Addr addr) const override;

    /** Fraction-of-misses-predicted stats (coverage measurement). */
    uint64_t trainEvents() const { return _trainEvents; }
    uint64_t correctPredictions() const { return _correct; }

    /** Export train_events, correct_predictions, coverage, and the
     *  Markov table's update/overflow/population counters. */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const override;

    void
    resetStats() override
    {
        _trainEvents = 0;
        _correct = 0;
        _markov.resetStats();
    }

    const StrideTable &strideTable() const { return _stride; }
    const DiffMarkovTable &markovTable() const { return _markov; }
    const SfmConfig &config() const { return _cfg; }

  private:
    /**
     * The block predictNext() would predict for @p state and, through
     * @p source, the half that predicts it; nullopt when neither does.
     */
    PSB_HOT_PATH std::optional<BlockAddr>
    peek(const StreamState &state, PredictionSource &source) const;

    SfmConfig _cfg;
    unsigned _lineBits;
    StrideTable _stride;
    DiffMarkovTable _markov;
    uint64_t _trainEvents = 0;
    uint64_t _correct = 0;
};

} // namespace psb

#endif // PSB_PREDICTORS_SFM_PREDICTOR_HH
