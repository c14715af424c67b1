#include "predictors/sfm_predictor.hh"

#include "util/bitfield.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/trace.hh"

namespace psb
{

SfmPredictor::SfmPredictor(const SfmConfig &cfg)
    : _cfg(cfg), _lineBits(floorLog2(cfg.stride.blockBytes)),
      _stride(cfg.stride), _markov(cfg.markov)
{
    psb_assert(cfg.stride.blockBytes == cfg.markov.blockBytes,
               "stride and markov tables must share a granularity");
}

void
SfmPredictor::train(Addr pc, Addr addr)
{
    BlockAddr block = addr.toBlock(_lineBits);
    const bool use_stride = _cfg.mode != SfmMode::MarkovOnly;
    const bool use_markov = _cfg.mode != SfmMode::StrideOnly;

    StrideTrainResult result = _stride.train(pc, addr);
    if (result.firstTouch)
        return;

    ++_trainEvents;

    // Would the active predictor combination have predicted this miss?
    bool stride_correct = use_stride && result.stridePredicted;
    bool markov_correct = false;
    if (use_markov) {
        if (auto pred = _markov.lookup(result.prevAddr))
            markov_correct = (*pred == block);
    }
    bool correct = stride_correct || markov_correct;
    if (correct)
        ++_correct;
    _stride.recordOutcome(pc, correct);
    PSB_TRACE(Sfm, "train", -1,
              "pc=%llu block=%llu stride_ok=%d markov_ok=%d",
              (unsigned long long)pc.raw(),
              (unsigned long long)block.raw(), int(stride_correct),
              int(markov_correct));

    if (!use_markov)
        return;

    // Stride filtering (§4.2): record the transition only when the
    // observed stride matches neither the last stride nor the
    // two-delta stride. MarkovOnly mode records every transition.
    const StrideEntry *entry = _stride.lookup(pc);
    bool stride_captured =
        use_stride && entry &&
        (entry->strideRepeated || result.stridePredicted);
    if (!stride_captured)
        _markov.update(result.prevAddr, block);
}

std::optional<BlockAddr>
SfmPredictor::peek(const StreamState &state,
                   PredictionSource &source) const
{
    const bool use_stride = _cfg.mode != SfmMode::MarkovOnly;
    const bool use_markov = _cfg.mode != SfmMode::StrideOnly;

    if (use_markov) {
        if (auto next = _markov.lookup(state.lastAddr)) {
            source = PredictionSource::Markov;
            return next;
        }
    }
    if (!use_stride)
        return std::nullopt;
    source = PredictionSource::Stride;
    return state.lastAddr + state.stride;
}

std::optional<BlockAddr>
SfmPredictor::predictNext(StreamState &state) const
{
    PredictionSource source = PredictionSource::None;
    std::optional<BlockAddr> next = peek(state, source);
    if (!next)
        return std::nullopt;

    PSB_TRACE(Sfm, "predict", -1, "block=%llu source=%s",
              (unsigned long long)next->raw(),
              source == PredictionSource::Markov ? "markov" : "stride");
    state.lastAddr = *next;
    state.lastSource = source;
    return next;
}

PredictFixedPoint
SfmPredictor::fixedPoint(const StreamState &state) const
{
    // predictNext() writes lastAddr and lastSource, nothing else: a
    // stream is stalled when it would rewrite both with their values
    // (a stride-0 stream, a self-looping Markov entry), or when no
    // half predicts at all.
    PredictionSource source = PredictionSource::None;
    std::optional<BlockAddr> next = peek(state, source);
    if (!next)
        return {true, std::nullopt};
    if (*next != state.lastAddr || source != state.lastSource)
        return {};
    return {true, next};
}

StreamState
SfmPredictor::allocateStream(Addr pc, Addr addr) const
{
    StreamState state;
    state.loadPc = pc;
    state.lastAddr = addr.toBlock(_lineBits);
    state.stride = _stride.predictedStride(pc);
    state.confidence = _stride.confidence(pc);
    return state;
}

uint32_t
SfmPredictor::confidence(Addr pc) const
{
    return _stride.confidence(pc);
}

bool
SfmPredictor::twoMissFilterPass(Addr pc, Addr) const
{
    return _stride.twoCorrectInARow(pc);
}

void
SfmPredictor::registerStats(StatsRegistry &reg,
                            const std::string &prefix) const
{
    reg.addScalar(prefix + ".train_events", &_trainEvents);
    reg.addScalar(prefix + ".correct_predictions", &_correct);
    reg.addReal(prefix + ".coverage",
                [this] { return ratio(_correct, _trainEvents); });
    reg.addScalar(prefix + ".markov.updates",
                  [this] { return _markov.updates(); });
    reg.addScalar(prefix + ".markov.overflows",
                  [this] { return _markov.overflows(); });
    reg.addScalar(prefix + ".markov.population",
                  [this] { return _markov.population(); });
}

} // namespace psb
