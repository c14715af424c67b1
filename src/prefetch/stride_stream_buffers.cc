#include "prefetch/stride_stream_buffers.hh"

namespace psb
{

FarkasStridePredictor::FarkasStridePredictor(const StrideTableConfig &cfg)
    : _cfg(cfg), _table(cfg)
{
}

void
FarkasStridePredictor::train(Addr pc, Addr addr)
{
    StrideTrainResult result = _table.train(pc, addr);
    if (!result.firstTouch)
        _table.recordOutcome(pc, result.stridePredicted);
}

std::optional<BlockAddr>
FarkasStridePredictor::predictNext(StreamState &state) const
{
    state.lastAddr += state.stride;
    state.lastSource = PredictionSource::Stride;
    return state.lastAddr;
}

PredictFixedPoint
FarkasStridePredictor::fixedPoint(const StreamState &state) const
{
    // A stride-0 stream re-predicts its last block forever once its
    // first prediction has stamped the source.
    if (state.stride != BlockDelta{} ||
        state.lastSource != PredictionSource::Stride)
        return {};
    return {true, state.lastAddr};
}

StreamState
FarkasStridePredictor::allocateStream(Addr pc, Addr addr) const
{
    StreamState state;
    state.loadPc = pc;
    state.lastAddr = addr.toBlock(_table.lineBits());
    state.stride = _table.predictedStride(pc);
    state.confidence = _table.confidence(pc);
    return state;
}

uint32_t
FarkasStridePredictor::confidence(Addr pc) const
{
    return _table.confidence(pc);
}

bool
FarkasStridePredictor::twoMissFilterPass(Addr pc, Addr) const
{
    return _table.strideFilterPass(pc);
}

} // namespace psb
