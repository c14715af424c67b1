#include "predictors/next_block_predictor.hh"

#include "util/bitfield.hh"

namespace psb
{

namespace
{

StrideTableConfig
withBlock(StrideTableConfig cfg, unsigned block_bytes)
{
    cfg.blockBytes = block_bytes;
    return cfg;
}

} // namespace

NextBlockPredictor::NextBlockPredictor(unsigned block_bytes,
                                       const StrideTableConfig &table)
    : _lineBits(floorLog2(block_bytes)),
      _table(withBlock(table, block_bytes))
{
}

void
NextBlockPredictor::train(Addr pc, Addr addr)
{
    BlockAddr block = addr.toBlock(_lineBits);
    StrideTrainResult result = _table.train(pc, addr);
    if (result.firstTouch)
        return;
    _table.recordOutcome(pc, result.prevAddr + BlockDelta(1) == block);
}

std::optional<BlockAddr>
NextBlockPredictor::predictNext(StreamState &state) const
{
    state.lastAddr += BlockDelta(1);
    state.lastSource = PredictionSource::Sequential;
    return state.lastAddr;
}

StreamState
NextBlockPredictor::allocateStream(Addr pc, Addr addr) const
{
    StreamState state;
    state.loadPc = pc;
    state.lastAddr = addr.toBlock(_lineBits);
    state.stride = BlockDelta(1);
    state.confidence = _table.confidence(pc);
    return state;
}

uint32_t
NextBlockPredictor::confidence(Addr pc) const
{
    return _table.confidence(pc);
}

bool
NextBlockPredictor::twoMissFilterPass(Addr pc, Addr) const
{
    return _table.twoCorrectInARow(pc);
}

} // namespace psb
