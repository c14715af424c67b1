#include "prefetch/min_delta_stream_buffers.hh"

#include <cstdlib>

#include "util/bitfield.hh"
#include "util/logging.hh"

namespace psb
{

MinDeltaPredictor::MinDeltaPredictor(const MinDeltaConfig &cfg)
    : _cfg(cfg), _lineBits(floorLog2(cfg.blockBytes)),
      _chunks(cfg.chunkTableEntries),
      _history(std::size_t(cfg.chunkTableEntries) * cfg.historyDepth)
{
    psb_assert(isPowerOf2(cfg.chunkBytes), "chunk size must be 2^n");
    psb_assert(isPowerOf2(cfg.chunkTableEntries),
               "chunk table entries must be 2^n");
    psb_assert(cfg.historyDepth >= 1, "need at least one past miss");
}

uint64_t
MinDeltaPredictor::chunkOf(Addr addr) const
{
    return addr.raw() / _cfg.chunkBytes;
}

unsigned
MinDeltaPredictor::indexOf(Addr addr) const
{
    return unsigned(chunkOf(addr) & (_cfg.chunkTableEntries - 1));
}

void
MinDeltaPredictor::train(Addr, Addr addr)
{
    unsigned idx = indexOf(addr);
    ChunkEntry &entry = _chunks[idx];
    Addr *ring = &_history[std::size_t(idx) * _cfg.historyDepth];
    uint64_t chunk = chunkOf(addr);

    if (!entry.valid || entry.chunk != chunk) {
        entry = ChunkEntry{};
        entry.chunk = chunk;
        entry.valid = true;
    }

    // Consecutive-miss tracking for the allocation filter: misses to
    // the same chunk back to back.
    entry.consecutiveMisses =
        (_haveLastMiss && chunkOf(_lastMissAddr) == chunk)
            ? entry.consecutiveMisses + 1
            : 0;

    // Minimum signed delta against the past N miss addresses of this
    // chunk; sub-block deltas round to one block with the delta's sign
    // (Palacharla & Kessler's rule).
    if (entry.recentCount > 0) {
        int64_t best = 0;
        bool have = false;
        for (unsigned i = 0; i < entry.recentCount; ++i) {
            // Oldest-first walk of the ring, so ties on |delta| keep
            // resolving to the oldest miss exactly as the previous
            // grow-and-trim vector did.
            unsigned slot = (entry.recentHead + _cfg.historyDepth -
                             entry.recentCount + i) %
                            _cfg.historyDepth;
            Addr past = ring[slot];
            int64_t delta = addr - past;
            if (delta == 0)
                continue;
            if (!have || std::llabs(delta) < std::llabs(best)) {
                best = delta;
                have = true;
            }
        }
        if (have) {
            if (std::llabs(best) < int64_t(_cfg.blockBytes)) {
                entry.stride = best < 0 ? -int64_t(_cfg.blockBytes)
                                        : int64_t(_cfg.blockBytes);
            } else {
                entry.stride = best;
            }
        }
    }

    ring[entry.recentHead] = addr;
    entry.recentHead = (entry.recentHead + 1) % _cfg.historyDepth;
    if (entry.recentCount < _cfg.historyDepth)
        ++entry.recentCount;

    _lastMissAddr = addr;
    _haveLastMiss = true;
}

std::optional<BlockAddr>
MinDeltaPredictor::predictNext(StreamState &state) const
{
    if (state.stride == BlockDelta{})
        return std::nullopt;
    state.lastAddr += state.stride;
    state.lastSource = PredictionSource::MinDelta;
    return state.lastAddr;
}

StreamState
MinDeltaPredictor::allocateStream(Addr pc, Addr addr) const
{
    StreamState state;
    state.loadPc = pc;
    state.lastAddr = addr.toBlock(_lineBits);
    // The byte stride is re-applied to a line-aligned base on every
    // prediction, so it advances the stream by a constant number of
    // whole blocks: floor(stride / blockBytes). Sub-block strides are
    // already rounded to a full block (with sign) during training.
    state.stride = BlockDelta(strideFor(addr) >> _lineBits);
    // No per-load accuracy counter in this scheme: a fixed confidence
    // of 1 lets it pass the ConfAlloc threshold if ever combined.
    state.confidence = 1;
    return state;
}

uint32_t
MinDeltaPredictor::confidence(Addr) const
{
    return 1;
}

bool
MinDeltaPredictor::twoMissFilterPass(Addr, Addr addr) const
{
    const ChunkEntry &entry = _chunks[indexOf(addr)];
    return entry.valid && entry.chunk == chunkOf(addr) &&
           entry.consecutiveMisses >= 1 && entry.stride != 0;
}

int64_t
MinDeltaPredictor::strideFor(Addr addr) const
{
    const ChunkEntry &entry = _chunks[indexOf(addr)];
    if (!entry.valid || entry.chunk != chunkOf(addr))
        return 0;
    return entry.stride;
}

} // namespace psb
