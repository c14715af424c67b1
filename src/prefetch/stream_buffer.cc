#include "prefetch/stream_buffer.hh"

#include "util/bitfield.hh"
#include "util/logging.hh"
#include "util/trace.hh"

namespace psb
{

StreamBuffer::StreamBuffer(unsigned num_entries, uint32_t priority_max,
                           unsigned index)
    : priority(priority_max), _entries(num_entries),
      _fullMask(mask(num_entries)), _index(index)
{
    psb_assert(num_entries <= 64,
               "entry occupancy masks hold at most 64 entries");
}

void
StreamBuffer::allocateStream(const StreamState &new_state,
                             uint32_t priority_init)
{
    // Stream lifetimes render as Chrome duration events, one track per
    // buffer: re-allocating a live buffer is a replacement (thrash), so
    // the old span closes where the new one opens.
    if (_allocated) {
        PSB_TRACE(Psb, "thrash", int(_index),
                  "old_addr=%llu old_priority=%u",
                  (unsigned long long)state.lastAddr.raw(),
                  priority.value());
        PSB_TRACE_END(Psb, "stream", int(_index));
    }
    state = new_state;
    priority.set(priority_init);
    translatedPage = ~uint64_t(0);
    for (auto &e : _entries)
        e = SbEntry{};
    _validMask = 0;
    _pendingMask = 0;
    _blockSig = 0;
    _allocated = true;
    ++streamAllocs;
    notePriorityPeak();
    PSB_TRACE_BEGIN(Psb, "stream", int(_index),
                    "block=%llu priority=%u",
                    (unsigned long long)state.lastAddr.raw(),
                    priority.value());
}

int
StreamBuffer::findEntry(BlockAddr block) const
{
    for (uint64_t m = _validMask; m != 0; m &= m - 1) {
        unsigned i = countTrailingZeros(m);
        if (_entries[i].block == block)
            return int(i);
    }
    return -1;
}

void
StreamBuffer::fillEntry(int idx, BlockAddr block, PredictionSource source)
{
    psb_assert(idx >= 0 && size_t(idx) < _entries.size(),
               "stream buffer entry index out of range");
    psb_assert(!_entries[idx].valid, "filling an occupied entry");
    _entries[idx].block = block;
    _entries[idx].valid = true;
    _entries[idx].prefetched = false;
    _entries[idx].lineage = 0;
    _entries[idx].source = source;
    _validMask |= uint64_t(1) << idx;
    _pendingMask |= uint64_t(1) << idx;
    _blockSig |= blockSignatureBit(block);
}

void
StreamBuffer::markPrefetched(int idx, Cycle ready, uint64_t lineage)
{
    psb_assert(idx >= 0 && size_t(idx) < _entries.size(),
               "stream buffer entry index out of range");
    psb_assert(_entries[idx].valid, "prefetching an invalid entry");
    _entries[idx].prefetched = true;
    _entries[idx].ready = ready;
    _entries[idx].lineage = lineage;
    _pendingMask &= ~(uint64_t(1) << idx);
}

void
StreamBuffer::clearEntry(int idx)
{
    psb_assert(idx >= 0 && size_t(idx) < _entries.size(),
               "stream buffer entry index out of range");
    _entries[idx] = SbEntry{};
    _validMask &= ~(uint64_t(1) << idx);
    _pendingMask &= ~(uint64_t(1) << idx);
    // Another entry may share the cleared block's bit: rebuild.
    _blockSig = 0;
    for (uint64_t m = _validMask; m != 0; m &= m - 1) {
        unsigned i = countTrailingZeros(m);
        _blockSig |= blockSignatureBit(_entries[i].block);
    }
}

StreamBufferFile::StreamBufferFile(const StreamBufferConfig &cfg)
    : _cfg(cfg), _lineBits(floorLog2(cfg.blockBytes))
{
    psb_assert(cfg.numBuffers > 0, "need at least one stream buffer");
    psb_assert(cfg.entriesPerBuffer > 0, "need at least one entry");
    psb_assert(cfg.numBuffers <= 64,
               "buffer candidate masks hold at most 64 buffers");
    psb_assert(isPowerOf2(cfg.blockBytes), "block size must be 2^n");
    _buffers.reserve(cfg.numBuffers);
    for (unsigned i = 0; i < cfg.numBuffers; ++i)
        _buffers.emplace_back(cfg.entriesPerBuffer, cfg.priorityMax, i);
    _signatures.assign(cfg.numBuffers, 0);
}

void
StreamBufferFile::sync(unsigned b)
{
    const StreamBuffer &buf = _buffers[b];
    const uint64_t bit = uint64_t(1) << b;
    const bool on = buf.allocated();
    _signatures[b] = on ? buf.blockSignature() : 0;
    _portCandidates = (_portCandidates & ~bit) |
                      (on && buf.freeEntry() >= 0 ? bit : 0);
    _pendingCandidates = (_pendingCandidates & ~bit) |
                         (on && buf.pendingPrefetchEntry() >= 0 ? bit : 0);
}

void
StreamBufferFile::allocateStream(unsigned b, const StreamState &state,
                                 uint32_t priority_init)
{
    _buffers[b].allocateStream(state, priority_init);
    sync(b);
}

void
StreamBufferFile::deallocate(unsigned b)
{
    _buffers[b]._allocated = false;
    sync(b);
}

void
StreamBufferFile::fillEntry(unsigned b, int idx, BlockAddr block,
                            PredictionSource source)
{
    _buffers[b].fillEntry(idx, block, source);
    sync(b);
}

void
StreamBufferFile::markPrefetched(unsigned b, int idx, Cycle ready,
                                 uint64_t lineage)
{
    _buffers[b].markPrefetched(idx, ready, lineage);
    sync(b);
}

void
StreamBufferFile::clearEntry(unsigned b, int idx)
{
    _buffers[b].clearEntry(idx);
    sync(b);
}

std::optional<StreamBufferFile::TagHit>
StreamBufferFile::findBlock(BlockAddr block) const
{
    // Most searches miss (MSHR-full retries, duplicate checks): the
    // summary's signatures reject a buffer without touching it.
    const uint64_t bit = blockSignatureBit(block);
    for (unsigned b = 0; b < _signatures.size(); ++b) {
        if (!(_signatures[b] & bit))
            continue;
        int e = _buffers[b].findEntry(block);
        if (e >= 0)
            return TagHit{b, e};
    }
    return std::nullopt;
}

bool
StreamBufferFile::contains(BlockAddr block) const
{
    return findBlock(block).has_value();
}

unsigned
StreamBufferFile::lruBuffer() const
{
    unsigned victim = 0;
    for (unsigned b = 0; b < _buffers.size(); ++b) {
        if (!_buffers[b].allocated())
            return b;
        if (_buffers[b].allocStamp < _buffers[victim].allocStamp)
            victim = b;
    }
    return victim;
}

unsigned
StreamBufferFile::minPriorityBuffer() const
{
    unsigned best = 0;
    for (unsigned b = 1; b < _buffers.size(); ++b) {
        uint32_t pb = _buffers[b].allocated()
            ? _buffers[b].priority.value() : 0;
        uint32_t pv = _buffers[best].allocated()
            ? _buffers[best].priority.value() : 0;
        if (pb < pv ||
            (pb == pv &&
             _buffers[b].lastHitStamp < _buffers[best].lastHitStamp)) {
            best = b;
        }
    }
    return best;
}

} // namespace psb
