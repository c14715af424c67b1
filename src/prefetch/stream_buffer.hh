/**
 * @file
 * The stream-buffer storage shared by every stream-buffer prefetcher
 * in this library (the PC-stride baseline and the predictor-directed
 * design).
 *
 * Follows Farkas et al. [13,14] as modelled by the paper: 8 buffers of
 * 4 entries each, *fully-associative* lookup across all entries of all
 * buffers (not Jouppi's FIFO head probe), non-overlapping streams
 * enforced by searching every buffer before inserting a prediction,
 * and LRU selection of the entry a new prediction lands in.
 */

#ifndef PSB_PREFETCH_STREAM_BUFFER_HH
#define PSB_PREFETCH_STREAM_BUFFER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "predictors/address_predictor.hh"
#include "trace/micro_op.hh"
#include "util/bitfield.hh"
#include "util/hot_path.hh"
#include "util/sat_counter.hh"

namespace psb
{

/** Shared stream-buffer parameters; defaults are the paper's. */
struct StreamBufferConfig
{
    unsigned numBuffers = 8;
    unsigned entriesPerBuffer = 4;
    unsigned blockBytes = 32;
    uint32_t priorityMax = 12;       ///< priority counter saturation
    uint32_t priorityHitIncrement = 2;
    unsigned agingPeriod = 10;       ///< allocation requests per -1 aging
    uint32_t allocConfThreshold = 1; ///< confidence-allocation threshold
    /**
     * Paper §4.5 option: store the TLB translation with the stream
     * buffer so a lookup is only needed when the stream crosses a
     * page boundary.
     */
    bool cacheTlbTranslation = false;

    bool operator==(const StreamBufferConfig &) const = default;
};

/** One stream-buffer entry: a predicted block and its fill status. */
struct SbEntry
{
    BlockAddr block{};
    bool valid = false;      ///< holds a prediction
    bool prefetched = false; ///< fill request has been issued
    Cycle ready{};           ///< data-arrival cycle (when prefetched)
    /** Attribution lineage id assigned at prefetch issue (0: none). */
    uint64_t lineage = 0;
    /** Predictor mechanism that produced this entry's address. */
    PredictionSource source = PredictionSource::None;
};

/**
 * One stream buffer: N entries plus the per-stream prediction state
 * and the priority counter of paper §4.4.
 */
class StreamBuffer
{
  public:
    /** @param index Position in the owning file (trace track id). */
    StreamBuffer(unsigned num_entries, uint32_t priority_max,
                 unsigned index = 0);

    /** Reset entries and install a new stream (allocation). */
    void allocateStream(const StreamState &state, uint32_t priority_init);

    /** Index of the entry holding @p block, or -1. */
    PSB_HOT_PATH int findEntry(BlockAddr block) const;

    /**
     * Index of an entry free to take a new prediction, or -1. The
     * lowest free index, matching a linear scan — prefetch issue order
     * depends on it.
     */
    int
    freeEntry() const
    {
        uint64_t free = ~_validMask & _fullMask;
        return free ? int(countTrailingZeros(free)) : -1;
    }

    /** Index of a valid entry whose prefetch has not issued, or -1. */
    int
    pendingPrefetchEntry() const
    {
        return _pendingMask ? int(countTrailingZeros(_pendingMask)) : -1;
    }

    /**
     * Install a prediction for @p block into free entry @p idx,
     * tagged with the predictor @p source that produced it.
     */
    void fillEntry(int idx, BlockAddr block,
                   PredictionSource source = PredictionSource::None);

    /**
     * Record that entry @p idx's fill was issued, arriving @p ready,
     * carrying attribution @p lineage (0 when untracked).
     */
    void markPrefetched(int idx, Cycle ready, uint64_t lineage = 0);

    /** Invalidate entry @p idx (hit consumed it / late tag hit). */
    void clearEntry(int idx);

    bool allocated() const { return _allocated; }
    void deallocate() { _allocated = false; }

    const std::vector<SbEntry> &entries() const { return _entries; }

    /** Per-stream predictor history (paper Figure 2). */
    StreamState state;

    /** Priority counter: +2 on hit, aged -1, copies accuracy at alloc. */
    SatCounter priority;

    /** Cached page translation (§4.5 option); ~0 = none cached. */
    uint64_t translatedPage = ~uint64_t(0);

    /** Stamps for LRU victim choice and scheduler tie-breaking. */
    uint64_t lastHitStamp = 0;
    uint64_t allocStamp = 0;
    uint64_t lastPredictStamp = 0;
    uint64_t lastPrefetchStamp = 0;

    /** Per-buffer accounting exported through the stats registry. */
    uint64_t hitCount = 0;     ///< lookups this buffer serviced
    uint64_t streamAllocs = 0; ///< streams installed into this buffer
    uint32_t priorityPeak = 0; ///< high-water of the priority counter

    /** Record the current priority value into the high-water mark. */
    void
    notePriorityPeak()
    {
        if (priority.value() > priorityPeak)
            priorityPeak = priority.value();
    }

    /** Zero the per-buffer accounting (end-of-warm-up). */
    void
    resetBufferStats()
    {
        hitCount = 0;
        streamAllocs = 0;
        priorityPeak = priority.value();
    }

  private:
    std::vector<SbEntry> _entries;
    // Occupancy summarised as bitmasks so the per-cycle scheduler
    // candidate checks (free slot? pending prefetch?) are O(1); every
    // entry mutation goes through fillEntry/markPrefetched/clearEntry
    // to keep them in sync with _entries.
    uint64_t _validMask = 0;   ///< bit i: _entries[i].valid
    uint64_t _pendingMask = 0; ///< bit i: valid && !prefetched
    uint64_t _fullMask = 0;    ///< low entriesPerBuffer bits
    unsigned _index = 0;
    bool _allocated = false;
};

/**
 * The file of stream buffers: associative lookup and duplicate
 * suppression across all buffers.
 */
class StreamBufferFile
{
  public:
    explicit StreamBufferFile(const StreamBufferConfig &cfg);

    /** Location of a tag match. */
    struct TagHit
    {
        unsigned buf = 0;
        int entry = -1;
    };

    /** Search every entry of every buffer for @p block. */
    PSB_HOT_PATH std::optional<TagHit> findBlock(BlockAddr block) const;

    /** True iff some buffer already holds a prediction for @p block. */
    PSB_HOT_PATH bool contains(BlockAddr block) const;

    /**
     * The buffer to replace on a filter-based allocation (two-miss /
     * always policies): the oldest-allocated buffer, preferring
     * unallocated ones. Deliberately blind to hit activity — this is
     * what lets stream thrashing evict productive streams, the
     * behaviour confidence allocation fixes (paper §6: confidence
     * "avoids replacing stream buffers that are receiving a lot of
     * hits").
     */
    unsigned lruBuffer() const;

    /** Buffer with the lowest priority counter (ties: least priority
     *  then least-recently-hit), used by confidence allocation. */
    unsigned minPriorityBuffer() const;

    // Indexing is unchecked: every caller iterates i < numBuffers(),
    // and .at()'s throw path is banned on the hot path (rule R11).
    StreamBuffer &buffer(unsigned i) { return _buffers[i]; }
    const StreamBuffer &buffer(unsigned i) const { return _buffers[i]; }
    unsigned numBuffers() const { return unsigned(_buffers.size()); }

    /** The block number of @p addr at this file's block size. */
    BlockAddr blockOf(Addr addr) const
    {
        return addr.toBlock(_lineBits);
    }

    /** log2 of the configured block size. */
    unsigned lineBits() const { return _lineBits; }

    const StreamBufferConfig &config() const { return _cfg; }

    /** Monotonic stamp source shared by owner policies. */
    uint64_t nextStamp() { return ++_stamp; }

  private:
    StreamBufferConfig _cfg;
    unsigned _lineBits;
    std::vector<StreamBuffer> _buffers;
    uint64_t _stamp = 0;
};

} // namespace psb

#endif // PSB_PREFETCH_STREAM_BUFFER_HH
