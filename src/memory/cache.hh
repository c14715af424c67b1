/**
 * @file
 * Set-associative cache tag model with true-LRU replacement and dirty
 * bits. Only tags and metadata are modelled — no data storage — which
 * is all a timing-and-prefetching study needs.
 *
 * The baseline configuration (paper §5.1): 32K 4-way 32-byte-line L1
 * data cache, 32K 2-way 32-byte-line L1 instruction cache, and a 1 MB
 * unified L2 with 64-byte lines.
 */

#ifndef PSB_MEMORY_CACHE_HH
#define PSB_MEMORY_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "trace/micro_op.hh"
#include "util/hot_path.hh"

namespace psb
{

/** Shape of a cache: total capacity, associativity, and line size. */
struct CacheGeometry
{
    uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 4;
    unsigned blockBytes = 32;

    uint64_t numSets() const { return sizeBytes / (assoc * blockBytes); }

    bool operator==(const CacheGeometry &) const = default;
};

/** Result of a victim selection: the evicted block, if any. */
struct Eviction
{
    Addr blockAddr{};  ///< line-aligned byte address of the victim
    bool dirty = false;
};

/**
 * Tag-only set-associative cache with LRU replacement.
 *
 * All addresses passed in are full byte addresses; the cache masks them
 * to block granularity internally. Accounting (accesses/hits/misses) is
 * kept by the caller (MemoryHierarchy) because hit/miss semantics in
 * this reproduction depend on in-flight state the cache cannot see
 * (the paper counts accesses to in-flight blocks as misses).
 */
class SetAssocCache
{
  public:
    /** @param name Cache name for trace events ("l1d", "l2"...). */
    explicit SetAssocCache(const CacheGeometry &geom,
                           const char *name = "cache");

    /** True iff the block containing @p addr is resident. No LRU update. */
    PSB_HOT_PATH bool probe(Addr addr) const;

    /**
     * Reference the block containing @p addr: updates LRU and, for
     * writes, the dirty bit.
     * @retval true on hit.
     */
    PSB_HOT_PATH bool touch(Addr addr, bool is_write = false);

    /**
     * Install the block containing @p addr, evicting the set's LRU
     * block if the set is full.
     * @return The eviction, if a valid block was displaced.
     */
    PSB_HOT_PATH std::optional<Eviction> insert(Addr addr,
                                                bool dirty = false);

    /** Remove the block containing @p addr if present. */
    void invalidate(Addr addr);

    /** Drop all blocks (used between simulation regions). */
    void flush();

    /** Block address (byte address masked to line granularity). */
    Addr blockAlign(Addr addr) const
    {
        return addr.alignDown(_geom.blockBytes);
    }

    /** The block number of @p addr at this cache's line size. */
    BlockAddr blockOf(Addr addr) const
    {
        return addr.toBlock(_blockShift);
    }

    /** log2 of the line size. */
    unsigned lineBits() const { return _blockShift; }

    const CacheGeometry &geometry() const { return _geom; }

    /** Number of currently valid blocks (test/debug aid). */
    uint64_t validBlocks() const;

  private:
    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        uint64_t lastUse = 0;
    };

    unsigned setIndex(Addr addr) const;
    uint64_t tagOf(Addr addr) const;

    CacheGeometry _geom;
    const char *_name;
    uint64_t _blockMask;
    unsigned _blockShift;
    uint64_t _numSets;
    uint64_t _useStamp = 0;
    std::vector<Line> _lines; ///< numSets x assoc, row-major
};

} // namespace psb

#endif // PSB_MEMORY_CACHE_HH
