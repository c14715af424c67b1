/**
 * @file
 * Miss Status Holding Registers. Track cache blocks that have been
 * requested from the next level but have not yet arrived. Subsequent
 * accesses to an in-flight block merge into the existing entry instead
 * of generating new bus traffic — and, per the paper's accounting,
 * still count as cache misses ("accesses to in-flight data count as
 * cache misses", §6).
 */

#ifndef PSB_MEMORY_MSHR_HH
#define PSB_MEMORY_MSHR_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace/micro_op.hh"
#include "util/hot_path.hh"

namespace psb
{

class StatsRegistry;

/** A small fully-associative file of in-flight block fills. */
class MshrFile
{
  public:
    /**
     * @param num_entries Capacity; requests beyond it must stall.
     * @param name File name for trace events ("l1d", "l1i").
     */
    explicit MshrFile(unsigned num_entries, const char *name = "mshr");

    /**
     * If the block is in flight at @p now, return the cycle its data
     * arrives. Entries whose fill has completed are retired lazily.
     */
    PSB_HOT_PATH std::optional<Cycle> lookup(BlockAddr block, Cycle now);

    /**
     * Read-only probe: is @p block in flight at @p now? Unlike
     * lookup(), this neither retires entries nor counts a merge, so
     * observers (the prefetch-attribution redundancy check) can probe
     * without perturbing stats or state. Entries retire lazily, so a
     * completed fill may still sit in the file — it is only *tracked*
     * while its data has not arrived (ready > now).
     */
    bool
    tracks(BlockAddr block, Cycle now) const
    {
        for (const Entry &e : _entries) {
            if (e.valid && e.block == block && e.ready > now)
                return true;
        }
        return false;
    }

    /** True iff no entry is free at @p now (after retiring done fills).
     *  Inline: polled for every MSHR-stalled access. */
    bool
    full(Cycle now)
    {
        if (now >= _minReady)
            retire(now);
        return _liveCount == _capacity;
    }

    /**
     * Track a new in-flight fill. The caller must have checked full().
     * Allocating a block that is already tracked extends nothing and is
     * a modelling bug.
     */
    PSB_HOT_PATH void allocate(BlockAddr block, Cycle ready);

    /**
     * Cycle the earliest outstanding fill completes (Cycle::max() when
     * none). Exact after any call at the current cycle: while full(),
     * it is the first cycle an allocation can succeed.
     */
    Cycle nextRetire() const { return _minReady; }

    /** Number of live entries at @p now. */
    unsigned occupancy(Cycle now);

    /** Total allocations performed (stat). */
    uint64_t allocations() const { return _allocations; }

    /** Total merged (secondary) accesses observed via lookup() (stat). */
    uint64_t merges() const { return _merges; }

    unsigned capacity() const { return _capacity; }

    /** Zero the accounting (end-of-warm-up); entries are kept. */
    void
    resetStats()
    {
        _allocations = 0;
        _merges = 0;
    }

    /** Register allocations and merges under @p prefix. */
    void registerStats(StatsRegistry &reg, const std::string &prefix) const;

  private:
    struct Entry
    {
        BlockAddr block{};
        Cycle ready{};
        bool valid = false;
    };

    void retire(Cycle now);

    static uint64_t
    signatureBit(BlockAddr block)
    {
        return uint64_t(1) << (block.raw() & 63);
    }

    unsigned _capacity;
    const char *_name;
    std::vector<Entry> _entries;
    // Live-entry count plus the earliest outstanding ready time, so
    // retire() is a no-op (and full() is O(1)) until a fill actually
    // completes — full() is polled every cycle of an MSHR stall.
    unsigned _liveCount = 0;
    Cycle _minReady = Cycle::max();
    // Bit (block & 63) is set for every valid entry's block, so a
    // clear bit proves lookup() misses. allocate() sets bits;
    // retire(), which walks the file anyway, rebuilds the set.
    uint64_t _signature = 0;
    uint64_t _allocations = 0;
    uint64_t _merges = 0;
};

} // namespace psb

#endif // PSB_MEMORY_MSHR_HH
