/**
 * @file
 * Data TLB. The predictor stores virtual effective addresses, so every
 * prefetch performs a TLB translation (and replacement on a miss) —
 * effectively TLB prefetching, paper §4.5. The paper observed this to
 * be performance-neutral because its benchmarks had few TLB misses; we
 * model it anyway so the effect can be measured.
 */

#ifndef PSB_MEMORY_TLB_HH
#define PSB_MEMORY_TLB_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/micro_op.hh"
#include "util/hot_path.hh"

namespace psb
{

class StatsRegistry;

/** A page known to be mapped: @p vaddr's page sat in DTLB entry
 *  @p index when this was taken (Tlb::resident()). */
struct TlbHit
{
    Addr vaddr{};
    uint32_t index = 0;
};

/** Fully-associative, LRU-replaced translation buffer. */
class Tlb
{
  public:
    /**
     * @param num_entries TLB capacity.
     * @param page_bytes Page size (power of two).
     * @param miss_penalty Cycles added to an access on a TLB miss.
     */
    Tlb(unsigned num_entries, uint64_t page_bytes, CycleDelta miss_penalty);

    /**
     * Translate the page of @p vaddr, filling the entry on a miss.
     * @return Extra latency cycles (0 on a hit, missPenalty on a miss).
     */
    PSB_HOT_PATH CycleDelta translate(Addr vaddr);

    /** True iff the page of @p vaddr is currently mapped (no update). */
    bool probe(Addr vaddr) const;

    /** Where @p vaddr's page is mapped now; it must be (no update). */
    TlbHit resident(Addr vaddr) const;

    /** Does @p hit's entry still map its page? (no update) */
    bool
    stillMaps(const TlbHit &hit) const
    {
        const Entry &e = _entries[hit.index];
        return e.valid && e.vpn == vpnOf(hit.vaddr);
    }

    /**
     * translate() of @p hit's address while stillMaps(@p hit): the
     * same hit, access count and LRU stamp, without the search.
     * @retval false when it no longer maps; nothing changed.
     */
    bool
    translateAt(const TlbHit &hit)
    {
        if (!stillMaps(hit))
            return false;
        Entry &e = _entries[hit.index];
        ++_accesses;
        e.lastUse = ++_useStamp;
        _hints[hintSlot(e.vpn)] = hit.index;
        return true;
    }

    /**
     * Apply what @p cycles rounds of translating @p hits in order
     * would do, every page still mapped where it was (stillMaps())
     * throughout: the accesses and, in closed form, the LRU stamps
     * (only the last round's survive).
     */
    void replayHits(std::span<const TlbHit> hits, CycleDelta cycles);

    /** Advances on every translation: an unchanged value means no
     *  entry was filled, evicted or re-stamped in between. */
    uint64_t useStamp() const { return _useStamp; }

    uint64_t accesses() const { return _accesses; }
    uint64_t misses() const { return _misses; }
    CycleDelta missPenalty() const { return _missPenalty; }

    void
    resetStats()
    {
        _accesses = 0;
        _misses = 0;
    }

    /** Register accesses, misses, and miss_rate under @p prefix. */
    void registerStats(StatsRegistry &reg, const std::string &prefix) const;

  private:
    struct Entry
    {
        uint64_t vpn = 0;
        bool valid = false;
        uint64_t lastUse = 0;
    };

    uint64_t vpnOf(Addr vaddr) const { return vaddr.raw() >> _pageShift; }
    /** The way-hint slot of @p vpn: its high bits folded onto the low. */
    size_t
    hintSlot(uint64_t vpn) const
    {
        return size_t((vpn ^ (vpn >> _hintShift)) & (_hints.size() - 1));
    }
    /** Index of the entry mapping @p vaddr's page, or
     *  _entries.size(). */
    size_t find(Addr vaddr) const;

    std::vector<Entry> _entries;
    /** Way hints: the entry that last mapped a VPN of each slot. A
     *  hint counts only if that entry still maps the VPN looked up;
     *  otherwise find() scans. A power of two, at least twice the
     *  entry count, so resident pages rarely share a slot. */
    std::vector<uint32_t> _hints;
    unsigned _hintShift;
    unsigned _pageShift;
    CycleDelta _missPenalty;
    uint64_t _useStamp = 0;
    uint64_t _accesses = 0;
    uint64_t _misses = 0;
};

} // namespace psb

#endif // PSB_MEMORY_TLB_HH
