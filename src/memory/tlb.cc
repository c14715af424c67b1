#include "memory/tlb.hh"

#include <bit>

#include "util/stats.hh"

#include "util/bitfield.hh"
#include "util/logging.hh"

namespace psb
{

Tlb::Tlb(unsigned num_entries, uint64_t page_bytes, CycleDelta miss_penalty)
    : _entries(num_entries), _hints(std::bit_ceil(2 * size_t(num_entries))),
      _hintShift(unsigned(std::countr_zero(_hints.size()))),
      _pageShift(unsigned(std::countr_zero(page_bytes))),
      _missPenalty(miss_penalty)
{
    psb_assert(num_entries > 0, "TLB needs at least one entry");
    psb_assert(isPowerOf2(page_bytes), "page size must be a power of two");
}

size_t
Tlb::find(Addr vaddr) const
{
    const uint64_t vpn = vpnOf(vaddr);
    const size_t hinted = _hints[hintSlot(vpn)];
    if (_entries[hinted].valid && _entries[hinted].vpn == vpn)
        return hinted;
    for (size_t i = 0; i < _entries.size(); ++i) {
        if (_entries[i].valid && _entries[i].vpn == vpn)
            return i;
    }
    return _entries.size();
}

CycleDelta
Tlb::translate(Addr vaddr)
{
    ++_accesses;
    size_t idx = find(vaddr);
    CycleDelta penalty{};
    if (idx == _entries.size()) {
        ++_misses;
        Entry *victim = &_entries[0];
        for (auto &e : _entries) {
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (e.lastUse < victim->lastUse)
                victim = &e;
        }
        victim->valid = true;
        victim->vpn = vpnOf(vaddr);
        idx = size_t(victim - _entries.data());
        penalty = _missPenalty;
    }
    _entries[idx].lastUse = ++_useStamp;
    _hints[hintSlot(_entries[idx].vpn)] = uint32_t(idx);
    return penalty;
}

bool
Tlb::probe(Addr vaddr) const
{
    return find(vaddr) < _entries.size();
}

TlbHit
Tlb::resident(Addr vaddr) const
{
    const size_t idx = find(vaddr);
    psb_assert(idx < _entries.size(), "page not resident");
    return TlbHit{vaddr, uint32_t(idx)};
}

void
Tlb::replayHits(std::span<const TlbHit> hits, CycleDelta cycles)
{
    _accesses += cycles.raw() * hits.size();
    uint64_t stamp = _useStamp + (cycles.raw() - 1) * hits.size();
    for (const TlbHit &hit : hits) {
        psb_assert(stillMaps(hit), "replayed page not resident");
        _entries[hit.index].lastUse = ++stamp;
        _hints[hintSlot(_entries[hit.index].vpn)] = hit.index;
    }
    _useStamp = stamp;
}

void
Tlb::registerStats(StatsRegistry &reg, const std::string &prefix) const
{
    reg.addScalar(prefix + ".accesses", &_accesses);
    reg.addScalar(prefix + ".misses", &_misses);
    reg.addReal(prefix + ".miss_rate",
                [this] { return ratio(_misses, _accesses); });
}

} // namespace psb
