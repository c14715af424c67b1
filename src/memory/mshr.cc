#include "memory/mshr.hh"

#include "util/logging.hh"
#include "util/stats.hh"
#include "util/trace.hh"

namespace psb
{

MshrFile::MshrFile(unsigned num_entries, const char *name)
    : _capacity(num_entries), _name(name), _entries(num_entries)
{
    psb_assert(num_entries > 0, "MSHR file needs at least one entry");
}

void
MshrFile::retire(Cycle now)
{
    if (_liveCount == 0 || now < _minReady)
        return; // nothing can have completed yet
    Cycle next = Cycle::max();
    _signature = 0;
    for (auto &e : _entries) {
        if (!e.valid)
            continue;
        if (e.ready <= now) {
            e.valid = false;
            --_liveCount;
            continue;
        }
        next = minCycle(next, e.ready);
        _signature |= signatureBit(e.block);
    }
    _minReady = next;
}

std::optional<Cycle>
MshrFile::lookup(BlockAddr block, Cycle now)
{
    retire(now);
    if (!(_signature & signatureBit(block)))
        return std::nullopt;
    for (auto &e : _entries) {
        if (e.valid && e.block == block) {
            ++_merges;
            PSB_TRACE(Mshr, "merge", -1, "file=%s block=%llu ready=%llu",
                      _name, (unsigned long long)block.raw(),
                      (unsigned long long)e.ready.raw());
            return e.ready;
        }
    }
    return std::nullopt;
}

void
MshrFile::allocate(BlockAddr block, Cycle ready)
{
    for (auto &e : _entries) {
        if (e.valid && e.block == block)
            panic("MSHR double-allocation of block %#llx",
                  (unsigned long long)block.raw());
    }
    for (auto &e : _entries) {
        if (!e.valid) {
            e.valid = true;
            e.block = block;
            e.ready = ready;
            ++_liveCount;
            if (ready < _minReady)
                _minReady = ready;
            _signature |= signatureBit(block);
            ++_allocations;
            PSB_TRACE(Mshr, "allocate", -1,
                      "file=%s block=%llu ready=%llu", _name,
                      (unsigned long long)block.raw(),
                      (unsigned long long)ready.raw());
            return;
        }
    }
    panic("MSHR allocate with no free entry; call full() first");
}

unsigned
MshrFile::occupancy(Cycle now)
{
    retire(now);
    return _liveCount;
}

void
MshrFile::registerStats(StatsRegistry &reg, const std::string &prefix) const
{
    reg.addScalar(prefix + ".allocations", &_allocations);
    reg.addScalar(prefix + ".merges", &_merges);
    reg.addScalar(prefix + ".capacity", [this] { return uint64_t(_capacity); });
}

} // namespace psb
