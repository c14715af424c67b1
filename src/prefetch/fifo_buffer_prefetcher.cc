#include "prefetch/fifo_buffer_prefetcher.hh"

namespace psb
{

PrefetchLookup
FifoBufferPrefetcher::lookup(Addr addr, Cycle now)
{
    ++_stats.lookups;
    PrefetchLookup result;
    BlockAddr block = _hierarchy.blockOf(addr);

    for (auto &e : _buffer) {
        if (!e.valid || e.block != block)
            continue;
        if (!e.prefetched) {
            // Not yet issued: nothing to provide; reconciled on the
            // demand-fill path.
            return result;
        }
        ++_stats.hits;
        result.hit = true;
        result.ready = e.ready;
        result.dataPending = e.ready > now;
        if (result.dataPending)
            ++_stats.hitsPending;
        prefetchRetired(e.sourceBlock, /*used=*/true);
        _attrib.use(e.lineage, now, e.ready);
        e.valid = false;
        return result;
    }
    return result;
}

BlockAddr
FifoBufferPrefetcher::releaseLateTags(Addr addr)
{
    BlockAddr block = _hierarchy.blockOf(addr);
    for (auto &e : _buffer) {
        if (e.valid && !e.prefetched && e.block == block) {
            ++_stats.lateTagHits;
            e.valid = false;
        }
    }
    ++_stats.allocationRequests;
    return block;
}

void
FifoBufferPrefetcher::enqueue(BlockAddr block, BlockAddr source)
{
    // Already queued or in flight: nothing to do.
    for (const auto &e : _buffer) {
        if (e.valid && e.block == block)
            return;
    }
    // Replace an invalid entry, else the FIFO-oldest one.
    BufEntry *victim = &_buffer[0];
    for (auto &e : _buffer) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.fifoStamp < victim->fifoStamp)
            victim = &e;
    }
    if (victim->valid && victim->prefetched) {
        prefetchRetired(victim->sourceBlock, /*used=*/false);
        _attrib.terminal(victim->lineage, PrefetchOutcomeKind::Replaced);
    }
    *victim = BufEntry{};
    victim->block = block;
    victim->sourceBlock = source;
    victim->valid = true;
    victim->fifoStamp = ++_stamp;
}

void
FifoBufferPrefetcher::tick(Cycle now)
{
    if (!_hierarchy.l1ToL2BusFree(now))
        return;
    // Issue the FIFO-oldest queued prefetch.
    BufEntry *oldest = nullptr;
    for (auto &e : _buffer) {
        if (e.valid && !e.prefetched &&
            (!oldest || e.fifoStamp < oldest->fifoStamp)) {
            oldest = &e;
        }
    }
    if (!oldest)
        return;
    PrefetchOutcome outcome = _hierarchy.prefetch(oldest->block, now);
    oldest->prefetched = true;
    oldest->ready = outcome.ready;
    PrefetchOrigin origin;
    origin.source = _source;
    origin.slot = int(oldest - _buffer.data());
    oldest->lineage = _attrib.issue(
        origin, oldest->block, now, outcome.ready,
        _hierarchy.demandHasBlock(oldest->block, now));
}

bool
FifoBufferPrefetcher::fastForwardTicks(Cycle from, uint64_t n)
{
    // An idle tick here touches no state at all (the bus gate and the
    // empty scan both return without counting), so a span is
    // replayable iff nothing is queued, or something is queued but
    // the bus stays busy for the whole span.
    for (const auto &e : _buffer) {
        if (e.valid && !e.prefetched)
            return _hierarchy.l1L2Bus().freeCyclesIn(from, n) == 0;
    }
    return true;
}

} // namespace psb
