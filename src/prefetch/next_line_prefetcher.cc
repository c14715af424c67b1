#include "prefetch/next_line_prefetcher.hh"

namespace psb
{

NextLinePrefetcher::NextLinePrefetcher(MemoryHierarchy &hierarchy,
                                       unsigned buffer_entries,
                                       unsigned degree)
    : _hierarchy(hierarchy), _degree(degree), _buffer(buffer_entries)
{
}

PrefetchLookup
NextLinePrefetcher::lookup(Addr addr, Cycle now)
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
        _attrib.use(e.lineage, now, e.ready);
        e.valid = false;
        return result;
    }
    return result;
}

void
NextLinePrefetcher::trainLoad(Addr, Addr, bool, bool)
{
}

void
NextLinePrefetcher::enqueue(BlockAddr block)
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
    if (victim->valid && victim->prefetched)
        _attrib.terminal(victim->lineage, PrefetchOutcomeKind::Replaced);
    *victim = BufEntry{};
    victim->block = block;
    victim->valid = true;
    victim->fifoStamp = ++_stamp;
}

void
NextLinePrefetcher::demandMiss(Addr, Addr addr, Cycle)
{
    // Release any matching prediction whose prefetch never issued.
    BlockAddr fill_block = _hierarchy.blockOf(addr);
    for (auto &e : _buffer) {
        if (e.valid && !e.prefetched && e.block == fill_block) {
            ++_stats.lateTagHits;
            e.valid = false;
        }
    }
    ++_stats.allocationRequests;
    BlockAddr block = _hierarchy.blockOf(addr);
    for (unsigned d = 1; d <= _degree; ++d) {
        ++_stats.predictions;
        enqueue(block + BlockDelta(d));
    }
}

void
NextLinePrefetcher::tick(Cycle now)
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
    origin.source = PredictionSource::NextLine;
    origin.slot = int(oldest - _buffer.data());
    oldest->lineage = _attrib.issue(
        origin, oldest->block, now, outcome.ready,
        _hierarchy.demandHasBlock(oldest->block, now));
}

bool
NextLinePrefetcher::fastForwardTicks(Cycle from, uint64_t n)
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
