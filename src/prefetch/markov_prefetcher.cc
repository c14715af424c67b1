#include "prefetch/markov_prefetcher.hh"

namespace psb
{

MarkovPrefetcher::MarkovPrefetcher(MemoryHierarchy &hierarchy,
                                   const MarkovTableConfig &table,
                                   unsigned buffer_entries,
                                   bool adaptive)
    : _hierarchy(hierarchy), _table(table), _buffer(buffer_entries),
      _adaptive(adaptive), _badness(table.entries, 0)
{
}

void
MarkovPrefetcher::creditSource(BlockAddr source, bool used)
{
    if (!_adaptive)
        return;
    uint8_t &ctr = _badness[source.raw() & (_badness.size() - 1)];
    if (used) {
        if (ctr > 0)
            --ctr;
    } else {
        if (ctr < 3)
            ++ctr;
    }
}

bool
MarkovPrefetcher::sourceDisabled(BlockAddr source) const
{
    if (!_adaptive)
        return false;
    // "When the sign bit of the counter is set, the relevant entry in
    // the prediction table is disabled."
    return (_badness[source.raw() & (_badness.size() - 1)] & 0x2) != 0;
}

PrefetchLookup
MarkovPrefetcher::lookup(Addr addr, Cycle now)
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
        creditSource(e.sourceBlock, /*used=*/true);
        _attrib.use(e.lineage, now, e.ready);
        e.valid = false;
        return result;
    }
    return result;
}

bool
MarkovPrefetcher::lookupWouldHit(Addr addr) const
{
    const BlockAddr block = _hierarchy.blockOf(addr);
    for (const auto &e : _buffer) {
        if (e.valid && e.block == block)
            return e.prefetched;
    }
    return false;
}

void
MarkovPrefetcher::trainLoad(Addr, Addr addr, bool l1_miss,
                            bool store_forwarded)
{
    if (!l1_miss || store_forwarded)
        return;
    BlockAddr block = _hierarchy.blockOf(addr);
    if (_haveLastMiss && _lastMiss != block) {
        // "Prefetch requests from disabled entries are tracked so
        // that they can be enabled when they start making correct
        // predictions": score the suppressed prediction against the
        // observed transition.
        if (sourceDisabled(_lastMiss)) {
            if (auto pred = _table.lookup(_lastMiss))
                creditSource(_lastMiss, *pred == block);
        }
        // Record the global miss-to-miss transition.
        _table.update(_lastMiss, block);
    }
    _lastMiss = block;
    _haveLastMiss = true;
}

void
MarkovPrefetcher::enqueue(BlockAddr block, BlockAddr source)
{
    for (const auto &e : _buffer) {
        if (e.valid && e.block == block)
            return;
    }
    BufEntry *victim = &_buffer[0];
    for (auto &e : _buffer) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.fifoStamp < victim->fifoStamp)
            victim = &e;
    }
    // "When a prefetch is discarded from the prefetch buffer without
    // being used, the corresponding counter is incremented."
    if (victim->valid && victim->prefetched) {
        creditSource(victim->sourceBlock, /*used=*/false);
        _attrib.terminal(victim->lineage, PrefetchOutcomeKind::Replaced);
    }
    *victim = BufEntry{};
    victim->block = block;
    victim->sourceBlock = source;
    victim->valid = true;
    victim->fifoStamp = ++_stamp;
}

void
MarkovPrefetcher::demandMiss(Addr, Addr addr, Cycle)
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
    // One-shot: predict the successor of this miss, then idle until
    // the next miss. No re-indexing with predicted addresses.
    BlockAddr block = _hierarchy.blockOf(addr);
    if (auto next = _table.lookup(block)) {
        // Disabled entries issue no prefetch; trainLoad() keeps
        // scoring them so they re-enable once correct again.
        if (sourceDisabled(block)) {
            ++_disabledSuppressed;
        } else {
            ++_stats.predictions;
            enqueue(*next, block);
        }
    }
}

void
MarkovPrefetcher::tick(Cycle now)
{
    if (!_hierarchy.l1ToL2BusFree(now))
        return;
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
    origin.source = PredictionSource::Markov;
    origin.slot = int(oldest - _buffer.data());
    oldest->lineage = _attrib.issue(
        origin, oldest->block, now, outcome.ready,
        _hierarchy.demandHasBlock(oldest->block, now));
}

bool
MarkovPrefetcher::fastForwardTicks(Cycle from, uint64_t n)
{
    // Same reasoning as NextLinePrefetcher: idle ticks are stat-free,
    // so quiescence (or a bus busy for the whole span) suffices.
    for (const auto &e : _buffer) {
        if (e.valid && !e.prefetched)
            return _hierarchy.l1L2Bus().freeCyclesIn(from, n) == 0;
    }
    return true;
}

void
MarkovPrefetcher::registerStats(StatsRegistry &reg,
                                const std::string &prefix) const
{
    Prefetcher::registerStats(reg, prefix);
    reg.addScalar(prefix + ".disabled_suppressed",
                  &_disabledSuppressed);
}

} // namespace psb
