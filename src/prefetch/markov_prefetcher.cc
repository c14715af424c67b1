#include "prefetch/markov_prefetcher.hh"

namespace psb
{

MarkovPrefetcher::MarkovPrefetcher(MemoryHierarchy &hierarchy,
                                   const MarkovTableConfig &table)
    : FifoBufferPrefetcher(hierarchy, PredictionSource::Markov),
      _table(table), _badness(table.entries, 0)
{
}

void
MarkovPrefetcher::prefetchRetired(BlockAddr source, bool used)
{
    // "When a prefetch is discarded from the prefetch buffer without
    // being used, the corresponding counter is incremented."
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
    // "When the sign bit of the counter is set, the relevant entry in
    // the prediction table is disabled."
    return (_badness[source.raw() & (_badness.size() - 1)] & 0x2) != 0;
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
                prefetchRetired(_lastMiss, *pred == block);
        }
        // Record the global miss-to-miss transition.
        _table.update(_lastMiss, block);
    }
    _lastMiss = block;
    _haveLastMiss = true;
}

void
MarkovPrefetcher::demandMiss(Addr, Addr addr, Cycle)
{
    BlockAddr block = releaseLateTags(addr);
    // One-shot: predict the successor of this miss, then idle until
    // the next miss. No re-indexing with predicted addresses.
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
MarkovPrefetcher::registerStats(StatsRegistry &reg,
                                const std::string &prefix) const
{
    Prefetcher::registerStats(reg, prefix);
    reg.addScalar(prefix + ".disabled_suppressed",
                  &_disabledSuppressed);
}

} // namespace psb
