/**
 * @file
 * Demand-based Markov prefetcher (Joseph & Grunwald [18]), paper §3.2:
 * on a cache miss, the miss address indexes a Markov table and the
 * recorded successors are prefetched; the prefetcher then idles until
 * the next miss — predicted addresses are *not* fed back to generate
 * further predictions. Contrast with the PSB, which re-feeds its own
 * predictions through per-stream history and therefore runs ahead.
 *
 * Included as a historical baseline for the ablation benches: it
 * isolates how much of PSB's win comes from the running-ahead
 * structure rather than from Markov prediction itself.
 */

#ifndef PSB_PREFETCH_MARKOV_PREFETCHER_HH
#define PSB_PREFETCH_MARKOV_PREFETCHER_HH

#include <vector>

#include "memory/hierarchy.hh"
#include "predictors/markov_table.hh"
#include "prefetch/prefetcher.hh"

namespace psb
{

/** One-shot, miss-triggered Markov prefetcher with the accuracy-based
 *  adaptivity of [18]: a two-bit saturating counter per prediction
 *  entry is incremented when its prefetch is discarded unused and
 *  decremented when used; entries whose counter's sign bit is set are
 *  disabled, but their requests keep being tracked so they re-enable
 *  once they start predicting correctly again. */
class MarkovPrefetcher : public Prefetcher
{
  public:
    MarkovPrefetcher(MemoryHierarchy &hierarchy,
                     const MarkovTableConfig &table = {},
                     unsigned buffer_entries = 16,
                     bool adaptive = true);

    PrefetchLookup lookup(Addr addr, Cycle now) override;
    void trainLoad(Addr pc, Addr addr, bool l1_miss,
                   bool store_forwarded) override;
    void demandMiss(Addr pc, Addr addr, Cycle now) override;
    void tick(Cycle now) override;
    bool fastForwardTicks(Cycle from, uint64_t n) override;
    /** A queued entry becomes prefetched, the only change that
     *  turns a missing lookup into a hit, through
     *  MemoryHierarchy::prefetch() (tick()). */
    uint64_t hitEpoch() const override { return 1; }
    void replayMissedLookups(uint64_t n) override { _stats.lookups += n; }
    const PrefetcherStats &stats() const override { return _stats; }

    void
    resetStats() override
    {
        _stats = PrefetcherStats{};
        _disabledSuppressed = 0;
        _attrib.resetStats();
    }

    /** Common prefetcher stats plus the adaptivity suppression
     *  counter (prefix.disabled_suppressed). */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const override;

    const MarkovTable &table() const { return _table; }

  private:
    struct BufEntry
    {
        BlockAddr block{};
        BlockAddr sourceBlock{}; ///< table entry that predicted this
        bool valid = false;
        bool prefetched = false;
        Cycle ready{};
        uint64_t fifoStamp = 0;
        uint64_t lineage = 0; ///< attribution id (0 until issued)
    };

    void enqueue(BlockAddr block, BlockAddr source);
    void creditSource(BlockAddr source, bool used);
    bool sourceDisabled(BlockAddr source) const;

    MemoryHierarchy &_hierarchy;
    MarkovTable _table;
    std::vector<BufEntry> _buffer;
    BlockAddr _lastMiss{};
    bool _haveLastMiss = false;
    bool _adaptive;
    /** Two-bit accuracy counters keyed like the Markov table. */
    std::vector<uint8_t> _badness;
    uint64_t _disabledSuppressed = 0;
    uint64_t _stamp = 0;
    PrefetcherStats _stats;

  public:
    /** Predictions suppressed by the adaptivity counters (stat). */
    uint64_t disabledSuppressed() const { return _disabledSuppressed; }
};

} // namespace psb

#endif // PSB_PREFETCH_MARKOV_PREFETCHER_HH
