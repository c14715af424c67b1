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

#include "predictors/markov_table.hh"
#include "prefetch/fifo_buffer_prefetcher.hh"

namespace psb
{

/** One-shot, miss-triggered Markov prefetcher with the accuracy-based
 *  adaptivity of [18]: a two-bit saturating counter per prediction
 *  entry is incremented when its prefetch is discarded unused and
 *  decremented when used; entries whose counter's sign bit is set are
 *  disabled, but their requests keep being tracked so they re-enable
 *  once they start predicting correctly again. */
class MarkovPrefetcher final : public FifoBufferPrefetcher
{
  public:
    MarkovPrefetcher(MemoryHierarchy &hierarchy,
                     const MarkovTableConfig &table = {});

    void trainLoad(Addr pc, Addr addr, bool l1_miss,
                   bool store_forwarded) override;
    void demandMiss(Addr pc, Addr addr, Cycle now) override;

    void
    resetStats() override
    {
        FifoBufferPrefetcher::resetStats();
        _disabledSuppressed = 0;
    }

    /** Common prefetcher stats plus the adaptivity suppression
     *  counter (prefix.disabled_suppressed). */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const override;

    /** Predictions suppressed by the adaptivity counters (stat). */
    uint64_t disabledSuppressed() const { return _disabledSuppressed; }

  private:
    /** Score the table entry of @p source (the adaptivity counter). */
    void prefetchRetired(BlockAddr source, bool used) override;
    bool sourceDisabled(BlockAddr source) const;

    MarkovTable _table;
    BlockAddr _lastMiss{};
    bool _haveLastMiss = false;
    /** Two-bit accuracy counters keyed like the Markov table. */
    std::vector<uint8_t> _badness;
    uint64_t _disabledSuppressed = 0;
};

} // namespace psb

#endif // PSB_PREFETCH_MARKOV_PREFETCHER_HH
