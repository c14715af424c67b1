/**
 * @file
 * Differential Markov table — the paper's space reduction (§4.2):
 * instead of absolute next addresses, each entry stores only the
 * *difference* between consecutive cache-miss addresses, counted in
 * cache blocks. With 16-bit entries and 2K entries the data storage is
 * 4 KB, and Figure 4 shows 16 bits capture almost all transitions.
 *
 * A transition whose block delta does not fit the configured bit width
 * cannot be represented and is simply not recorded — exactly the
 * coverage loss Figure 4 quantifies; experiments/fig4.json sweeps the
 * width to regenerate that figure.
 */

#ifndef PSB_PREDICTORS_DIFF_MARKOV_TABLE_HH
#define PSB_PREDICTORS_DIFF_MARKOV_TABLE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "trace/micro_op.hh"
#include "util/hot_path.hh"

namespace psb
{

/** Differential Markov table shape. Defaults match the paper. */
struct DiffMarkovConfig
{
    unsigned entries = 2048;  ///< power of two
    unsigned blockBytes = 32; ///< granularity of the stored deltas
    unsigned deltaBits = 16;  ///< signed width of the stored difference
    unsigned tagBits = 16;    ///< partial-tag width

    bool operator==(const DiffMarkovConfig &) const = default;
};

/** Direct-mapped, partial-tagged, delta-compressed Markov table. */
class DiffMarkovTable
{
  public:
    explicit DiffMarkovTable(const DiffMarkovConfig &cfg = {});

    /**
     * Record the transition @p from -> @p to.
     * @retval true when the delta fit in deltaBits and was recorded.
     */
    bool update(BlockAddr from, BlockAddr to);

    /**
     * Predict the block that followed @p from: the indexing block
     * plus the stored signed delta (paper: "a stream buffer adds its
     * last missing address to the signed offset contained in the
     * table").
     */
    PSB_HOT_PATH std::optional<BlockAddr> lookup(BlockAddr from) const;

    /** Transitions rejected because the delta overflowed deltaBits. */
    uint64_t overflows() const { return _overflows; }

    /** Transitions recorded. */
    uint64_t updates() const { return _updates; }

    /** Zero the update/overflow counters (end-of-warm-up); the table
     *  contents are state, not statistics, and are kept. The counters
     *  are exported by the owning SfmPredictor::registerStats() via
     *  the updates()/overflows()/population() accessors (the cross-TU
     *  registration psb_analyze verifies). */
    void
    resetStats() // psb-analyze: allow(R2)
    {
        _overflows = 0;
        _updates = 0;
    }

    uint64_t population() const;

    /** Bytes of delta data storage (entries * deltaBits / 8). */
    uint64_t dataBytes() const;

    const DiffMarkovConfig &config() const { return _cfg; }

  private:
    struct Entry
    {
        uint32_t tag = 0;
        BlockDelta delta{};
        bool valid = false;
    };

    unsigned indexOf(BlockAddr block) const;
    uint32_t tagOf(BlockAddr block) const;

    DiffMarkovConfig _cfg;
    unsigned _indexBits;
    std::vector<Entry> _entries;
    uint64_t _overflows = 0;
    uint64_t _updates = 0;
};

} // namespace psb

#endif // PSB_PREDICTORS_DIFF_MARKOV_TABLE_HH
