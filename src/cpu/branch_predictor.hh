/**
 * @file
 * McFarling gshare branch direction predictor [20] plus a small BTB,
 * driving the baseline fetch unit ("We use a McFarling gshare predictor
 * to drive our fetch unit. Two predictions can be made per cycle with
 * up to 8 instructions fetched", paper §5.1).
 */

#ifndef PSB_CPU_BRANCH_PREDICTOR_HH
#define PSB_CPU_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "trace/micro_op.hh"
#include "util/sat_counter.hh"

namespace psb
{

/** gshare configuration. */
struct GshareConfig
{
    unsigned historyBits = 14;  ///< 16K-entry pattern history table
    unsigned btbEntries = 512;
    unsigned btbAssoc = 4;

    bool operator==(const GshareConfig &) const = default;
};

/** gshare + BTB. The trace-driven core resolves branches at execute
 *  time; predict() and update() are separated so the caller can model
 *  the delay between the two. */
class GsharePredictor
{
  public:
    explicit GsharePredictor(const GshareConfig &cfg = {});

    /**
     * Predict the branch at @p pc.
     * @param predicted_target Out: BTB target (0 when the BTB misses).
     * @return Predicted direction.
     */
    bool predict(Addr pc, Addr &predicted_target) const;

    /**
     * Update predictor state with the resolved outcome and return
     * whether the fetch engine had been steered correctly (direction
     * right, and for taken branches a matching BTB target).
     */
    bool update(Addr pc, bool taken, Addr target);

    uint64_t lookups() const { return _lookups; }
    uint64_t mispredicts() const { return _mispredicts; }

  private:
    unsigned phtIndex(Addr pc) const;
    unsigned btbSet(Addr pc) const;

    struct BtbEntry
    {
        Addr pc{};
        Addr target{};
        bool valid = false;
        uint64_t lastUse = 0;
    };

    GshareConfig _cfg;
    std::vector<SatCounter> _pht;
    std::vector<BtbEntry> _btb;
    uint64_t _history = 0;
    uint64_t _historyMask;
    uint64_t _useStamp = 0;
    mutable uint64_t _lookups = 0;
    uint64_t _mispredicts = 0;
};

} // namespace psb

#endif // PSB_CPU_BRANCH_PREDICTOR_HH
