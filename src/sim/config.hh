/**
 * @file
 * Top-level simulation configuration: core + memory + prefetcher
 * selection. The defaults reproduce the paper's baseline machine
 * (§5.1) with no prefetching; helpers build the six prefetching
 * configurations evaluated in §6 (PCStride, and PSB with
 * {2Miss, ConfAlloc} x {RR, Priority}).
 */

#ifndef PSB_SIM_CONFIG_HH
#define PSB_SIM_CONFIG_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/psb.hh"
#include "cpu/ooo_core.hh"
#include "memory/hierarchy.hh"
#include "predictors/sfm_predictor.hh"

namespace psb
{

/** Which prefetcher sits beside the L1D. */
enum class PrefetcherKind
{
    None,         ///< baseline, no prefetching
    PcStride,     ///< Farkas et al. PC-stride stream buffers
    Psb,          ///< predictor-directed stream buffers (SFM)
    Sequential,   ///< Jouppi sequential stream buffers
    NextLine,     ///< Smith next-line prefetching
    MarkovDemand, ///< Joseph & Grunwald demand Markov prefetcher
    MinDelta,     ///< Palacharla & Kessler minimum-delta buffers
};

const char *prefetcherKindName(PrefetcherKind kind);

/** Everything needed to build one simulation. */
struct SimConfig
{
    CoreConfig core;
    MemoryConfig memory;

    PrefetcherKind prefetcher = PrefetcherKind::None;
    PsbConfig psb;              ///< policies for Psb/PcStride kinds
    SfmConfig sfm;              ///< predictor for the Psb kind
    StrideTableConfig stride;   ///< table for the PcStride kind
    /**
     * For the Psb kind: 0 directs the buffers with the SFM predictor
     * (the paper's choice); k > 0 uses the order-k ContextPredictor
     * instead (paper §2.2's higher-order comparison).
     */
    unsigned psbContextOrder = 0;

    uint64_t warmupInstructions = 200'000;
    uint64_t maxInstructions = 2'000'000;

    /**
     * Event-driven fast-forward: skip cycles in which provably
     * nothing can happen (no commit, issue, fetch, or prefetcher
     * activity), replaying their only side effects (cycle and
     * idle-arbitration counters) in O(1). Results are byte-identical
     * with the flag on or off (tested in tests/test_properties.cc);
     * the off switch exists for A/B timing and for that test. Off
     * also turns off every other shortcut of DESIGN.md §11 (the
     * idle-core replay, parked MSHR-full retries), so it selects a
     * naive stepper that the shortcuts are compared with.
     */
    bool fastForward = true;

    /**
     * Keep derived block sizes consistent: the stream buffers and
     * prediction tables operate at the L1D line granularity.
     */
    void harmonize();

    /**
     * Check every value the config keys can set against the domain
     * the components accept (a power-of-two L1D set count, 1..64
     * buffer entries, 2..63 delta bits, ...), so a bad value is a
     * clean error instead of a constructor assertion or a SIGFPE.
     * Call after harmonize().
     * @param error Names the offending key when returning false.
     */
    bool validate(std::string &error) const;

    /** A short label like "ConfAlloc-Priority" or "PCStride". */
    std::string label() const;

    /** Field for field (every nested config struct defaults == too). */
    bool operator==(const SimConfig &) const = default;
};

/**
 * Strict decimal parse of a non-negative integer: digits only, the
 * whole token, at most 2^64 - 1. The one number parser behind config
 * keys and the tools' numeric flags.
 * @retval false on an empty, signed, partial or out-of-range token.
 */
bool parseUInt(const std::string &value, uint64_t &out);

/**
 * Every key accepted by applyConfigKey(), sorted, for error messages
 * and for spec validation (the sweep engine's "base"/"axes" sections
 * use exactly these names, which mirror the psb-sim flags).
 */
const std::vector<std::string> &simConfigKeys();

/** Whether @p key is one of simConfigKeys(). */
bool isConfigKey(const std::string &key);

/**
 * Apply one "key = value" pair to @p cfg, strictly: an unknown key, a
 * malformed value, or an out-of-domain enum name is an error, never
 * silently ignored (a typo'd key in a sweep spec would otherwise run
 * the wrong machine and report it under the right label).
 *
 * Keys mirror the psb-sim flags: prefetcher, alloc, sched, insts,
 * warmup, l1d-kb, l1d-assoc, buffers, entries, markov-entries,
 * delta-bits, order, tlb-cache, fastforward, plus
 *   - config: one of the six paperConfigName() strings; sets only
 *     prefetcher/alloc/sched, copied from makePaperConfig();
 *   - sfm-mode: sfm|stride-only|markov-only;
 *   - aging: priority aging period; conf-threshold: confidence
 *     allocation threshold;
 *   - disambig: perfect|none|learned.
 * Values are flat tokens ("psb", "32", "true").
 *
 * @param error Set to a message naming the key (and the accepted
 *        grammar where helpful) when returning false.
 * @retval true when @p cfg was updated.
 */
bool applyConfigKey(SimConfig &cfg, const std::string &key,
                    const std::string &value, std::string &error);

/**
 * Apply an ordered key/value list (later entries win), then
 * harmonize() and validate() the result. Rejects "config" together
 * with any of "prefetcher", "alloc" or "sched": a paper machine name
 * and a hand-picked policy would each silently undo the other.
 * The one path from flags and sweep specs to a runnable SimConfig.
 */
bool applyConfigKeys(
    SimConfig &cfg,
    const std::vector<std::pair<std::string, std::string>> &settings,
    std::string &error);

/** The paper's five prefetching configurations plus the baseline. */
enum class PaperConfig
{
    Base,
    PcStride,
    TwoMissRR,
    TwoMissPriority,
    ConfAllocRR,
    ConfAllocPriority,
};

/** All six, in the paper's figure order. */
constexpr PaperConfig paperConfigs[] = {
    PaperConfig::Base,
    PaperConfig::PcStride,
    PaperConfig::TwoMissRR,
    PaperConfig::TwoMissPriority,
    PaperConfig::ConfAllocRR,
    PaperConfig::ConfAllocPriority,
};

const char *paperConfigName(PaperConfig cfg);

/** Build a SimConfig for one of the paper's evaluated machines. */
SimConfig makePaperConfig(PaperConfig cfg);

} // namespace psb

#endif // PSB_SIM_CONFIG_HH
