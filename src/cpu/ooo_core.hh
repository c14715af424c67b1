/**
 * @file
 * The out-of-order processor timing model (paper §5.1): an 8-wide
 * dynamically scheduled core with a 128-entry re-order buffer, a
 * 64-entry load/store queue, a gshare-driven fetch unit making up to
 * two branch predictions per cycle, the paper's functional-unit pool
 * (8 int ALUs, 4 load/store units, 2 FP adders, 2 int MULT/DIV, 2 FP
 * MULT/DIV; divides unpipelined), an 8-cycle minimum branch
 * misprediction penalty, a 2-cycle store-forward latency, and
 * selectable memory disambiguation (perfect store sets / none /
 * learned).
 *
 * The model is trace-driven: it consumes MicroOps from a TraceSource,
 * so wrong-path execution is not simulated; a misprediction instead
 * stalls fetch until the branch resolves plus the refill penalty
 * (substitution documented in DESIGN.md §4).
 *
 * Loads look up the prefetcher in parallel with the L1D; the miss
 * accounting follows the paper ("an access to a cache block which is
 * not currently resident in the cache" is a miss, in-flight blocks
 * included), and the prefetcher is trained at execute/write-back on
 * the true miss stream with store-forwarded loads excluded.
 */

#ifndef PSB_CPU_OOO_CORE_HH
#define PSB_CPU_OOO_CORE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "cpu/branch_predictor.hh"
#include "cpu/store_sets.hh"
#include "memory/hierarchy.hh"
#include "prefetch/prefetcher.hh"
#include "trace/trace_source.hh"
#include "util/fixed_ring.hh"
#include "util/hot_path.hh"
#include "util/stats.hh"

namespace psb
{

/** Core parameters; defaults are the paper's baseline. */
struct CoreConfig
{
    unsigned fetchWidth = 8;
    unsigned issueWidth = 8;
    unsigned commitWidth = 8;
    unsigned maxBranchesPerFetch = 2;
    unsigned robEntries = 128;
    unsigned lsqEntries = 64;
    CycleDelta mispredictPenalty{8}; ///< minimum front-end refill
    CycleDelta storeForwardLatency{2};
    DisambiguationMode disambiguation = DisambiguationMode::Perfect;
    GshareConfig gshare;

    unsigned numIntAlu = 8;
    unsigned numLdSt = 4;
    unsigned numFpAdd = 2;
    unsigned numIntMulDiv = 2;
    unsigned numFpMulDiv = 2;

    bool operator==(const CoreConfig &) const = default;
};

/** Execution statistics gathered by the core. */
struct CoreStats
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t branches = 0;
    uint64_t mispredicts = 0;

    uint64_t l1dAccesses = 0;   ///< loads + committed stores
    uint64_t l1dHits = 0;
    uint64_t l1dMisses = 0;     ///< includes in-flight accesses (paper)
    uint64_t l1dInFlight = 0;   ///< of the misses, merged into a fill
    uint64_t sbServiced = 0;    ///< misses serviced by the prefetcher
    uint64_t storeForwards = 0;
    uint64_t mshrStallRetries = 0;
    uint64_t orderViolations = 0; ///< learned-disambiguation squashes

    Average loadLatency;        ///< issue-to-data cycles per load
    /** Issue-to-data cycles of L1D load misses (p50/p90/p99 export). */
    Histogram loadMissLatency{256};

    double ipc() const { return cycles ? double(instructions) / double(cycles) : 0.0; }
    double l1dMissRate() const { return ratio(l1dMisses, l1dAccesses); }
};

/** See file comment. */
class OoOCore
{
  public:
    OoOCore(const CoreConfig &cfg, MemoryHierarchy &hierarchy,
            Prefetcher &prefetcher, TraceSource &trace);

    /**
     * Advance one cycle: commit, issue, fetch (reverse pipeline order
     * so a result is visible to dependants one cycle later).
     * @retval false when the trace is exhausted and the pipeline empty.
     */
    PSB_HOT_PATH bool tick(Cycle now);

    /**
     * The earliest cycle after the last tick() at which this core can
     * make progress or change any stat, computed from pipeline wake
     * conditions (head commit time, operand readiness, fetch resume).
     * Cycle::max() means "no wake known" — callers must then tick
     * cycle by cycle. Every cycle strictly before the returned wake
     * is a pure idle tick (only the cycle counter advances), which is
     * what makes the simulator's fast-forward exact.
     */
    Cycle nextWake() const { return _nextWake; }

    /**
     * Account @p n skipped idle cycles: the only core-side effect of
     * an idle tick is the cycle counter.
     */
    void skipIdleCycles(uint64_t n) { _stats.cycles += n; }

    /** True when no more work remains. */
    bool done() const { return _traceDone && _rob.empty(); }

    const CoreStats &stats() const { return _stats; }

    /** Zero the statistics (end-of-warm-up). */
    void
    resetStats()
    {
        _stats = CoreStats{};
        _storeSets.resetStats();
    }

    /**
     * Register the execution stats under "core." plus the L1D
     * hit/miss accounting under "l1d." (the core keeps it because the
     * paper's miss definition depends on in-flight state the cache
     * cannot see).
     */
    void registerStats(StatsRegistry &reg) const;

    const GsharePredictor &branchPredictor() const { return _gshare; }

  private:
    struct RobEntry
    {
        MicroOp op;
        uint64_t seq = 0;
        Cycle doneAt{};
        bool issued = false;
        bool storeForwarded = false;
        uint64_t waitStoreSeq = 0; ///< learned store-set dependence
        /**
         * Youngest older aliasing store of a load, fixed at the first
         * execute attempt: effective addresses are known at dispatch
         * (trace-driven) and no older store can appear later. 0 = no
         * alias. Commit order guarantees a committed cached alias
         * means every older store has left the ROB, matching what a
         * fresh scan would find.
         */
        uint64_t aliasSeq = 0;
        bool aliasKnown = false;
    };

    static constexpr uint32_t noNode = UINT32_MAX;

    /**
     * Issue-scheduler state of one ROB slot (seq % robEntries); see
     * DESIGN.md "Core issue scheduling". Dependents are an intrusive
     * list threaded through the consumers' two source nodes (node
     * 2 * slot + source index).
     */
    struct SlotSched
    {
        Cycle readyAt{};              ///< max doneAt of issued producers
        uint8_t pendingSrcs = 0;      ///< producers not yet issued
        uint32_t dependents = noNode; ///< head of this slot's list
        std::array<uint32_t, 2> nextNode{noNode, noNode};
    };

    /** A consumer whose producers have all issued, waiting for the
     *  cycle its operands arrive. */
    struct TimedWake
    {
        Cycle at;
        uint32_t slot;

        /** std::greater<> over this makes the queue a min-heap. */
        bool operator>(const TimedWake &o) const { return at > o.at; }
    };

    PSB_HOT_PATH void commitStage(Cycle now);
    PSB_HOT_PATH void issueStage(Cycle now);
    void fetchStage(Cycle now);

    /** Pull _nextWake earlier, to the next cycle work could happen. */
    void
    clampWake(Cycle at)
    {
        if (at < _nextWake)
            _nextWake = at;
    }

    /** ROB entry with sequence number @p seq, or null once committed.
     *  Seqs are dense, so this is an index into the ring. Inline:
     *  called for every producer check and cached alias lookup. */
    const RobEntry *
    findEntry(uint64_t seq) const
    {
        if (_rob.empty() || seq < _rob.front().seq ||
            seq > _rob.back().seq)
            return nullptr;
        return &_rob[std::size_t(seq - _rob.front().seq)];
    }

    /** The scheduler-array index of the entry with @p seq. */
    uint32_t
    slotOf(uint64_t seq) const
    {
        return uint32_t(seq % _cfg.robEntries);
    }

    /** Resolve @p entry's source operands against their producers at
     *  dispatch: ready, folded into readyAt, or linked as dependent. */
    void linkOperands(const RobEntry &entry);
    /** Queue slot @p slot, whose producers have all issued. */
    void scheduleReady(uint32_t slot);
    /** @p entry issued: fold its doneAt into every dependent. */
    void wakeDependents(const RobEntry &entry);
    /** Attempt to issue the ready @p entry. @retval true = issued. */
    bool tryIssue(RobEntry &entry, Cycle now);

    bool fuAvailable(OpClass cls, Cycle now);
    void consumeFu(OpClass cls, Cycle now);
    CycleDelta execLatency(OpClass cls) const;

    /** @retval false when the load cannot issue this cycle. */
    bool executeLoad(RobEntry &entry, Cycle now);
    /** Store data-cache access at commit time. @retval false = stall. */
    bool commitStore(RobEntry &entry, Cycle now);

    CoreConfig _cfg;
    MemoryHierarchy &_hierarchy;
    Prefetcher &_prefetcher;
    TraceSource &_trace;
    GsharePredictor _gshare;
    StoreSetPredictor _storeSets;

    /** Preallocated at robEntries capacity: the ROB is a fixed
     *  hardware structure, and push/pop on the per-cycle hot path
     *  must not allocate (rule R10). */
    FixedRing<RobEntry> _rob;
    uint64_t _nextSeq = 1;
    unsigned _memOpsInRob = 0;
    unsigned _storesInRob = 0;   ///< skip the alias scan when zero
    std::array<uint64_t, numArchRegs> _regLastWriter{};

    // Issue scheduler, all sized once at construction (rule R10).
    std::vector<SlotSched> _slots;
    /** Min-heap on TimedWake::at over _timedCount live elements. */
    std::vector<TimedWake> _timed;
    std::size_t _timedCount = 0;
    /** Bit per slot: operands available, not yet issued. */
    std::vector<uint64_t> _readySlots;

    /** Earliest possible next activity (see nextWake()); recomputed
     *  by every tick(). Progress in a tick forces now + 1. */
    Cycle _nextWake{};
    bool _progress = false;

    bool _traceDone = false;
    MicroOp _pendingOp;
    bool _havePending = false;

    Cycle _fetchResumeAt{};
    static constexpr Cycle waitingForBranch = Cycle::max();
    uint64_t _redirectBranchSeq = 0;
    Addr _curFetchBlock = Addr::max();

    // Per-cycle functional-unit issue counters (pipelined units) and
    // busy-until times for the unpipelined divide units.
    Cycle _fuCountersCycle = Cycle::max();
    unsigned _usedIntAlu = 0;
    unsigned _usedLdSt = 0;
    unsigned _usedFpAdd = 0;
    unsigned _usedIntMul = 0;
    unsigned _usedFpMul = 0;
    std::vector<Cycle> _intDivFreeAt;
    std::vector<Cycle> _fpDivFreeAt;

    CoreStats _stats;
};

} // namespace psb

#endif // PSB_CPU_OOO_CORE_HH
