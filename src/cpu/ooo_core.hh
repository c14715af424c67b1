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
    /**
     * @param shortcuts Take the exact shortcut of DESIGN.md §11 that
     *        runs inside a tick: parking MSHR-stalled accesses (rule
     *        6). false makes the core a naive stepper that runs every
     *        attempt in full, the reference that
     *        SimConfig::fastForward = false selects.
     */
    OoOCore(const CoreConfig &cfg, MemoryHierarchy &hierarchy,
            Prefetcher &prefetcher, TraceSource &trace,
            bool shortcuts = true);

    /**
     * Advance one cycle: commit, issue, fetch (reverse pipeline order
     * so a result is visible to dependants one cycle later).
     * @retval false when the trace is exhausted and the pipeline empty.
     */
    PSB_HOT_PATH bool tick(Cycle now);

    /**
     * The earliest cycle after the last tick() at which this core can
     * make progress or change any stat other than by repeating that
     * tick's MSHR-full attempts, computed from pipeline wake
     * conditions (head commit time, operand readiness, fetch resume,
     * divide-unit release, the data MSHR file's next retirement).
     * Cycle::max() means "no wake known" — callers must then tick
     * cycle by cycle. Every cycle strictly before the returned wake
     * is an idle tick: the cycle counter advances and the last tick's
     * MSHR-stalled accesses repeat exactly (skipIdleCycles()). Call
     * it after the prefetcher's tick: a stalled access whose page
     * that tick evicted from the DTLB, or whose block the prefetcher
     * could now serve, would not repeat, so the wake is then the
     * next cycle. The hierarchy's wake log (MemoryHierarchy::
     * wakePending()) answers the second check.
     */
    Cycle nextWake() const;

    /**
     * Account @p n skipped idle cycles: the cycle counter, plus, per
     * cycle, the last tick's MSHR-stalled accesses replayed in order
     * (a stall retry, a DTLB hit and a missed prefetcher lookup each).
     * nextWake() stays valid afterwards, so the simulator can also
     * replay a single proven-idle cycle in place of tick().
     */
    void skipIdleCycles(uint64_t n);

    /**
     * Work counts of MSHR-full retries in stepped cycles, warm-up
     * included: those charged to a parked access (a DTLB touch and
     * the books only) and those that ran the full access, because a
     * wake event unparked it or nothing parks (shortcuts off, an
     * untracked prefetcher). Not stats: fast-forward skips retries,
     * so they differ with it on and off.
     */
    uint64_t parkedRetries() const { return _parkedRetries; }
    uint64_t fullRetries() const { return _fullRetries; }

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
         * Youngest older store overlapping a load's bytes, found in
         * the store queue at dispatch; 0 = none. Exact (DESIGN.md
         * §5b): every older store is already dispatched, and stores
         * commit in order, so once it commits every older store has
         * too, and findEntry() returns null as a fresh search would.
         */
        uint64_t aliasSeq = 0;
        /** Issue-scheduler slot, assigned in dispatch order. */
        uint32_t slot = 0;
        /** An attempt stalled on a full data MSHR file: every later
         *  attempt is a retry. */
        bool mshrStalled = false;
    };

    /** What a parked access's retry reads (DESIGN.md §11, rule 6). */
    struct Parked
    {
        BlockAddr block{}; ///< watched in the hierarchy
        TlbHit page;       ///< where the DTLB held its page
    };

    /** A dispatched, uncommitted store: the store queue's entry. */
    struct SqEntry
    {
        uint64_t seq = 0;
        Addr effAddr{};
        uint8_t memSize = 0;
    };

    static constexpr uint32_t noNode = UINT32_MAX;

    /**
     * Issue-scheduler state of one ROB slot (RobEntry::slot); see
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
        /** Loads parked on this store until it issues (slot list). */
        uint32_t waiters = noNode;
        uint32_t nextWaiter = noNode; ///< next load parked on my store
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
     *  called for every producer check and alias lookup. */
    const RobEntry *
    findEntry(uint64_t seq) const
    {
        if (_rob.empty() || seq < _rob.front().seq ||
            seq > _rob.back().seq)
            return nullptr;
        return &_rob[std::size_t(seq - _rob.front().seq)];
    }

    /** Resolve @p entry's source operands against their producers at
     *  dispatch: ready, folded into readyAt, or linked as dependent. */
    void linkOperands(const RobEntry &entry);
    /** Queue slot @p slot, whose producers have all issued: in the
     *  next-cycle mask when its operands arrive by then, else in the
     *  timed heap. */
    void scheduleReady(uint32_t slot);
    /** @p entry issued: fold its doneAt into every dependent. */
    void wakeDependents(const RobEntry &entry);
    /** Attempt to issue the ready @p entry. @retval true = issued. */
    bool tryIssue(RobEntry &entry, Cycle now);
    /** Take the ready @p load out of the ready set until @p store
     *  issues: nothing else can change its attempt's outcome. */
    void parkOn(const RobEntry &load, const RobEntry &store);
    /** Return the loads parked on the just-issued slot @p slot to the
     *  ready set, in time for this cycle's scan. */
    void wakeWaiters(uint32_t slot);

    /** Count @p entry's full MSHR-full attempt, park it, and record it
     *  for replay (see nextWake()). */
    void recordMshrStall(RobEntry &entry, bool tlb_miss, Cycle now);
    /** Count an MSHR-full attempt of @p addr and record it for
     *  replay. */
    void noteStall(Addr addr, bool tlb_miss, Cycle now);
    /**
     * Retry a parked access at its place in the cycle, every data
     * MSHR busy. While its page is still in its DTLB entry the
     * attempt stalls again exactly: only the DTLB touch runs here,
     * and the stall is recorded for replay (see nextWake()).
     * @retval false = it must run in full (the caller unparks it).
     */
    bool parkedRepeats(const Parked &parked);
    /** The books of @p n parked retries (see parkedRepeats()). */
    void chargeParked(uint64_t n);
    /** Unpark every parked access whose block the hierarchy logged.
     *  Inline: called after every issue attempt. */
    void
    takeWakes()
    {
        if (_hierarchy.wakePending())
            wakeParked();
    }
    void wakeParked();
    /** Would every recorded MSHR-stalled access repeat exactly? */
    bool stallsRepeat() const;

    bool fuAvailable(OpClass cls, Cycle now);
    /** First cycle after @p now that fuAvailable(@p cls) can change
     *  its answer. */
    Cycle fuFreeAt(OpClass cls, Cycle now) const;
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
    /** Stores in program order, pushed at dispatch and popped at
     *  commit; sized min(robEntries, lsqEntries), which bounds them. */
    FixedRing<SqEntry> _sq;
    uint64_t _nextSeq = 1;
    uint32_t _nextSlot = 0; ///< slot of the next dispatched entry
    unsigned _memOpsInRob = 0;
    std::array<uint64_t, numArchRegs> _regLastWriter{};

    // Issue scheduler, all sized once at construction (rule R10).
    std::vector<SlotSched> _slots;
    /** Min-heap on TimedWake::at over _timedCount live elements. */
    std::vector<TimedWake> _timed;
    std::size_t _timedCount = 0;
    /** Bit per slot: operands available, not yet issued. */
    std::vector<uint64_t> _readySlots;
    /** Bit per slot: operands available next cycle; merged into
     *  _readySlots by the next issueStage. */
    std::vector<uint64_t> _nextReady;
    bool _nextReadyAny = false;
    /** Bit per slot: a load parked on the full data MSHR file. It
     *  left _readySlots; the issue scan charges its retries. */
    std::vector<uint64_t> _parkedSlots;
    std::vector<Parked> _parked; ///< by slot
    /** The ROB head is a store parked on the full data MSHR file. */
    bool _storeParked = false;
    /** Parking is on: shortcuts, and a prefetcher whose every hit
     *  comes with a MemoryHierarchy::prefetch() (hitEpoch() != 0). */
    bool _parkable;
    /** Missed lookups of this tick's parked retries, charged to the
     *  prefetcher at the end of the tick. */
    uint64_t _parkedLookups = 0;

    /** Earliest possible next activity (see nextWake()); recomputed
     *  by every tick(). Progress in a tick forces now + 1. */
    Cycle _nextWake{};
    bool _progress = false;
    Cycle _lastTick{};

    /** DTLB pages of the last tick's MSHR-stalled accesses in attempt
     *  order (the commit-stage store, then loads oldest first), kept
     *  only when that tick wakes later than the next cycle. Sized
     *  robEntries + 1 at construction (rule R10). */
    std::vector<TlbHit> _stalled;
    std::size_t _stalledCount = 0;
    /** DTLB use stamp after the last recorded stalled access. */
    uint64_t _stalledTlbStamp = 0;

    uint64_t _parkedRetries = 0; ///< see parkedRetries()
    uint64_t _fullRetries = 0;

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
