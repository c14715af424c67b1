/**
 * @file
 * MemoryHierarchy: the paper's rewritten SimpleScalar memory system —
 * L1 data and instruction caches, a unified pipelined L2, main memory,
 * and the two buses whose occupancy and bandwidth the paper models
 * explicitly (L1<->L2 at 8 bytes/cycle, L2<->memory at 4 bytes/cycle).
 *
 * The out-of-order core orchestrates the L1-level hit/miss protocol
 * (because a load consults the stream buffers in parallel with the L1
 * tags); this class provides the primitive steps:
 *
 *   probeData()              L1D tags + MSHR + TLB state for one access
 *   touchData()              LRU/dirty update on an L1D hit
 *   missToL2()               full demand-fill path (bus, L2, memory)
 *   prefetch()               stream-buffer fill path (bus, L2, memory)
 *   fillFromStreamBuffer()   stream-buffer hit moves a block into L1D
 *   registerInFlightFill()   stream-buffer tag-hit with data pending:
 *                            the tag moves into an L1D MSHR (paper §4.1)
 *   instFetch()              instruction-side access
 *
 * Bus transactions are split: a one-beat address/request phase at issue
 * and a full line-transfer phase when data returns, so several misses
 * can overlap in the L2/memory while the bus carries one transfer at a
 * time.
 */

#ifndef PSB_MEMORY_HIERARCHY_HH
#define PSB_MEMORY_HIERARCHY_HH

#include <cstdint>

#include "util/stats.hh"

#include "memory/bus.hh"
#include "memory/cache.hh"
#include "memory/main_memory.hh"
#include "memory/mshr.hh"
#include "memory/tlb.hh"

namespace psb
{

/** All memory-system parameters; defaults are the paper's baseline. */
struct MemoryConfig
{
    CacheGeometry l1d{32 * 1024, 4, 32};
    CacheGeometry l1i{32 * 1024, 2, 32};
    CacheGeometry l2{1024 * 1024, 4, 64};

    CycleDelta l1Latency{1};  ///< L1 (and stream-buffer) lookup latency
    CycleDelta l2Latency{12};
    unsigned l2PipelineDepth = 3; ///< L2 "pipelined three accesses deep"
    CycleDelta memLatency{120};
    CycleDelta memIssueInterval{4};

    unsigned l1L2BusBytesPerCycle = 8;
    unsigned l2MemBusBytesPerCycle = 4;

    unsigned l1dMshrs = 8;
    unsigned l1iMshrs = 4;

    unsigned tlbEntries = 128;
    uint64_t pageBytes = 8192;
    CycleDelta tlbMissPenalty{30};

    bool operator==(const MemoryConfig &) const = default;
};

/** L1D-tag/MSHR/TLB state for one data access. */
struct ProbeResult
{
    bool resident = false;   ///< hit in the L1D tag array (data present)
    bool inFlight = false;   ///< block being filled; data at readyCycle
    Cycle ready{};           ///< valid when inFlight
    CycleDelta tlbPenalty{}; ///< extra cycles charged for a DTLB miss
};

/** Result of a demand fill issued to the L2/memory. */
struct FillOutcome
{
    bool mshrStall = false;  ///< no MSHR free; retry next cycle
    bool l2Hit = false;
    Cycle ready{};           ///< cycle the block arrives at the L1
};

/** Result of a stream-buffer prefetch request. */
struct PrefetchOutcome
{
    bool l2Hit = false;
    Cycle ready{};           ///< cycle the block arrives at the buffer
    CycleDelta tlbPenalty{};
};

/** Aggregated memory-system statistics. */
struct HierarchyStats
{
    uint64_t l2Accesses = 0;
    uint64_t l2Hits = 0;
    uint64_t l2Misses = 0;
    uint64_t l1Writebacks = 0;
    uint64_t l2Writebacks = 0;
    uint64_t prefetches = 0;
    uint64_t prefetchL2Hits = 0;
    uint64_t instFetches = 0;
    uint64_t instMisses = 0;
};

/** See file comment. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const MemoryConfig &cfg);

    /** L1D tag/MSHR lookup plus DTLB translation for one access. */
    ProbeResult probeData(Addr addr, Cycle now);

    /** Record an L1D hit (LRU update; dirty bit for writes). */
    void touchData(Addr addr, bool is_write);

    /**
     * Demand-miss fill: request beat on the L1-L2 bus, pipelined L2
     * lookup, memory on an L2 miss, line transfer back, L1D insertion
     * and MSHR tracking. Dirty victims generate writeback traffic.
     */
    FillOutcome missToL2(Addr addr, Cycle now, bool is_write);

    /**
     * Stream-buffer prefetch of the block at @p block_addr (virtual).
     * Performs the DTLB translation (TLB prefetching, paper §4.5) and
     * moves the block from L2 — or memory on an L2 miss — toward the
     * buffer over the L1-L2 bus. Does not touch the L1D.
     *
     * The caller is responsible for the paper's issue rule: prefetches
     * only start when the L1-L2 bus is free at the start of the cycle
     * (see l1ToL2BusFree()).
     */
    PrefetchOutcome prefetch(BlockAddr block, Cycle now,
                             bool translate = true);

    /** Paper's prefetch gating condition. */
    bool l1ToL2BusFree(Cycle now) const { return _l1L2Bus.freeAt(now); }

    /**
     * Read-only redundancy probe for prefetch attribution: is @p block
     * already covered by the demand path — resident in the L1D (demand
     * misses insert their line at miss time) or tracked by a data MSHR
     * whose fill is still in flight? No LRU update, no stat bumps, so
     * probing never perturbs the modelled state.
     */
    bool
    demandHasBlock(BlockAddr block, Cycle now) const
    {
        return _l1d.probe(block.toByte(_l1d.lineBits())) ||
               _dataMshrs.tracks(block, now);
    }

    /** Stream-buffer hit with data ready: block moves into the L1D. */
    void fillFromStreamBuffer(BlockAddr block, Cycle now);

    /**
     * Stream-buffer tag hit with data still in flight: the tag moves
     * into an L1D MSHR and the data cache handles the block when it
     * arrives (paper §4.1). If every MSHR is busy the fill is still
     * honoured, just without merge tracking.
     */
    void registerInFlightFill(BlockAddr block, Cycle ready, Cycle now);

    /** Instruction fetch of the line containing @p pc. */
    Cycle instFetch(Addr pc, Cycle now);

    /** Align to the L1 line size. */
    Addr blockAlign(Addr addr) const { return _l1d.blockAlign(addr); }

    /** Block number of @p addr at the L1 line size. */
    BlockAddr blockOf(Addr addr) const { return _l1d.blockOf(addr); }

    const HierarchyStats &stats() const { return _stats; }

    /** Zero all accounting (end-of-warm-up). Cache state is kept. */
    void resetStats();

    /**
     * Register every memory-system stat: the L2 and L1I counters kept
     * here, plus the buses, MSHR files, DTLB, and main memory under
     * their own component paths. (The L1D hit/miss accounting lives
     * with the core — see the SetAssocCache file comment — so the
     * "l1d." stats are registered by OoOCore::registerStats.)
     */
    void registerStats(StatsRegistry &reg) const;
    const Bus &l1L2Bus() const { return _l1L2Bus; }
    const Bus &l2MemBus() const { return _l2MemBus; }
    const Tlb &dtlb() const { return _dtlb; }
    const MshrFile &dataMshrs() const { return _dataMshrs; }
    const SetAssocCache &l1d() const { return _l1d; }
    const SetAssocCache &l2() const { return _l2; }
    const MemoryConfig &config() const { return _cfg; }

  private:
    /**
     * Shared L2-and-below path: deliver the L2 line containing
     * @p addr, filling the L2 from memory if needed.
     * @param arrive Cycle the request reaches the L2.
     * @param l2_hit Out: whether the L2 had the line.
     * @return Cycle the data is available at the L2 for return transfer.
     */
    Cycle l2AndBelow(Addr addr, Cycle arrive, bool &l2_hit);

    MemoryConfig _cfg;
    SetAssocCache _l1d;
    SetAssocCache _l1i;
    SetAssocCache _l2;
    Bus _l1L2Bus;
    Bus _l2MemBus;
    MainMemory _memory;
    MshrFile _dataMshrs;
    MshrFile _instMshrs;
    Tlb _dtlb;
    Cycle _l2NextAccept{};
    CycleDelta _l2AcceptInterval;
    HierarchyStats _stats;
};

} // namespace psb

#endif // PSB_MEMORY_HIERARCHY_HH
