#include "memory/hierarchy.hh"

#include "util/logging.hh"
#include "util/trace.hh"

namespace psb
{

MemoryHierarchy::MemoryHierarchy(const MemoryConfig &cfg)
    : _cfg(cfg),
      _l1d(cfg.l1d, "l1d"),
      _l1i(cfg.l1i, "l1i"),
      _l2(cfg.l2, "l2"),
      _l1L2Bus(cfg.l1L2BusBytesPerCycle, "l1_l2"),
      _l2MemBus(cfg.l2MemBusBytesPerCycle, "l2_mem"),
      _memory(cfg.memLatency, cfg.memIssueInterval),
      _dataMshrs(cfg.l1dMshrs, "data"),
      _instMshrs(cfg.l1iMshrs, "inst"),
      _dtlb(cfg.tlbEntries, cfg.pageBytes, cfg.tlbMissPenalty),
      _l2AcceptInterval(cfg.l2Latency / cfg.l2PipelineDepth)
{
    psb_assert(cfg.l2PipelineDepth > 0, "L2 pipeline depth must be > 0");
    if (_l2AcceptInterval == CycleDelta{})
        _l2AcceptInterval = CycleDelta(1);
}

ProbeResult
MemoryHierarchy::probeData(Addr addr, Cycle now)
{
    ProbeResult result;
    result.tlbMiss = translateData(addr);
    result.tlbPenalty = result.tlbMiss ? _dtlb.missPenalty() : CycleDelta{};

    BlockAddr block = _l1d.blockOf(addr);
    if (auto ready = _dataMshrs.lookup(block, now)) {
        result.inFlight = true;
        result.ready = *ready;
        return result;
    }
    result.resident = _l1d.probe(addr);
    return result;
}

void
MemoryHierarchy::touchData(Addr addr, bool is_write)
{
    _l1d.touch(addr, is_write);
}

Cycle
MemoryHierarchy::l2AndBelow(Addr addr, Cycle arrive, bool &l2_hit)
{
    // The L2 is "pipelined three accesses deep": a new lookup may
    // start every latency/depth cycles.
    Cycle start = maxCycle(arrive, _l2NextAccept);
    _l2NextAccept = start + _l2AcceptInterval;

    ++_stats.l2Accesses;
    if (_l2.touch(addr)) {
        ++_stats.l2Hits;
        l2_hit = true;
        PSB_TRACE(Cache, "l2.hit", -1, "block=%llu",
                  (unsigned long long)_l2.blockOf(addr).raw());
        return start + _cfg.l2Latency;
    }

    ++_stats.l2Misses;
    l2_hit = false;
    PSB_TRACE(Cache, "l2.miss", -1, "block=%llu",
              (unsigned long long)_l2.blockOf(addr).raw());

    // The L2 lookup determines the miss; the memory transaction then
    // queues on the L2-memory bus, and the data is available at the
    // L2 after the DRAM access plus the line transfer back.
    Cycle lookup_done = start + _cfg.l2Latency;
    BusSlot slot = _l2MemBus.transact(lookup_done, _cfg.l2.blockBytes);
    Cycle mem_ready = _memory.access(slot.start + CycleDelta(1));
    Cycle data_at_l2 =
        mem_ready + _l2MemBus.transferCycles(_cfg.l2.blockBytes);
    if (data_at_l2 < slot.end)
        data_at_l2 = slot.end;

    if (auto evicted = _l2.insert(addr)) {
        if (evicted->dirty) {
            ++_stats.l2Writebacks;
            _l2MemBus.transact(data_at_l2, _cfg.l2.blockBytes);
        }
    }
    return data_at_l2;
}

FillOutcome
MemoryHierarchy::missToL2(Addr addr, Cycle now, bool is_write)
{
    FillOutcome outcome;
    if (_dataMshrs.full(now)) {
        outcome.mshrStall = true;
        return outcome;
    }

    Addr block = _l1d.blockAlign(addr);

    // The transaction queues on the L1-L2 bus (one request at a time);
    // the L2/memory latency and the return transfer stack on top.
    BusSlot slot = _l1L2Bus.transact(now, _cfg.l1d.blockBytes);
    Cycle l2_ready =
        l2AndBelow(addr, slot.start + CycleDelta(1), outcome.l2Hit);
    Cycle ready =
        l2_ready + _l1L2Bus.transferCycles(_cfg.l1d.blockBytes);
    if (ready < slot.end)
        ready = slot.end;

    insertL1d(block, is_write, ready);
    _dataMshrs.allocate(_l1d.blockOf(block), ready);
    outcome.ready = ready;
    return outcome;
}

PrefetchOutcome
MemoryHierarchy::prefetch(BlockAddr block, Cycle now, bool translate)
{
    PrefetchOutcome outcome;
    Addr addr = block.toByte(_l1d.lineBits());
    // The predictor works on virtual addresses; translate at prefetch
    // time, replacing the DTLB entry if necessary (paper §4.5). A
    // stream buffer that caches its page translation skips this step
    // while the stream stays inside the page.
    if (translate)
        outcome.tlbPenalty = _dtlb.translate(addr);
    ++_stats.prefetches;
    // Every prefetcher marks a block prefetched, the only change that
    // lets its lookup hit, together with this call.
    noteBlockEvent(block);

    BusSlot slot =
        _l1L2Bus.transact(now + outcome.tlbPenalty, _cfg.l1d.blockBytes);
    bool l2_hit = false;
    Cycle l2_ready = l2AndBelow(addr, slot.start + CycleDelta(1), l2_hit);
    Cycle ready =
        l2_ready + _l1L2Bus.transferCycles(_cfg.l1d.blockBytes);
    if (ready < slot.end)
        ready = slot.end;

    if (l2_hit)
        ++_stats.prefetchL2Hits;
    outcome.l2Hit = l2_hit;
    outcome.ready = ready;
    return outcome;
}

void
MemoryHierarchy::insertL1d(Addr block_addr, bool is_write,
                           Cycle writeback_at)
{
    noteBlockEvent(_l1d.blockOf(block_addr));
    if (auto evicted = _l1d.insert(block_addr, is_write)) {
        if (evicted->dirty) {
            ++_stats.l1Writebacks;
            // Writeback occupies the L1-L2 bus and dirties the L2.
            _l1L2Bus.transact(writeback_at, _cfg.l1d.blockBytes);
            if (!_l2.touch(evicted->blockAddr, /*is_write=*/true))
                _l2.insert(evicted->blockAddr, /*dirty=*/true);
        }
    }
}

void
MemoryHierarchy::fillFromStreamBuffer(BlockAddr block, Cycle now)
{
    insertL1d(block.toByte(_l1d.lineBits()), /*is_write=*/false, now);
}

void
MemoryHierarchy::registerInFlightFill(BlockAddr block, Cycle ready,
                                      Cycle now)
{
    fillFromStreamBuffer(block, now);
    if (!_dataMshrs.full(now) &&
        !_dataMshrs.lookup(block, now).has_value()) {
        _dataMshrs.allocate(block, ready);
    } else if (_dataMshrs.full(now)) {
        // Model approximation: the in-flight stream-buffer fill is
        // honoured but not merge-tracked when every MSHR is busy.
        ++_untrackedFills; // psb-analyze: allow(R2)
        warn_once("L1D MSHRs full; in-flight stream-buffer fill not "
                  "tracked (fills still complete; merges not counted)");
    }
}

void
MemoryHierarchy::resetStats()
{
    _stats = HierarchyStats{};
    _l1L2Bus.resetStats();
    _l2MemBus.resetStats();
    _dtlb.resetStats();
    _dataMshrs.resetStats();
    _instMshrs.resetStats();
    _memory.resetStats();
}

void
MemoryHierarchy::registerStats(StatsRegistry &reg) const
{
    reg.addScalar("l2.accesses", &_stats.l2Accesses);
    reg.addScalar("l2.hits", &_stats.l2Hits);
    reg.addScalar("l2.misses", &_stats.l2Misses);
    reg.addReal("l2.miss_rate", [this] {
        return ratio(_stats.l2Misses, _stats.l2Accesses);
    });
    reg.addScalar("l2.writebacks", &_stats.l2Writebacks);
    reg.addScalar("l2.prefetches", &_stats.prefetches);
    reg.addScalar("l2.prefetch_hits", &_stats.prefetchL2Hits);

    reg.addScalar("l1d.writebacks", &_stats.l1Writebacks);

    reg.addScalar("l1i.accesses", &_stats.instFetches);
    reg.addScalar("l1i.misses", &_stats.instMisses);
    reg.addScalar("l1i.hits", [this] {
        return _stats.instFetches - _stats.instMisses;
    });

    _l1L2Bus.registerStats(reg, "bus.l1_l2");
    _l2MemBus.registerStats(reg, "bus.l2_mem");
    _dataMshrs.registerStats(reg, "mshr.data");
    _instMshrs.registerStats(reg, "mshr.inst");
    _dtlb.registerStats(reg, "tlb.data");
    _memory.registerStats(reg, "mem");
}

Cycle
MemoryHierarchy::instFetch(Addr pc, Cycle now)
{
    ++_stats.instFetches;
    BlockAddr block = _l1i.blockOf(pc);

    if (auto ready = _instMshrs.lookup(block, now))
        return *ready;
    if (_l1i.touch(pc))
        return now + _cfg.l1Latency;

    ++_stats.instMisses;
    BusSlot slot = _l1L2Bus.transact(now, _cfg.l1i.blockBytes);
    bool l2_hit = false;
    Cycle l2_ready = l2AndBelow(pc, slot.start + CycleDelta(1), l2_hit);
    Cycle ready =
        l2_ready + _l1L2Bus.transferCycles(_cfg.l1i.blockBytes);
    if (ready < slot.end)
        ready = slot.end;

    _l1i.insert(_l1i.blockAlign(pc));
    if (!_instMshrs.full(now))
        _instMshrs.allocate(block, ready);
    else
        // Model approximation: the fetch still completes at the L2
        // latency, but later fetches of this line cannot merge.
        warn_once("L1I MSHRs full; instruction fill not tracked "
                  "(fetches still complete; merges not counted)");
    return ready;
}

} // namespace psb
