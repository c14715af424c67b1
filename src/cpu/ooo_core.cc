#include "cpu/ooo_core.hh"

#include <algorithm>
#include <bit>
#include <functional>

#include "util/alloc_guard.hh"
#include "util/logging.hh"
#include "util/trace.hh"

namespace psb
{

OoOCore::OoOCore(const CoreConfig &cfg, MemoryHierarchy &hierarchy,
                 Prefetcher &prefetcher, TraceSource &trace,
                 bool shortcuts)
    : _cfg(cfg),
      _hierarchy(hierarchy),
      _prefetcher(prefetcher),
      _trace(trace),
      _gshare(cfg.gshare),
      _rob(cfg.robEntries),
      _sq(std::min(cfg.robEntries, cfg.lsqEntries)),
      _slots(cfg.robEntries),
      _timed(cfg.robEntries),
      _readySlots((cfg.robEntries + 63) / 64, 0),
      _nextReady(_readySlots.size(), 0),
      _parkedSlots(_readySlots.size(), 0),
      _parked(cfg.robEntries),
      _parkable(shortcuts && prefetcher.hitEpoch() != 0),
      _stalled(cfg.robEntries + 1),
      _intDivFreeAt(cfg.numIntMulDiv, Cycle{}),
      _fpDivFreeAt(cfg.numFpMulDiv, Cycle{})
{
    psb_assert(cfg.robEntries > 0 && cfg.lsqEntries > 0,
               "ROB and LSQ must be non-empty");
    // The scheduler wakes a consumer no earlier than the cycle after
    // its producer issues (DESIGN.md "Core issue scheduling").
    psb_assert(cfg.storeForwardLatency > CycleDelta{} &&
                   hierarchy.config().l1Latency > CycleDelta{},
               "results must take at least one cycle");
}

bool
OoOCore::tick(Cycle now)
{
    if (done())
        return false;
    ++_stats.cycles;
    _lastTick = now;
    _nextWake = Cycle::max();
    _progress = false;
    _stalledCount = 0;
    takeWakes(); // the prefetcher's tick ran since the last one
    commitStage(now);
    issueStage(now);
    fetchStage(now);
    if (_parkedLookups) {
        _prefetcher.replayMissedLookups(_parkedLookups);
        _parkedLookups = 0;
    }
    // A tick that keeps its stalls made no translation after the last
    // of them (see stallsRepeat()).
    _stalledTlbStamp = _hierarchy.dtlb().useStamp();
    // Anything committed/issued/fetched can unblock more work next
    // cycle; and a wake computed for the past means "retry at once".
    if (_progress || _nextWake <= now)
        _nextWake = now + CycleDelta(1);
    // Stalled attempts only matter to a skip, which needs a later wake.
    if (_nextWake == now + CycleDelta(1))
        _stalledCount = 0;
    return true;
}

Cycle
OoOCore::nextWake() const
{
    if (_stalledCount > 0 && !stallsRepeat())
        return _lastTick + CycleDelta(1);
    return _nextWake;
}

void
OoOCore::skipIdleCycles(uint64_t n)
{
    _stats.cycles += n;
    if (_stalledCount == 0)
        return;
    _stats.mshrStallRetries += n * _stalledCount;
    _hierarchy.replayDataTranslations({_stalled.data(), _stalledCount},
                                      CycleDelta(n));
    // As after a stall-only tick, the last stalled access made the
    // last translation (stallsRepeat()).
    _stalledTlbStamp = _hierarchy.dtlb().useStamp();
    _prefetcher.replayMissedLookups(n * _stalledCount);
}

// ---------------------------------------------------------------------
// MSHR-full stalls
// ---------------------------------------------------------------------

void
OoOCore::noteStall(Addr addr, bool tlb_miss, Cycle now)
{
    ++_stats.mshrStallRetries;
    // Until a data MSHR frees, the attempt repeats every cycle with
    // the same effects, unless it filled a DTLB entry (the next one
    // hits) or Cpu tracing must see each attempt.
    if (tlb_miss || traceEnabled(TraceFlag::Cpu)) {
        clampWake(now + CycleDelta(1));
        return;
    }
    psb_assert(_stalledCount < _stalled.size(), "stall list overflow");
    _stalled[_stalledCount++] = _hierarchy.dtlb().resident(addr);
    clampWake(_hierarchy.dataMshrs().nextRetire());
}

void
OoOCore::recordMshrStall(RobEntry &entry, bool tlb_miss, Cycle now)
{
    const Addr addr = entry.op.effAddr;
    PSB_TRACE(Cpu, "mshr_stall", -1, "pc=%llu addr=%llu%s",
              (unsigned long long)entry.op.pc.raw(),
              (unsigned long long)addr.raw(),
              entry.op.isStore() ? " store=1" : "");
    noteStall(addr, tlb_miss, now);
    entry.mshrStalled = true;
    // Cpu tracing emits each attempt's event, so nothing parks.
    if (!_parkable || traceEnabled(TraceFlag::Cpu))
        return;
    const BlockAddr block = _hierarchy.blockOf(addr);
    _parked[entry.slot] =
        Parked{block, _hierarchy.dtlb().resident(addr)};
    _hierarchy.watchBlock(block);
    if (entry.op.isStore()) {
        _storeParked = true;
        return;
    }
    const uint64_t bit = uint64_t(1) << (entry.slot % 64);
    _readySlots[entry.slot / 64] &= ~bit;
    _parkedSlots[entry.slot / 64] |= bit;
}

inline bool
OoOCore::parkedRepeats(const Parked &parked)
{
    // The full attempt reads the DTLB, the data MSHRs, the L1D tags
    // and the prefetcher. The access stays parked only while no
    // insertion or prefetch of its block happened (wakeParked()), so
    // only the DTLB and the MSHRs can have changed; the caller checked
    // the MSHRs.
    if (!_hierarchy.translateDataAt(parked.page))
        return false;
    psb_assert(_stalledCount < _stalled.size(), "stall list overflow");
    _stalled[_stalledCount++] = parked.page;
    return true;
}

void
OoOCore::chargeParked(uint64_t n)
{
    // The books of n repeated attempts. Cpu tracing is off (the
    // callers checked), and none missed the DTLB.
    _stats.mshrStallRetries += n;
    // Work counts, not stats (see parkedRetries()).
    _parkedRetries += n; // psb-analyze: allow(R2)
    _parkedLookups += n;
    clampWake(_hierarchy.dataMshrs().nextRetire());
}

void
OoOCore::wakeParked()
{
    // Unpark the accesses whose block was logged, then watch the rest.
    for (std::size_t w = 0; w < _parkedSlots.size(); ++w) {
        for (uint64_t bits = _parkedSlots[w]; bits; bits &= bits - 1) {
            const uint32_t bit = uint32_t(std::countr_zero(bits));
            if (_hierarchy.woke(_parked[w * 64 + bit].block)) {
                _parkedSlots[w] &= ~(uint64_t(1) << bit);
                _readySlots[w] |= uint64_t(1) << bit;
            }
        }
    }
    const uint32_t head = _rob.empty() ? 0 : _rob.front().slot;
    if (_storeParked && _hierarchy.woke(_parked[head].block))
        _storeParked = false;
    _hierarchy.clearWakes();
    for (std::size_t w = 0; w < _parkedSlots.size(); ++w) {
        for (uint64_t bits = _parkedSlots[w]; bits; bits &= bits - 1)
            _hierarchy.watchBlock(
                _parked[w * 64 + unsigned(std::countr_zero(bits))].block);
    }
    if (_storeParked)
        _hierarchy.watchBlock(_parked[head].block);
}

bool
OoOCore::stallsRepeat() const
{
    // The prefetcher's tick ran after the stalled attempts. A prefetch
    // it issued may serve a stalled block, which the hierarchy's wake
    // log records (every stalled access is parked and watched), or
    // evict a stalled page from the DTLB; the replayed ticks
    // themselves issue none. In a stall-only tick the last stalled
    // attempt made the last translation, so an unchanged use stamp
    // proves every page is still resident. Without parking nothing
    // is watched, and the span steps.
    if (!_parkable)
        return false;
    const bool woken = _hierarchy.wakePending();
    const Tlb &dtlb = _hierarchy.dtlb();
    const bool resident = dtlb.useStamp() == _stalledTlbStamp;
    if (!woken && resident)
        return true;
    for (std::size_t i = 0; i < _stalledCount; ++i) {
        const TlbHit &page = _stalled[i];
        if ((woken && _hierarchy.woke(_hierarchy.blockOf(page.vaddr))) ||
            (!resident && !dtlb.stillMaps(page)))
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Functional units
// ---------------------------------------------------------------------

CycleDelta
OoOCore::execLatency(OpClass cls) const
{
    switch (cls) {
      case OpClass::IntAlu:  return CycleDelta(1);
      case OpClass::IntMult: return CycleDelta(3);
      case OpClass::IntDiv:  return CycleDelta(12);
      case OpClass::FpAdd:   return CycleDelta(2);
      case OpClass::FpMult:  return CycleDelta(4);
      case OpClass::FpDiv:   return CycleDelta(12);
      case OpClass::Branch:  return CycleDelta(1);
      case OpClass::Nop:     return CycleDelta(1);
      case OpClass::Load:
      case OpClass::Store:   return CycleDelta(1); // address generation
    }
    return CycleDelta(1);
}

Cycle
OoOCore::fuFreeAt(OpClass cls, Cycle now) const
{
    // Only an unpipelined divide unit frees on its own. A pipelined
    // unit runs out only in a cycle that issued, which wakes at
    // now + 1 anyway.
    if (cls != OpClass::IntDiv && cls != OpClass::FpDiv)
        return now + CycleDelta(1);
    Cycle first = Cycle::max();
    for (Cycle t : cls == OpClass::IntDiv ? _intDivFreeAt : _fpDivFreeAt)
        first = minCycle(first, t);
    return first;
}

bool
OoOCore::fuAvailable(OpClass cls, Cycle now)
{
    if (_fuCountersCycle != now) {
        _fuCountersCycle = now;
        _usedIntAlu = _usedLdSt = _usedFpAdd = 0;
        _usedIntMul = _usedFpMul = 0;
    }
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::Nop:
        return _usedIntAlu < _cfg.numIntAlu;
      case OpClass::Load:
      case OpClass::Store:
        return _usedLdSt < _cfg.numLdSt;
      case OpClass::FpAdd:
        return _usedFpAdd < _cfg.numFpAdd;
      case OpClass::IntMult:
        return _usedIntMul < _cfg.numIntMulDiv;
      case OpClass::FpMult:
        return _usedFpMul < _cfg.numFpMulDiv;
      case OpClass::IntDiv:
        for (Cycle t : _intDivFreeAt) {
            if (t <= now)
                return true;
        }
        return false;
      case OpClass::FpDiv:
        for (Cycle t : _fpDivFreeAt) {
            if (t <= now)
                return true;
        }
        return false;
    }
    return false;
}

void
OoOCore::consumeFu(OpClass cls, Cycle now)
{
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::Nop:
        ++_usedIntAlu;
        break;
      case OpClass::Load:
      case OpClass::Store:
        ++_usedLdSt;
        break;
      case OpClass::FpAdd:
        ++_usedFpAdd;
        break;
      case OpClass::IntMult:
        ++_usedIntMul;
        break;
      case OpClass::FpMult:
        ++_usedFpMul;
        break;
      case OpClass::IntDiv:
        // Divides are unpipelined: occupy a shared MULT/DIV unit.
        for (Cycle &t : _intDivFreeAt) {
            if (t <= now) {
                t = now + execLatency(cls);
                return;
            }
        }
        panic("IntDiv issued with no free unit");
      case OpClass::FpDiv:
        for (Cycle &t : _fpDivFreeAt) {
            if (t <= now) {
                t = now + execLatency(cls);
                return;
            }
        }
        panic("FpDiv issued with no free unit");
    }
}

// ---------------------------------------------------------------------
// Dependence tracking
// ---------------------------------------------------------------------

void
OoOCore::linkOperands(const RobEntry &entry)
{
    const uint32_t slot = entry.slot;
    SlotSched &sched = _slots[slot];
    sched = SlotSched{};
    const uint8_t srcs[2] = {entry.op.src1, entry.op.src2};
    for (uint32_t i = 0; i < 2; ++i) {
        if (srcs[i] == regNone)
            continue;
        const RobEntry *producer = findEntry(_regLastWriter[srcs[i]]);
        if (!producer)
            continue; // committed (or never written): ready
        if (producer->issued) {
            sched.readyAt = maxCycle(sched.readyAt, producer->doneAt);
            continue;
        }
        uint32_t &head = _slots[producer->slot].dependents;
        sched.nextNode[i] = head;
        head = 2 * slot + i;
        ++sched.pendingSrcs;
    }
    if (sched.pendingSrcs == 0)
        scheduleReady(slot);
}

void
OoOCore::scheduleReady(uint32_t slot)
{
    // Called in a tick's issue or fetch stage, so the next issueStage
    // runs at _lastTick + 1 or later.
    if (_slots[slot].readyAt <= _lastTick + CycleDelta(1)) {
        _nextReady[slot / 64] |= uint64_t(1) << (slot % 64);
        _nextReadyAny = true;
        return;
    }
    psb_assert(_timedCount < _timed.size(), "timed wake queue overflow");
    _timed[_timedCount++] = TimedWake{_slots[slot].readyAt, slot};
    std::push_heap(_timed.begin(), _timed.begin() + _timedCount,
                   std::greater<>{});
}

void
OoOCore::parkOn(const RobEntry &load, const RobEntry &store)
{
    const uint32_t slot = load.slot;
    uint32_t &head = _slots[store.slot].waiters;
    _slots[slot].nextWaiter = head;
    head = slot;
    _readySlots[slot / 64] &= ~(uint64_t(1) << (slot % 64));
}

void
OoOCore::wakeWaiters(uint32_t slot)
{
    SlotSched &store = _slots[slot];
    for (uint32_t s = store.waiters; s != noNode; s = _slots[s].nextWaiter)
        _readySlots[s / 64] |= uint64_t(1) << (s % 64);
    store.waiters = noNode;
}

void
OoOCore::wakeDependents(const RobEntry &entry)
{
    SlotSched &producer = _slots[entry.slot];
    for (uint32_t node = producer.dependents; node != noNode;) {
        SlotSched &consumer = _slots[node / 2];
        consumer.readyAt = maxCycle(consumer.readyAt, entry.doneAt);
        if (--consumer.pendingSrcs == 0)
            scheduleReady(node / 2);
        node = consumer.nextNode[node % 2];
    }
    producer.dependents = noNode;
}

// ---------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------

bool
OoOCore::commitStore(RobEntry &entry, Cycle now)
{
    if (_storeParked) {
        if (_hierarchy.dataMshrsFull(now) &&
            !traceEnabled(TraceFlag::Cpu) &&
            parkedRepeats(_parked[entry.slot])) {
            chargeParked(1);
            return false;
        }
        _storeParked = false;
    }
    if (entry.mshrStalled)
        ++_fullRetries; // psb-analyze: allow(R2)
    Addr addr = entry.op.effAddr;
    ++_stats.l1dAccesses;
    ++_stats.stores;

    ProbeResult probe = _hierarchy.probeData(addr, now);
    if (probe.resident) {
        ++_stats.l1dHits;
        _hierarchy.touchData(addr, /*is_write=*/true);
        return true;
    }

    if (probe.inFlight) {
        ++_stats.l1dMisses;
        ++_stats.l1dInFlight;
        // The tag is resident, the fill is on its way; mark dirty.
        _hierarchy.touchData(addr, /*is_write=*/true);
        return true;
    }

    // Stores search the stream buffers too: a predicted block services
    // the write-allocate without another L2 round trip.
    PrefetchLookup sb = _prefetcher.lookup(addr, now);
    if (sb.hit) {
        ++_stats.sbServiced;
        BlockAddr block = _hierarchy.blockOf(addr);
        if (sb.dataPending) {
            ++_stats.l1dMisses;
            ++_stats.l1dInFlight;
            _hierarchy.registerInFlightFill(block, sb.ready, now);
        } else {
            ++_stats.l1dHits;
            _hierarchy.fillFromStreamBuffer(block, now);
        }
        _hierarchy.touchData(addr, /*is_write=*/true);
        return true;
    }
    ++_stats.l1dMisses;

    FillOutcome fill = _hierarchy.missToL2(addr, now, /*is_write=*/true);
    if (fill.mshrStall) {
        recordMshrStall(entry, probe.tlbMiss, now);
        --_stats.l1dMisses;
        --_stats.l1dAccesses;
        --_stats.stores;
        return false; // hold commit until a data MSHR frees
    }
    return true;
}

void
OoOCore::commitStage(Cycle now)
{
    unsigned committed = 0;
    while (committed < _cfg.commitWidth && !_rob.empty()) {
        RobEntry &head = _rob.front();
        if (!head.issued)
            break; // issue stage supplies the wake-up
        if (head.doneAt > now) {
            clampWake(head.doneAt);
            break;
        }
        if (head.op.isStore()) {
            if (!commitStore(head, now))
                break; // MSHR-full: the attempt set the wake
            _sq.pop_front();
        }
        if (head.op.isMem())
            --_memOpsInRob;
        ++_stats.instructions;
        _rob.pop_front();
        ++committed;
    }
    if (committed)
        _progress = true;
}

// ---------------------------------------------------------------------
// Issue / execute
// ---------------------------------------------------------------------

bool
OoOCore::executeLoad(RobEntry &entry, Cycle now)
{
    const Addr addr = entry.op.effAddr;

    // Memory disambiguation against older stores. The alias was
    // found at dispatch (RobEntry::aliasSeq); seq 0 is never in the
    // ROB, so "no alias" and "alias committed" both give null.
    const RobEntry *alias = findEntry(entry.aliasSeq);

    switch (_cfg.disambiguation) {
      case DisambiguationMode::None:
        // A load waits until all prior stores have issued.
        for (const SqEntry &store : _sq) {
            if (store.seq > entry.seq)
                break;
            if (!findEntry(store.seq)->issued)
                return false;
        }
        break;
      case DisambiguationMode::Perfect:
        // Perfect store sets: wait only for a true alias.
        if (alias && !alias->issued) {
            parkOn(entry, *alias);
            return false;
        }
        break;
      case DisambiguationMode::Learned:
        if (entry.waitStoreSeq != 0) {
            const RobEntry *dep = findEntry(entry.waitStoreSeq);
            if (dep && dep->op.isStore() && !dep->issued) {
                parkOn(entry, *dep);
                return false;
            }
        }
        // An unissued alias the predictor did not connect would be an
        // ordering violation in real hardware; charge the squash.
        if (alias && !alias->issued) {
            ++_stats.orderViolations;
            PSB_TRACE(Cpu, "order_violation", -1,
                      "load_pc=%llu store_pc=%llu",
                      (unsigned long long)entry.op.pc.raw(),
                      (unsigned long long)alias->op.pc.raw());
            _storeSets.recordViolation(entry.op.pc, alias->op.pc);
            if (_fetchResumeAt != waitingForBranch) {
                Cycle resume = now + _cfg.mispredictPenalty;
                if (resume > _fetchResumeAt)
                    _fetchResumeAt = resume;
            }
            // Every retry cycle repeats this accounting: never skip.
            clampWake(now + CycleDelta(1));
            return false; // re-issue once the alias has issued
        }
        break;
    }

    if (entry.mshrStalled)
        ++_fullRetries; // psb-analyze: allow(R2)
    ++_stats.loads;
    entry.storeForwarded = false;

    if (alias) {
        // Value bypassed from the store queue (2-cycle forward).
        ++_stats.storeForwards;
        entry.storeForwarded = true;
        Cycle base = alias->doneAt > now ? alias->doneAt : now;
        entry.doneAt = base + _cfg.storeForwardLatency;
        _stats.loadLatency.sample(double((entry.doneAt - now).raw()));
        _prefetcher.trainLoad(entry.op.pc, addr, /*l1_miss=*/false,
                              /*store_forwarded=*/true);
        return true;
    }

    ++_stats.l1dAccesses;
    ProbeResult probe = _hierarchy.probeData(addr, now);
    CycleDelta extra = probe.tlbPenalty;
    bool l1_miss = false;

    if (probe.resident) {
        ++_stats.l1dHits;
        _hierarchy.touchData(addr, /*is_write=*/false);
        entry.doneAt = now + _hierarchy.config().l1Latency + extra;
    } else if (probe.inFlight) {
        // Delayed hit: an earlier access already requested this block.
        // Counts as a miss (paper §6) but carries no new block
        // transition, so it does not train the predictor below.
        ++_stats.l1dMisses;
        ++_stats.l1dInFlight;
        Cycle data = probe.ready > now ? probe.ready : now;
        entry.doneAt = data + _hierarchy.config().l1Latency + extra;
    } else {
        l1_miss = true;
        // Stream buffers are searched in parallel with the L1D.
        PrefetchLookup sb = _prefetcher.lookup(addr, now);
        if (sb.hit) {
            ++_stats.sbServiced;
            BlockAddr block = _hierarchy.blockOf(addr);
            if (sb.dataPending) {
                // Tag hit, data in flight: tag moves into an MSHR.
                // Per the paper's accounting the access is a miss
                // (the block is still in flight).
                ++_stats.l1dMisses;
                ++_stats.l1dInFlight;
                _hierarchy.registerInFlightFill(block, sb.ready, now);
                entry.doneAt =
                    sb.ready + _hierarchy.config().l1Latency + extra;
                _stats.loadMissLatency.sample(
                    (entry.doneAt - now).raw());
                PSB_TRACE(Cpu, "load.miss", -1,
                          "pc=%llu addr=%llu kind=sb_pending",
                          (unsigned long long)entry.op.pc.raw(),
                          (unsigned long long)addr.raw());
            } else {
                // Data ready in the buffer: the block moves into the
                // L1D and the access is serviced on-chip — a hit for
                // the Figure 7 miss-rate accounting.
                ++_stats.l1dHits;
                _hierarchy.fillFromStreamBuffer(block, now);
                entry.doneAt =
                    now + _hierarchy.config().l1Latency + extra;
            }
        } else {
            ++_stats.l1dMisses;
            FillOutcome fill =
                _hierarchy.missToL2(addr, now, /*is_write=*/false);
            if (fill.mshrStall) {
                // No MSHR: the load cannot issue this cycle, and
                // retries until one frees.
                recordMshrStall(entry, probe.tlbMiss, now);
                --_stats.loads;
                --_stats.l1dAccesses;
                --_stats.l1dMisses;
                return false;
            }
            entry.doneAt = fill.ready + extra;
            _stats.loadMissLatency.sample((entry.doneAt - now).raw());
            PSB_TRACE(Cpu, "load.miss", -1,
                      "pc=%llu addr=%llu kind=demand l2_hit=%d",
                      (unsigned long long)entry.op.pc.raw(),
                      (unsigned long long)addr.raw(), int(fill.l2Hit));
            // Allocation request: missed the L1D and the buffers.
            _prefetcher.demandMiss(entry.op.pc, addr, now);
        }
    }

    _stats.loadLatency.sample(double((entry.doneAt - now).raw()));
    _prefetcher.trainLoad(entry.op.pc, addr, l1_miss,
                          /*store_forwarded=*/false);
    return true;
}

bool
OoOCore::tryIssue(RobEntry &entry, Cycle now)
{
    if (!fuAvailable(entry.op.op, now)) {
        clampWake(fuFreeAt(entry.op.op, now));
        return false;
    }

    if (entry.op.isLoad()) {
        // A false return without a clamp is a disambiguation wait
        // on an older, unissued store: the load is parked on it, or
        // (None) stays ready, and that store's issue supplies the
        // retry.
        if (!executeLoad(entry, now))
            return false;
    } else if (entry.op.isStore()) {
        // Address generation; the cache write happens at commit.
        entry.doneAt = now + execLatency(OpClass::Store);
        if (_cfg.disambiguation == DisambiguationMode::Learned)
            _storeSets.storeIssued(entry.op.pc, entry.seq);
    } else {
        entry.doneAt = now + execLatency(entry.op.op);
    }

    consumeFu(entry.op.op, now);
    entry.issued = true;
    wakeDependents(entry);
    wakeWaiters(entry.slot);

    if (entry.op.isBranch() && entry.seq == _redirectBranchSeq) {
        // The mispredicted branch resolves; fetch restarts after
        // the minimum front-end refill penalty.
        _fetchResumeAt = entry.doneAt + _cfg.mispredictPenalty;
        _redirectBranchSeq = 0;
    }
    return true;
}

void
OoOCore::issueStage(Cycle now)
{
    // Operands that arrive by now make their entries ready; the
    // earliest later arrival is the next wake-up.
    if (_nextReadyAny) {
        for (std::size_t w = 0; w < _nextReady.size(); ++w) {
            _readySlots[w] |= _nextReady[w];
            _nextReady[w] = 0;
        }
        _nextReadyAny = false;
    }
    while (_timedCount > 0 && _timed.front().at <= now) {
        const uint32_t slot = _timed.front().slot;
        _readySlots[slot / 64] |= uint64_t(1) << (slot % 64);
        std::pop_heap(_timed.begin(), _timed.begin() + _timedCount,
                      std::greater<>{});
        --_timedCount;
    }
    if (_timedCount > 0)
        clampWake(_timed.front().at);
    if (_rob.empty())
        return;
    takeWakes(); // the commit stage's L1D insertions

    // Attempt ready and MSHR-parked entries oldest first: slots from
    // the head's to the end, then wrapping from 0 to the head's. A
    // wake-up issued this cycle lands in the next-cycle mask or the
    // timed queue (doneAt > now), never in this scan; only a store's
    // waiting loads and the parked accesses an attempt's L1D
    // insertion unparks re-enter the ready set at once. Each word is
    // re-read after every attempt, masked past the attempted slot, so
    // the younger of them are attempted in this cycle.
    const uint32_t cap = _cfg.robEntries;
    const uint32_t head = _rob.front().slot;
    unsigned issued = 0;
    // Parked loads repeat while a ld/st unit is free (tryIssue()'s
    // first check), every data MSHR is busy and Cpu tracing is off.
    // Only an attempt changes the first two: re-read after each.
    bool ldst_free = false;
    bool repeat = false;
    auto reread = [&] {
        ldst_free = fuAvailable(OpClass::Load, now);
        repeat = _hierarchy.dataMshrsFull(now) &&
                 !traceEnabled(TraceFlag::Cpu);
    };
    reread();
    uint64_t charged = 0;
    // Words from the head's on, wrapping; the head's word twice: its
    // slots from the head's up first, those below it last.
    const uint32_t words = uint32_t(_readySlots.size());
    const uint64_t from_head = ~uint64_t(0) << (head % 64);
    for (uint32_t k = 0; k <= words && issued < _cfg.issueWidth; ++k) {
        const uint32_t w = (head / 64 + k) % words;
        uint64_t mask = k == 0 ? from_head
                      : k == words ? ~from_head
                                   : ~uint64_t(0);
        for (uint64_t bits;
             (bits = (_readySlots[w] | _parkedSlots[w]) & mask) != 0;) {
            if (issued >= _cfg.issueWidth)
                break; // the cut: nothing younger is attempted
            const uint32_t bit = uint32_t(std::countr_zero(bits));
            const uint64_t one = uint64_t(1) << bit;
            mask &= ~uint64_t(0) << bit << 1;
            const uint32_t slot = w * 64 + bit;
            if (_parkedSlots[w] & one) {
                if (!ldst_free) {
                    clampWake(fuFreeAt(OpClass::Load, now));
                    continue;
                }
                if (repeat && parkedRepeats(_parked[slot])) {
                    ++charged;
                    continue;
                }
                _parkedSlots[w] &= ~one;
                _readySlots[w] |= one;
            }
            if (tryIssue(_rob[slot >= head ? slot - head
                                           : slot + cap - head],
                         now)) {
                _readySlots[w] &= ~one;
                ++issued;
            }
            takeWakes();
            reread();
        }
    }
    if (charged)
        chargeParked(charged);
    if (issued)
        _progress = true;
}

// ---------------------------------------------------------------------
// Fetch / dispatch
// ---------------------------------------------------------------------

void
OoOCore::fetchStage(Cycle now)
{
    if (_fetchResumeAt == waitingForBranch)
        return; // the redirect branch issuing restarts fetch
    if (now < _fetchResumeAt) {
        clampWake(_fetchResumeAt);
        return;
    }

    unsigned fetched = 0;
    unsigned branches = 0;

    while (fetched < _cfg.fetchWidth) {
        if (_rob.size() >= _cfg.robEntries)
            break;

        if (!_havePending) {
            // Workload trace generation runs real allocating
            // algorithms by design; it is the one sanctioned heap
            // user inside the steady-state no-alloc scope. The
            // allow() is the static counterpart of the pause: it
            // prunes the generator subtree out of the R10 graph.
            PSB_ALLOC_GUARD_PAUSE();
            // psb-analyze: allow(R10)
            if (!_trace.next(_pendingOp)) {
                _traceDone = true;
                break;
            }
            _havePending = true;
        }

        if (_pendingOp.isMem() && _memOpsInRob >= _cfg.lsqEntries)
            break;

        // Instruction cache: one access per new fetch block.
        Addr fetch_block = _pendingOp.pc.alignDown(
            _hierarchy.config().l1i.blockBytes);
        if (fetch_block != _curFetchBlock) {
            Cycle ready = _hierarchy.instFetch(_pendingOp.pc, now);
            _curFetchBlock = fetch_block;
            if (ready > now + _hierarchy.config().l1Latency) {
                _fetchResumeAt = ready;
                clampWake(ready);
                break;
            }
        }

        RobEntry &entry = _rob.emplace_back();
        entry.op = _pendingOp;
        entry.seq = _nextSeq++;
        entry.slot = _nextSlot;
        _nextSlot = _nextSlot + 1 == _cfg.robEntries ? 0 : _nextSlot + 1;
        _havePending = false;

        // Register dependences against the current last writers.
        linkOperands(entry);
        if (entry.op.dst != regNone)
            _regLastWriter[entry.op.dst] = entry.seq;

        if (entry.op.isMem()) {
            ++_memOpsInRob;
            if (entry.op.isStore()) {
                _sq.push_back(SqEntry{entry.seq, entry.op.effAddr,
                                      entry.op.memSize});
            } else {
                // Youngest older store whose bytes overlap the load's.
                const Addr addr = entry.op.effAddr;
                for (std::size_t i = _sq.size(); i-- > 0;) {
                    const SqEntry &s = _sq[i];
                    if (s.effAddr < addr + entry.op.memSize &&
                        addr < s.effAddr + s.memSize) {
                        entry.aliasSeq = s.seq;
                        break;
                    }
                }
            }
            if (_cfg.disambiguation == DisambiguationMode::Learned) {
                entry.waitStoreSeq = _storeSets.dispatch(
                    entry.op.pc, entry.op.isStore(), entry.seq);
            }
        }

        ++fetched;

        if (entry.op.isBranch()) {
            ++_stats.branches;
            ++branches;
            const Addr pc = entry.op.pc;
            const bool taken = entry.op.taken;
            bool correct = _gshare.update(pc, taken, entry.op.target);
            if (!correct) {
                ++_stats.mispredicts;
                PSB_TRACE(Cpu, "mispredict", -1, "pc=%llu taken=%d",
                          (unsigned long long)pc.raw(), int(taken));
                // Fetch stops until this branch resolves at execute.
                _fetchResumeAt = waitingForBranch;
                _redirectBranchSeq = entry.seq;
                break;
            }
            if (taken)
                break; // fetch continues at the target next cycle
            if (branches >= _cfg.maxBranchesPerFetch)
                break;
        }
    }
    if (fetched)
        _progress = true;
}

void
OoOCore::registerStats(StatsRegistry &reg) const
{
    reg.addScalar("core.cycles", &_stats.cycles);
    reg.addScalar("core.instructions", &_stats.instructions);
    reg.addScalar("core.loads", &_stats.loads);
    reg.addScalar("core.stores", &_stats.stores);
    reg.addScalar("core.branches", &_stats.branches);
    reg.addScalar("core.mispredicts", &_stats.mispredicts);
    reg.addScalar("core.store_forwards", &_stats.storeForwards);
    reg.addScalar("core.mshr_stall_retries", &_stats.mshrStallRetries);
    reg.addScalar("core.order_violations", &_stats.orderViolations);
    reg.addScalar("core.sb_serviced", &_stats.sbServiced);
    reg.addReal("core.ipc", [this] { return _stats.ipc(); });
    reg.addAverage("core.load_latency", &_stats.loadLatency);

    reg.addReal("l1d.latency.p50", [this] {
        return double(_stats.loadMissLatency.percentile(0.50));
    });
    reg.addReal("l1d.latency.p90", [this] {
        return double(_stats.loadMissLatency.percentile(0.90));
    });
    reg.addReal("l1d.latency.p99", [this] {
        return double(_stats.loadMissLatency.percentile(0.99));
    });
    reg.addScalar("l1d.latency.samples", [this] {
        return _stats.loadMissLatency.total();
    });
    reg.addScalar("l1d.latency.overflow", [this] {
        return _stats.loadMissLatency.bucket(
            _stats.loadMissLatency.numBuckets());
    });

    reg.addScalar("l1d.accesses", &_stats.l1dAccesses);
    reg.addScalar("l1d.hits", &_stats.l1dHits);
    reg.addScalar("l1d.misses", &_stats.l1dMisses);
    reg.addScalar("l1d.in_flight", &_stats.l1dInFlight);
    reg.addReal("l1d.miss_rate",
                [this] { return _stats.l1dMissRate(); });

    _storeSets.registerStats(reg, "core.store_sets");
}

} // namespace psb
