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
                 Prefetcher &prefetcher, TraceSource &trace)
    : _cfg(cfg),
      _hierarchy(hierarchy),
      _prefetcher(prefetcher),
      _trace(trace),
      _gshare(cfg.gshare),
      _rob(cfg.robEntries),
      _slots(cfg.robEntries),
      _timed(cfg.robEntries),
      _readySlots((cfg.robEntries + 63) / 64, 0),
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
    _nextWake = Cycle::max();
    _progress = false;
    commitStage(now);
    issueStage(now);
    fetchStage(now);
    // Anything committed/issued/fetched can unblock more work next
    // cycle; and a wake computed for the past means "retry at once".
    if (_progress || _nextWake <= now)
        _nextWake = now + CycleDelta(1);
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
    const uint32_t slot = slotOf(entry.seq);
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
        uint32_t &head = _slots[slotOf(producer->seq)].dependents;
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
    psb_assert(_timedCount < _timed.size(), "timed wake queue overflow");
    _timed[_timedCount++] = TimedWake{_slots[slot].readyAt, slot};
    std::push_heap(_timed.begin(), _timed.begin() + _timedCount,
                   std::greater<>{});
}

void
OoOCore::wakeDependents(const RobEntry &entry)
{
    SlotSched &producer = _slots[slotOf(entry.seq)];
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
        ++_stats.mshrStallRetries;
        PSB_TRACE(Cpu, "mshr_stall", -1, "pc=%llu addr=%llu store=1",
                  (unsigned long long)entry.op.pc.raw(),
                  (unsigned long long)addr.raw());
        --_stats.l1dMisses;
        --_stats.l1dAccesses;
        --_stats.stores;
        return false; // hold commit; retry next cycle
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
            if (!commitStore(head, now)) {
                // MSHR-full: the failed attempt itself counted a
                // retry, so every stalled cycle must really tick.
                clampWake(now + CycleDelta(1));
                break;
            }
            --_storesInRob;
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
    const unsigned size = entry.op.memSize;

    // Memory disambiguation against earlier stores (skipped outright
    // when the ROB holds none — the common case for load-heavy code).
    // The alias is fixed at the first attempt (see RobEntry::aliasSeq),
    // so MSHR-stall retries skip the ROB walk; only the None policy
    // re-scans, since it needs the issue status of every prior store.
    const RobEntry *alias = nullptr;
    bool all_prior_stores_issued = true;
    if (_cfg.disambiguation == DisambiguationMode::None ||
        !entry.aliasKnown) {
        if (_storesInRob > 0) {
            for (auto it = _rob.begin(); it != _rob.end(); ++it) {
                if (it->seq >= entry.seq)
                    break;
                if (!it->op.isStore())
                    continue;
                if (!it->issued)
                    all_prior_stores_issued = false;
                Addr s = it->op.effAddr;
                if (s < addr + size && addr < s + it->op.memSize)
                    alias = &*it; // youngest older aliasing store wins
            }
        }
        entry.aliasSeq = alias ? alias->seq : 0;
        entry.aliasKnown = true;
    } else if (entry.aliasSeq != 0) {
        alias = findEntry(entry.aliasSeq); // null once committed
    }

    switch (_cfg.disambiguation) {
      case DisambiguationMode::None:
        // A load waits until all prior stores have issued.
        if (!all_prior_stores_issued)
            return false;
        break;
      case DisambiguationMode::Perfect:
        // Perfect store sets: wait only for a true alias.
        if (alias && !alias->issued)
            return false;
        break;
      case DisambiguationMode::Learned:
        if (entry.waitStoreSeq != 0) {
            const RobEntry *dep = findEntry(entry.waitStoreSeq);
            if (dep && dep->op.isStore() && !dep->issued)
                return false;
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
                // No MSHR: the load cannot issue this cycle. The
                // retry counter advances every stalled cycle, so the
                // span cannot be skipped.
                ++_stats.mshrStallRetries;
                --_stats.loads;
                --_stats.l1dAccesses;
                --_stats.l1dMisses;
                clampWake(now + CycleDelta(1));
                PSB_TRACE(Cpu, "mshr_stall", -1, "pc=%llu addr=%llu",
                          (unsigned long long)entry.op.pc.raw(),
                          (unsigned long long)addr.raw());
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
        clampWake(now + CycleDelta(1));
        return false;
    }

    if (entry.op.isLoad()) {
        // A false return without a clamp is a disambiguation wait
        // on an older, unissued store — the wake-up that store (or
        // its producers) is waiting on supplies the retry.
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

    // Attempt ready entries oldest first: slots from the head's to the
    // end, then wrapping from 0 to the head's. A wake-up issued this
    // cycle lands in the timed queue (doneAt > now), never in this
    // scan.
    const uint32_t cap = _cfg.robEntries;
    const uint32_t head = slotOf(_rob.front().seq);
    unsigned issued = 0;
    for (uint32_t pass = 0; pass < 2; ++pass) {
        const uint32_t lo = pass == 0 ? head : 0;
        const uint32_t hi = pass == 0 ? cap : head;
        for (uint32_t w = lo / 64; w * 64 < hi; ++w) {
            uint64_t bits = _readySlots[w];
            if (w == lo / 64)
                bits &= ~uint64_t(0) << (lo % 64);
            if ((w + 1) * 64 > hi)
                bits &= (uint64_t(1) << (hi % 64)) - 1;
            for (; bits != 0; bits &= bits - 1) {
                if (issued >= _cfg.issueWidth) {
                    _progress = true;
                    return;
                }
                const uint32_t bit = uint32_t(std::countr_zero(bits));
                const uint32_t slot = w * 64 + bit;
                if (tryIssue(_rob[slot >= head ? slot - head
                                               : slot + cap - head],
                             now)) {
                    _readySlots[w] &= ~(uint64_t(1) << bit);
                    ++issued;
                }
            }
        }
    }
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

        RobEntry entry;
        entry.op = _pendingOp;
        entry.seq = _nextSeq++;
        _havePending = false;

        // Register dependences against the current last writers.
        linkOperands(entry);
        if (entry.op.dst != regNone)
            _regLastWriter[entry.op.dst] = entry.seq;

        if (entry.op.isMem()) {
            ++_memOpsInRob;
            if (entry.op.isStore())
                ++_storesInRob;
            if (_cfg.disambiguation == DisambiguationMode::Learned) {
                entry.waitStoreSeq = _storeSets.dispatch(
                    entry.op.pc, entry.op.isStore(), entry.seq);
            }
        }

        bool is_branch = entry.op.isBranch();
        bool taken = entry.op.taken;
        Addr pc = entry.op.pc;
        Addr target = entry.op.target;
        uint64_t seq = entry.seq;

        _rob.push_back(entry);
        ++fetched;

        if (is_branch) {
            ++_stats.branches;
            ++branches;
            bool correct = _gshare.update(pc, taken, target);
            if (!correct) {
                ++_stats.mispredicts;
                PSB_TRACE(Cpu, "mispredict", -1, "pc=%llu taken=%d",
                          (unsigned long long)pc.raw(), int(taken));
                // Fetch stops until this branch resolves at execute.
                _fetchResumeAt = waitingForBranch;
                _redirectBranchSeq = seq;
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
