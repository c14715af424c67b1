#include "core/psb.hh"

#include "util/logging.hh"
#include "util/trace.hh"

namespace psb
{

const char *
allocPolicyName(AllocPolicy policy)
{
    switch (policy) {
      case AllocPolicy::TwoMiss:    return "2Miss";
      case AllocPolicy::Confidence: return "ConfAlloc";
      case AllocPolicy::Always:     return "Always";
    }
    return "Unknown";
}

PredictorDirectedStreamBuffers::PredictorDirectedStreamBuffers(
    const PsbConfig &cfg, AddressPredictor &predictor,
    MemoryHierarchy &hierarchy)
    : _cfg(cfg),
      _predictor(predictor),
      _hierarchy(hierarchy),
      _file(cfg.buffers),
      _predictSched(cfg.sched, cfg.buffers.numBuffers, "predict"),
      _prefetchSched(cfg.sched, cfg.buffers.numBuffers, "prefetch"),
      _agingCountdown(cfg.buffers.agingPeriod)
{
}

PrefetchLookup
PredictorDirectedStreamBuffers::lookup(Addr addr, Cycle now)
{
    ++_stats.lookups;
    PrefetchLookup result;

    BlockAddr block = _file.blockOf(addr);
    auto hit = _file.findBlock(block);
    if (!hit)
        return result;

    StreamBuffer &buf = _file.buffer(hit->buf);
    const SbEntry &entry = buf.entries()[hit->entry];

    if (!entry.prefetched) {
        // The prediction was right but its prefetch has not issued
        // yet: no data to provide. The entry is left in place — the
        // access may be retrying an MSHR-full stall, and a completed
        // demand fill reconciles it via demandMiss() instead.
        return result;
    }

    ++_stats.hits;
    result.hit = true;
    result.ready = entry.ready;
    result.dataPending = entry.ready > now;
    if (result.dataPending)
        ++_stats.hitsPending;

    // "Every time there is a lookup and the stream buffer gets a hit,
    // the priority counter is incremented by a constant value (2)."
    buf.priority.increment(_cfg.buffers.priorityHitIncrement);
    buf.notePriorityPeak();
    ++buf.hitCount;
    buf.lastHitStamp = _file.nextStamp();
    PSB_TRACE(Psb, "hit", int(hit->buf), "block=%llu priority=%u%s",
              (unsigned long long)block.raw(), buf.priority.value(),
              result.dataPending ? " pending" : "");

    // The entry is freed for a new prediction and prefetch.
    _attrib.use(entry.lineage, now, entry.ready);
    _file.clearEntry(hit->buf, hit->entry);
    return result;
}

void
PredictorDirectedStreamBuffers::trainLoad(Addr pc, Addr addr, bool l1_miss,
                                          bool store_forwarded)
{
    // The tables predict the miss stream: update only on L1D misses,
    // and never for loads whose value came from a store forward.
    if (!l1_miss || store_forwarded)
        return;
    _predictor.train(pc, addr);
}

void
PredictorDirectedStreamBuffers::settleThrashedStream(
    const StreamBuffer &buf)
{
    // Re-allocating a live stream wipes its entries: every prefetched
    // one dies evicted-unused (the attribution layer reclassifies
    // issue-time redundancies itself).
    if (!buf.allocated())
        return;
    for (const SbEntry &e : buf.entries()) {
        if (e.valid && e.prefetched)
            _attrib.terminal(e.lineage,
                             PrefetchOutcomeKind::EvictedUnused);
    }
}

bool
PredictorDirectedStreamBuffers::tryAllocate(Addr pc, Addr addr)
{
    if (_cfg.alloc == AllocPolicy::Always) {
        unsigned victim = _file.lruBuffer();
        settleThrashedStream(_file.buffer(victim));
        _file.allocateStream(victim, _predictor.allocateStream(pc, addr),
                             _predictor.confidence(pc));
        StreamBuffer &buf = _file.buffer(victim);
        buf.allocStamp = buf.lastHitStamp = _file.nextStamp();
        return true;
    }

    if (_cfg.alloc == AllocPolicy::TwoMiss) {
        // Generalised two-miss filter: the last two misses of this
        // load were both correctly predictable (stride or Markov).
        if (!_predictor.twoMissFilterPass(pc, addr))
            return false;
        unsigned victim = _file.lruBuffer();
        settleThrashedStream(_file.buffer(victim));
        _file.allocateStream(victim, _predictor.allocateStream(pc, addr),
                             _predictor.confidence(pc));
        StreamBuffer &buf = _file.buffer(victim);
        buf.allocStamp = buf.lastHitStamp = _file.nextStamp();
        return true;
    }

    // Confidence allocation (§4.3): the load's accuracy confidence
    // must reach the threshold, and must be >= the priority counter of
    // at least one stream buffer — otherwise every current stream has
    // proven more useful than this load and no buffer is stolen.
    uint32_t conf = _predictor.confidence(pc);
    if (conf < _cfg.buffers.allocConfThreshold)
        return false;
    unsigned victim = _file.minPriorityBuffer();
    StreamBuffer &buf = _file.buffer(victim);
    if (buf.allocated() && buf.priority.value() > conf)
        return false;
    settleThrashedStream(buf);
    _file.allocateStream(victim, _predictor.allocateStream(pc, addr), conf);
    buf.allocStamp = buf.lastHitStamp = _file.nextStamp();
    return true;
}

void
PredictorDirectedStreamBuffers::demandMiss(Addr pc, Addr addr, Cycle)
{
    // A demand fill is under way for this block. If a buffer had
    // predicted it but the prefetch never issued, release the entry —
    // the prediction was right, just too late (no accuracy penalty:
    // it was never a prefetch). The stream itself is tracking
    // correctly, so this is not an allocation request.
    BlockAddr block = _file.blockOf(addr);
    if (auto tag = _file.findBlock(block)) {
        StreamBuffer &buf = _file.buffer(tag->buf);
        if (!buf.entries()[tag->entry].prefetched) {
            ++_stats.lateTagHits;
            PSB_TRACE(Psb, "late_tag_hit", int(tag->buf), "block=%llu",
                      (unsigned long long)block.raw());
            _file.clearEntry(tag->buf, tag->entry);
            return;
        }
    }

    ++_stats.allocationRequests;

    // Aging (§4.4): every agingPeriod allocation requests, decay every
    // buffer's priority so long-lived streams can be reclaimed.
    if (--_agingCountdown == 0) {
        _agingCountdown = _cfg.buffers.agingPeriod;
        for (unsigned b = 0; b < _file.numBuffers(); ++b)
            _file.buffer(b).priority.decrement();
        PSB_TRACE(Psb, "aging", -1, "period=%u",
                  _cfg.buffers.agingPeriod);
    }

    if (tryAllocate(pc, addr)) {
        ++_stats.allocations;
    } else {
        ++_stats.allocationsFiltered;
        PSB_TRACE(Psb, "alloc.filtered", -1, "pc=%llu addr=%llu",
                  (unsigned long long)pc.raw(),
                  (unsigned long long)addr.raw());
    }
}

void
PredictorDirectedStreamBuffers::makePrediction(Cycle now)
{
    // One buffer per cycle gets the shared predictor port.
    int winner = _predictSched.pick(_file, _file.portCandidates(),
                                    &StreamBuffer::lastPredictStamp);
    if (winner < 0)
        return;

    StreamBuffer &buf = _file.buffer(unsigned(winner));
    buf.lastPredictStamp = _file.nextStamp();

    auto predicted = _predictor.predictNext(buf.state);
    if (!predicted)
        return;
    ++_stats.predictions;
    PSB_TRACE(Psb, "predict", winner, "block=%llu",
              (unsigned long long)predicted->raw());

    // Non-overlapping streams: a block already present in any buffer
    // is not predicted again. The stream history has already advanced.
    BlockAddr block = *predicted;
    if (_file.contains(block)) {
        ++_stats.duplicateSuppressed;
        PSB_TRACE(Psb, "predict.duplicate", winner, "block=%llu",
                  (unsigned long long)block.raw());
        return;
    }

    int slot = buf.freeEntry();
    psb_assert(slot >= 0, "scheduler picked a buffer with no free entry");
    _file.fillEntry(unsigned(winner), slot, block, buf.state.lastSource);
    (void)now;
}

void
PredictorDirectedStreamBuffers::issuePrefetch(Cycle now)
{
    // "We only allow prefetches to occur if the L1-L2 bus is free at
    // the start of any given cycle."
    if (!_hierarchy.l1ToL2BusFree(now))
        return;

    int winner = _prefetchSched.pick(_file, _file.pendingCandidates(),
                                     &StreamBuffer::lastPrefetchStamp);
    if (winner < 0)
        return;

    StreamBuffer &buf = _file.buffer(unsigned(winner));
    buf.lastPrefetchStamp = _file.nextStamp();

    int slot = buf.pendingPrefetchEntry();
    const SbEntry &entry = buf.entries()[slot];

    // Paper §4.5 option: a buffer that cached its page translation
    // only consults the TLB when the stream leaves the page.
    bool translate = true;
    if (_cfg.buffers.cacheTlbTranslation) {
        uint64_t page = entry.block.toByte(_file.lineBits()).raw() /
                        _hierarchy.config().pageBytes;
        if (buf.translatedPage == page) {
            translate = false;
            ++_stats.tlbTranslationsSkipped;
        } else {
            buf.translatedPage = page;
        }
    }

    PrefetchOutcome outcome =
        _hierarchy.prefetch(entry.block, now, translate);
    PrefetchOrigin origin;
    origin.source = entry.source;
    origin.loadPc = buf.state.loadPc;
    origin.stride = buf.state.stride;
    origin.confidence = buf.state.confidence;
    origin.slot = winner;
    uint64_t lineage = _attrib.issue(
        origin, entry.block, now, outcome.ready,
        _hierarchy.demandHasBlock(entry.block, now));
    _file.markPrefetched(unsigned(winner), slot, outcome.ready, lineage);
    PSB_TRACE(Psb, "prefetch", winner,
              "block=%llu ready=%llu translate=%d",
              (unsigned long long)entry.block.raw(),
              (unsigned long long)outcome.ready.raw(), int(translate));
}

void
PredictorDirectedStreamBuffers::tick(Cycle now)
{
    makePrediction(now);
    issuePrefetch(now);
}

bool
PredictorDirectedStreamBuffers::fastForwardTicks(Cycle from, uint64_t n)
{
    const bool predict_candidate = _file.portCandidates() != 0;
    const bool prefetch_candidate = _file.pendingCandidates() != 0;

    // issuePrefetch() consults the scheduler only on bus-free cycles,
    // and a queued prefetch would issue on the first of them. Nothing
    // below enqueues one: a replayed port only suppresses duplicates.
    uint64_t bus_free = _hierarchy.l1L2Bus().freeCyclesIn(from, n);
    if (prefetch_candidate && bus_free > 0)
        return false;

    if (predict_candidate) {
        // Someone wins the port every cycle: replayable only when
        // every winner's stream is stalled.
        if (!replayStalledPort(n))
            return false;
    } else {
        _predictSched.addNoCandidatePicks(n);
    }
    if (!prefetch_candidate)
        _prefetchSched.addNoCandidatePicks(bus_free);
    return true;
}

bool
PredictorDirectedStreamBuffers::replayStalledPort(uint64_t n)
{
    // A replay emits none of the per-cycle grant/predict events.
    if (traceAnyEnabled())
        return false;

    std::span<const unsigned> cycle = _predictSched.winnerCycle(
        _file, _file.portCandidates(), &StreamBuffer::lastPredictStamp);
    const uint64_t k = cycle.size();
    const uint64_t winners = n < k ? n : k;

    // Check every winner before touching anything: a refusal leaves
    // no trace. Pick j goes to cycle[j % k]; a stalled stream's
    // makePrediction() only restamps it and, when the predictor does
    // predict, counts a prediction and a duplicate, provided the
    // block is already in the file (no buffer changes in the span).
    uint64_t duplicates = 0;
    for (uint64_t i = 0; i < winners; ++i) {
        const StreamBuffer &buf = _file.buffer(cycle[i]);
        PredictFixedPoint fp = _predictor.fixedPoint(buf.state);
        if (!fp.stalled)
            return false;
        if (fp.next) {
            if (!_file.contains(*fp.next))
                return false;
            duplicates += (n - 1 - i) / k + 1;
        }
    }

    uint64_t first = _file.takeStamps(n);
    for (uint64_t i = 0; i < winners; ++i) {
        uint64_t last_pick = i + (n - 1 - i) / k * k;
        _file.buffer(cycle[i]).lastPredictStamp = first + last_pick;
    }
    _predictSched.replayGrants(cycle, n);
    _stats.predictions += duplicates;
    _stats.duplicateSuppressed += duplicates;
    return true;
}

void
PredictorDirectedStreamBuffers::resetStats()
{
    _stats = PrefetcherStats{};
    _attrib.resetStats();
    _predictSched.resetStats();
    _prefetchSched.resetStats();
    for (unsigned b = 0; b < _file.numBuffers(); ++b)
        _file.buffer(b).resetBufferStats();
}

void
PredictorDirectedStreamBuffers::registerStats(StatsRegistry &reg,
                                              const std::string &prefix)
    const
{
    Prefetcher::registerStats(reg, prefix);
    for (unsigned b = 0; b < _file.numBuffers(); ++b) {
        const StreamBuffer &buf = _file.buffer(b);
        std::string base = prefix + ".buffer" + std::to_string(b);
        reg.addScalar(base + ".priority",
                      [&buf] { return uint64_t(buf.priority.value()); });
        reg.addScalar(base + ".priority_peak",
                      [&buf] { return uint64_t(buf.priorityPeak); });
        reg.addScalar(base + ".hits", &buf.hitCount);
        reg.addScalar(base + ".stream_allocs", &buf.streamAllocs);
        reg.addScalar(base + ".allocated",
                      [&buf] { return uint64_t(buf.allocated()); });
    }
    _predictSched.registerStats(reg, prefix + ".sched.predict");
    _prefetchSched.registerStats(reg, prefix + ".sched.prefetch");
}

} // namespace psb
