#include "sim/bench_harness.hh"

#include <algorithm>
#include <chrono> // psb-analyze: allow(R3)
#include <cstdio>
#include <map>
#include <memory>

#include "memory/cache.hh"
#include "memory/mshr.hh"
#include "memory/tlb.hh"
#include "predictors/diff_markov_table.hh"
#include "predictors/sfm_predictor.hh"
#include "predictors/stride_table.hh"
#include "prefetch/scheduler.hh"
#include "prefetch/stream_buffer.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "util/alloc_guard.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/sat_counter.hh"
#include "workloads/workload.hh"

namespace psb
{

namespace
{

/**
 * Wall-clock a callable in nanoseconds. This is the single place the
 * benchmark layer touches a clock; the simulator proper never does
 * (the R3 determinism rule), and everything derived from these
 * readings is emitted under a "wall_" key so tooling can tell the
 * nondeterministic fields apart from the contract-stable ones.
 */
template <typename Fn>
double
elapsedNs(const Fn &fn)
{
    using clock = std::chrono::steady_clock; // psb-analyze: allow(R3)
    auto t0 = clock::now();
    fn();
    auto t1 = clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/** Lower median of a sample set (deterministic for even counts). */
double
medianOf(std::vector<double> samples)
{
    psb_assert(!samples.empty(), "median of an empty sample set");
    std::sort(samples.begin(), samples.end());
    return samples[(samples.size() - 1) / 2];
}

using CounterList = std::vector<std::pair<std::string, uint64_t>>;

// ---------------------------------------------------------------- //
// The standard kernel set. Every kernel builds its own component
// state and draws its stimulus from a fixed-seed Xorshift64, so the
// checksum and counters are pure functions of the iteration count.
// ---------------------------------------------------------------- //

uint64_t
kernelCacheLookup(uint64_t iters, CounterList &counters)
{
    SetAssocCache cache(CacheGeometry{32 * 1024, 4, 32}, "bench");
    Xorshift64 rng(0x1001);
    Addr addr{0};
    uint64_t hits = 0;
    uint64_t misses = 0;
    for (uint64_t i = 0; i < iters; ++i) {
        // Three strided references, then a jump inside a 1 MB
        // footprint: enough reuse to exercise both hit and fill paths.
        if ((i & 3) == 3)
            addr = Addr{rng.below(1u << 20) & ~uint64_t(31)};
        else
            addr = addr + 32;
        if (cache.touch(addr)) {
            ++hits;
        } else {
            ++misses;
            cache.insert(addr);
        }
    }
    counters.emplace_back("hits", hits);
    counters.emplace_back("misses", misses);
    return hits * 31 + misses;
}

uint64_t
kernelTlbLookup(uint64_t iters, CounterList &counters)
{
    Tlb tlb(128, 8192, CycleDelta{30});
    Xorshift64 rng(0x1002);
    Addr addr{0};
    uint64_t penalty = 0;
    for (uint64_t i = 0; i < iters; ++i) {
        // Mostly same-page walks with occasional far jumps: the
        // locality of a data stream through Tlb::translate.
        if (rng.below(100) < 5)
            addr = Addr{rng.below(uint64_t(1) << 26) & ~uint64_t(7)};
        else
            addr = addr + 64;
        penalty += tlb.translate(addr).raw();
    }
    counters.emplace_back("penalty_cycles", penalty);
    return penalty;
}

uint64_t
kernelMshrSearch(uint64_t iters, CounterList &counters)
{
    MshrFile mshrs(8, "bench");
    Xorshift64 rng(0x1003);
    Cycle now{};
    uint64_t inflight_hits = 0;
    uint64_t allocations = 0;
    uint64_t full_stalls = 0;
    uint64_t checksum = 0;
    for (uint64_t i = 0; i < iters; ++i) {
        BlockAddr block{rng.below(48)};
        if (auto ready = mshrs.lookup(block, now)) {
            ++inflight_hits;
            checksum += ready->raw();
        } else if (!mshrs.full(now)) {
            mshrs.allocate(block, now + CycleDelta{120});
            ++allocations;
        } else {
            ++full_stalls;
        }
        now += CycleDelta{rng.below(8)};
    }
    counters.emplace_back("allocations", allocations);
    counters.emplace_back("full_stalls", full_stalls);
    counters.emplace_back("inflight_hits", inflight_hits);
    return checksum + allocations + full_stalls;
}

uint64_t
kernelStrideProbe(uint64_t iters, CounterList &counters)
{
    StrideTable table;
    Xorshift64 rng(0x1004);
    constexpr unsigned numPcs = 64;
    uint64_t addrs[numPcs];
    for (unsigned p = 0; p < numPcs; ++p)
        addrs[p] = uint64_t(p) << 12;
    uint64_t predicted = 0;
    uint64_t checksum = 0;
    for (uint64_t i = 0; i < iters; ++i) {
        unsigned p = unsigned(rng.below(numPcs));
        Addr pc{0x4000 + 8 * uint64_t(p)};
        // Per-PC strides of -3..+3 blocks; a 3% chance of a random
        // break keeps the two-delta replacement path warm.
        int64_t stride = (int64_t(p % 7) - 3) * 32;
        if (rng.below(100) < 3)
            addrs[p] = rng.below(uint64_t(1) << 24);
        else
            addrs[p] = uint64_t(int64_t(addrs[p]) + stride);
        StrideTrainResult res = table.train(pc, Addr{addrs[p]});
        table.recordOutcome(pc, res.stridePredicted);
        if (res.stridePredicted)
            ++predicted;
        checksum += uint64_t(table.predictedStride(pc).raw()) +
                    table.confidence(pc);
    }
    counters.emplace_back("predicted", predicted);
    return checksum;
}

uint64_t
kernelMarkovProbe(uint64_t iters, CounterList &counters)
{
    DiffMarkovTable table;
    Xorshift64 rng(0x1005);
    // A pointer-chasing walk over 64K blocks: the multiplicative hash
    // revisits transitions, so lookups hit recorded entries.
    uint64_t node = 1;
    BlockAddr prev{node};
    uint64_t hits = 0;
    uint64_t checksum = 0;
    for (uint64_t i = 0; i < iters; ++i) {
        node = (node * 2654435761u + rng.below(4)) & 0xffff;
        BlockAddr cur{node};
        table.update(prev, cur);
        if (auto predicted = table.lookup(cur)) {
            ++hits;
            checksum += predicted->raw();
        }
        prev = cur;
    }
    counters.emplace_back("hits", hits);
    counters.emplace_back("overflows", table.overflows());
    counters.emplace_back("updates", table.updates());
    return checksum + table.updates();
}

uint64_t
kernelSfmPredict(uint64_t iters, CounterList &counters)
{
    SfmPredictor sfm;
    Xorshift64 rng(0x1006);
    constexpr unsigned numPcs = 16;
    uint64_t addrs[numPcs];
    for (unsigned p = 0; p < numPcs; ++p)
        addrs[p] = uint64_t(p + 1) << 16;
    uint64_t predictions = 0;
    uint64_t noPrediction = 0;
    uint64_t checksum = 0;
    for (uint64_t i = 0; i < iters; ++i) {
        unsigned p = unsigned(rng.below(numPcs));
        Addr pc{0x8000 + 8 * uint64_t(p)};
        // Half the loads stride, half pointer-chase: the stride table
        // filters the former so the Markov half sees the latter.
        if (p & 1)
            addrs[p] += 32 * (1 + p % 3);
        else
            addrs[p] = (addrs[p] * 2654435761u) & 0x3fffff;
        sfm.train(pc, Addr{addrs[p]});
        if ((i & 3) == 0) {
            StreamState state = sfm.allocateStream(pc, Addr{addrs[p]});
            for (int k = 0; k < 4; ++k) {
                if (auto next = sfm.predictNext(state)) {
                    ++predictions;
                    checksum += next->raw();
                } else {
                    ++noPrediction;
                }
            }
        }
    }
    counters.emplace_back("no_prediction", noPrediction);
    counters.emplace_back("predictions", predictions);
    return checksum + predictions;
}

uint64_t
kernelStreamBufferSched(uint64_t iters, CounterList &counters)
{
    StreamBufferFile file(StreamBufferConfig{});
    BufferScheduler predictPort(SchedPolicy::Priority,
                                file.numBuffers(), "bench-predict");
    BufferScheduler prefetchPort(SchedPolicy::RoundRobin,
                                 file.numBuffers(), "bench-prefetch");
    Xorshift64 rng(0x1007);
    uint64_t lookupHits = 0;
    uint64_t checksum = 0;
    Cycle now{};
    for (uint64_t i = 0; i < iters; ++i) {
        ++now;
        // Occasional (re)allocation keeps streams and priorities live.
        unsigned b = unsigned(rng.below(file.numBuffers()));
        if (!file.buffer(b).allocated() || rng.below(100) < 1) {
            StreamState state;
            state.loadPc = Addr{0x100 + 8 * uint64_t(b)};
            state.lastAddr = BlockAddr{rng.below(4096)};
            state.stride = BlockDelta{int64_t(rng.below(3)) + 1};
            file.buffer(b).allocateStream(state,
                                          uint32_t(rng.below(13)));
        }
        // One predictor-port grant: fill a free slot of the winner.
        int pb = predictPort.pick(
            file,
            [&](unsigned idx) {
                return file.buffer(idx).allocated() &&
                       file.buffer(idx).freeEntry() >= 0;
            },
            [&](unsigned idx) {
                return file.buffer(idx).lastPredictStamp;
            });
        if (pb >= 0) {
            StreamBuffer &buf = file.buffer(unsigned(pb));
            int slot = buf.freeEntry();
            buf.state.lastAddr += buf.state.stride;
            if (!file.contains(buf.state.lastAddr))
                buf.fillEntry(slot, buf.state.lastAddr);
            buf.lastPredictStamp = file.nextStamp();
        }
        // One prefetch-port grant: issue the winner's pending entry.
        int fb = prefetchPort.pick(
            file,
            [&](unsigned idx) {
                return file.buffer(idx).pendingPrefetchEntry() >= 0;
            },
            [&](unsigned idx) {
                return file.buffer(idx).lastPrefetchStamp;
            });
        if (fb >= 0) {
            StreamBuffer &buf = file.buffer(unsigned(fb));
            int slot = buf.pendingPrefetchEntry();
            buf.markPrefetched(slot, now + CycleDelta{12});
            buf.lastPrefetchStamp = file.nextStamp();
        }
        // A demand lookup against the same block range; a hit consumes
        // the entry and rewards the buffer, as the PSB does.
        if (auto hit = file.findBlock(BlockAddr{rng.below(4096)})) {
            StreamBuffer &buf = file.buffer(hit->buf);
            buf.clearEntry(hit->entry);
            buf.priority.increment(2);
            buf.notePriorityPeak();
            ++lookupHits;
            checksum += hit->buf + uint64_t(hit->entry);
        }
    }
    counters.emplace_back("lookup_hits", lookupHits);
    counters.emplace_back("predict_grants", predictPort.grants());
    counters.emplace_back("prefetch_grants", prefetchPort.grants());
    return checksum + predictPort.grants() + prefetchPort.grants();
}

uint64_t
kernelSatCounterUpdate(uint64_t iters, CounterList &counters)
{
    constexpr unsigned numCounters = 64;
    std::vector<SatCounter> ctrs;
    ctrs.reserve(numCounters);
    for (unsigned i = 0; i < numCounters; ++i)
        ctrs.emplace_back(12, i % 13);
    Xorshift64 rng(0x1008);
    uint64_t checksum = 0;
    for (uint64_t i = 0; i < iters; ++i) {
        uint64_t r = rng.next();
        SatCounter &ctr = ctrs[r % numCounters];
        if (r & (uint64_t(1) << 32))
            ctr.increment(1 + unsigned((r >> 33) % 3));
        else
            ctr.decrement(1);
        checksum += ctr.value();
    }
    counters.emplace_back("final_sum", [&] {
        uint64_t sum = 0;
        for (const SatCounter &ctr : ctrs)
            sum += ctr.value();
        return sum;
    }());
    return checksum;
}

uint64_t
kernelOoOCoreLoop(uint64_t iters, CounterList &counters)
{
    // The full per-cycle pipeline loop with fast-forward disabled, so
    // the wall time per iteration is the cost of simulating one
    // committed instruction through commit/issue/fetch every cycle.
    auto trace = makeWorkload("health", 1);
    psb_assert(trace != nullptr, "health workload must exist");
    SimConfig cfg = makePaperConfig(PaperConfig::Base);
    cfg.warmupInstructions = iters / 5;
    cfg.maxInstructions = iters;
    cfg.fastForward = false;
    Simulator sim(cfg, *trace);
    SimResult res = sim.run();
    counters.emplace_back("cycles", res.core.cycles);
    counters.emplace_back("instructions", res.core.instructions);
    return res.core.cycles;
}

// ---------------------------------------------------------------- //
// JSON emission: hand-rolled so the key order (sorted) and number
// formatting (integers verbatim, floats "%.3f") are fixed by
// construction, never by library defaults.
// ---------------------------------------------------------------- //

std::string
formatWall(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

void
emitCounterObject(std::string &out, const CounterList &counters,
                  const std::string &indent)
{
    CounterList sorted = counters;
    std::sort(sorted.begin(), sorted.end());
    out += "{";
    for (size_t i = 0; i < sorted.size(); ++i) {
        out += i ? ",\n" : "\n";
        out += indent + "  \"" + sorted[i].first +
               "\": " + std::to_string(sorted[i].second);
    }
    out += sorted.empty() ? "}" : "\n" + indent + "}";
}

void
emitSimCell(std::string &out, const BenchSimResult &cell,
            const std::string &indent)
{
    out += "{\n";
    out += indent + "  \"cycles\": " + std::to_string(cell.cycles) +
           ",\n";
    out += indent +
           "  \"instructions\": " + std::to_string(cell.instructions) +
           ",\n";
    out += indent + "  \"steady_state_allocs\": " +
           std::to_string(cell.steadyStateAllocs) + ",\n";
    out += indent + "  \"wall_cycles_per_sec\": " +
           formatWall(cell.wallCyclesPerSec) + ",\n";
    out += indent + "  \"wall_ms\": " + formatWall(cell.wallMs) + "\n";
    out += indent + "}";
}

} // namespace

BenchHarness::BenchHarness(const BenchHarnessOptions &opts) : _opts(opts)
{
    psb_assert(_opts.repeats > 0, "bench harness needs repeats > 0");
}

void
BenchHarness::addKernel(const std::string &name, uint64_t iterations,
                        uint64_t quick_iterations, KernelFn fn)
{
    for (const Kernel &k : _kernels)
        psb_assert(k.name != name, "duplicate bench kernel name");
    _kernels.push_back(
        Kernel{name, iterations, quick_iterations, std::move(fn)});
}

std::vector<std::string>
BenchHarness::kernelNames() const
{
    std::vector<std::string> names;
    names.reserve(_kernels.size());
    for (const Kernel &k : _kernels)
        names.push_back(k.name);
    return names;
}

std::vector<BenchKernelResult>
BenchHarness::runKernels() const
{
    std::vector<BenchKernelResult> results;
    for (const Kernel &kernel : _kernels) {
        if (!_opts.filter.empty() &&
            kernel.name.find(_opts.filter) == std::string::npos)
            continue;
        uint64_t iters =
            _opts.quick ? kernel.quickIterations : kernel.iterations;
        BenchKernelResult res;
        res.name = kernel.name;
        res.iterations = iters;
        std::vector<double> samples;
        samples.reserve(_opts.repeats);
        for (unsigned rep = 0; rep < _opts.repeats; ++rep) {
            CounterList counters;
            uint64_t checksum = 0;
            double ns = elapsedNs(
                [&] { checksum = kernel.fn(iters, counters); });
            samples.push_back(ns / double(iters));
            if (rep == 0) {
                res.checksum = checksum;
                res.counters = std::move(counters);
            } else if (checksum != res.checksum) {
                fatal("bench kernel '%s' is nondeterministic: checksum "
                      "%llu vs %llu across repeats",
                      kernel.name.c_str(),
                      (unsigned long long)checksum,
                      (unsigned long long)res.checksum);
            }
        }
        res.wallNsPerIter = medianOf(samples);
        res.wallNsPerIterMin =
            *std::min_element(samples.begin(), samples.end());
        results.push_back(std::move(res));
    }
    std::sort(results.begin(), results.end(),
              [](const BenchKernelResult &a, const BenchKernelResult &b) {
                  return a.name < b.name;
              });
    return results;
}

std::vector<BenchSimResult>
BenchHarness::runSimMatrix() const
{
    std::vector<BenchSimResult> cells;
    if (_opts.skipSims)
        return cells;

    std::vector<std::string> workloads = workloadNames();
    std::vector<PaperConfig> configs(std::begin(paperConfigs),
                                     std::end(paperConfigs));
    if (_opts.quick) {
        workloads = {"health", "gs"};
        configs = {PaperConfig::Base, PaperConfig::ConfAllocPriority};
    }

    for (const std::string &workload : workloads) {
        for (PaperConfig paper : configs) {
            BenchSimResult cell;
            cell.name = workload + "/" + paperConfigName(paper);
            std::vector<double> samples;
            samples.reserve(_opts.repeats);
            for (unsigned rep = 0; rep < _opts.repeats; ++rep) {
                auto trace = makeWorkload(workload);
                psb_assert(trace != nullptr, "unknown bench workload");
                SimConfig cfg = makePaperConfig(paper);
                cfg.warmupInstructions = _opts.simWarmup;
                cfg.maxInstructions = _opts.simInstructions;
                SimResult res;
                uint64_t allocs0 = AllocGuard::scopedAllocs();
                double ns = elapsedNs([&] {
                    Simulator sim(cfg, *trace);
                    res = sim.run();
                });
                samples.push_back(ns / 1e6);
                cell.cycles = res.core.cycles;
                cell.instructions = res.core.instructions;
                cell.steadyStateAllocs =
                    AllocGuard::scopedAllocs() - allocs0;
            }
            cell.wallMs = medianOf(samples);
            cell.wallCyclesPerSec =
                cell.wallMs > 0.0
                    ? double(cell.cycles) / (cell.wallMs / 1e3)
                    : 0.0;
            cells.push_back(std::move(cell));
        }
    }
    std::sort(cells.begin(), cells.end(),
              [](const BenchSimResult &a, const BenchSimResult &b) {
                  return a.name < b.name;
              });

    BenchSimResult total;
    total.name = "total";
    for (const BenchSimResult &cell : cells) {
        total.cycles += cell.cycles;
        total.instructions += cell.instructions;
        total.steadyStateAllocs += cell.steadyStateAllocs;
        total.wallMs += cell.wallMs;
    }
    total.wallCyclesPerSec =
        total.wallMs > 0.0 ? double(total.cycles) / (total.wallMs / 1e3)
                           : 0.0;
    cells.push_back(std::move(total));
    return cells;
}

void
registerDefaultKernels(BenchHarness &harness)
{
    harness.addKernel("cache_lookup", 2'000'000, 100'000,
                      kernelCacheLookup);
    harness.addKernel("markov_probe", 4'000'000, 100'000,
                      kernelMarkovProbe);
    harness.addKernel("mshr_search", 2'000'000, 100'000,
                      kernelMshrSearch);
    harness.addKernel("ooo_core_loop", 150'000, 20'000,
                      kernelOoOCoreLoop);
    harness.addKernel("satcounter_update", 8'000'000, 200'000,
                      kernelSatCounterUpdate);
    harness.addKernel("sfm_predict", 1'000'000, 50'000,
                      kernelSfmPredict);
    harness.addKernel("stream_buffer_sched", 500'000, 20'000,
                      kernelStreamBufferSched);
    harness.addKernel("stride_probe", 2'000'000, 100'000,
                      kernelStrideProbe);
    harness.addKernel("tlb_lookup", 4'000'000, 100'000,
                      kernelTlbLookup);
}

std::string
benchJson(const std::vector<BenchKernelResult> &kernels,
          const std::vector<BenchSimResult> &sims,
          const BenchHarnessOptions &opts)
{
    // Separate the aggregate row from the matrix cells; both are
    // sorted by name (runSimMatrix already guarantees it, but emission
    // must not depend on the caller).
    std::map<std::string, const BenchSimResult *> cellMap;
    const BenchSimResult *total = nullptr;
    for (const BenchSimResult &cell : sims) {
        if (cell.name == "total")
            total = &cell;
        else
            cellMap[cell.name] = &cell;
    }
    std::map<std::string, const BenchKernelResult *> kernelMap;
    for (const BenchKernelResult &kernel : kernels)
        kernelMap[kernel.name] = &kernel;

    std::string out = "{\n";

    out += "  \"fig5\": {";
    if (!cellMap.empty() || total) {
        out += "\n    \"cells\": {";
        size_t i = 0;
        for (const auto &[name, cell] : cellMap) {
            out += i++ ? ",\n" : "\n";
            out += "      \"" + name + "\": ";
            emitSimCell(out, *cell, "      ");
        }
        out += cellMap.empty() ? "}" : "\n    }";
        if (total) {
            out += ",\n    \"total\": ";
            emitSimCell(out, *total, "    ");
        }
        out += "\n  ";
    }
    out += "},\n";

    out += "  \"kernels\": {";
    size_t i = 0;
    for (const auto &[name, kernel] : kernelMap) {
        out += i++ ? ",\n" : "\n";
        out += "    \"" + name + "\": {\n";
        out += "      \"checksum\": " +
               std::to_string(kernel->checksum) + ",\n";
        out += "      \"counters\": ";
        emitCounterObject(out, kernel->counters, "      ");
        out += ",\n";
        out += "      \"iterations\": " +
               std::to_string(kernel->iterations) + ",\n";
        out += "      \"wall_ns_per_iter\": " +
               formatWall(kernel->wallNsPerIter) + ",\n";
        out += "      \"wall_ns_per_iter_min\": " +
               formatWall(kernel->wallNsPerIterMin) + "\n";
        out += "    }";
    }
    out += kernelMap.empty() ? "},\n" : "\n  },\n";

    out += "  \"meta\": {\n";
    out += "    \"hot_callgraph_edges\": " +
           std::to_string(opts.hotCallgraphEdges) + ",\n";
    out += "    \"hot_callgraph_reachable\": " +
           std::to_string(opts.hotCallgraphReachable) + ",\n";
    out += "    \"hot_callgraph_roots\": " +
           std::to_string(opts.hotCallgraphRoots) + ",\n";
    out += std::string("    \"quick\": ") +
           (opts.quick ? "true" : "false") + ",\n";
    out += "    \"repeats\": " + std::to_string(opts.repeats) + ",\n";
    out += "    \"schema_version\": 1,\n";
    out += "    \"sim_instructions\": " +
           std::to_string(opts.skipSims ? 0 : opts.simInstructions) +
           ",\n";
    out += "    \"sim_warmup\": " +
           std::to_string(opts.skipSims ? 0 : opts.simWarmup) + "\n";
    out += "  }\n";
    out += "}\n";
    return out;
}

std::string
maskWallFields(const std::string &json)
{
    std::string out;
    out.reserve(json.size());
    size_t i = 0;
    while (i < json.size()) {
        size_t key = json.find("\"wall_", i);
        if (key == std::string::npos) {
            out.append(json, i, std::string::npos);
            break;
        }
        size_t colon = json.find(':', key);
        if (colon == std::string::npos) {
            out.append(json, i, std::string::npos);
            break;
        }
        out.append(json, i, colon + 1 - i);
        out += " 0";
        size_t end = json.find_first_of(",}\n", colon + 1);
        if (end == std::string::npos)
            break;
        i = end;
    }
    return out;
}

namespace
{

/** Leaf scalar rendered for an exact-match message. */
std::string
describeLeaf(const JsonValue &v)
{
    switch (v.kind) {
    case JsonValue::Kind::Null: return "null";
    case JsonValue::Kind::Bool: return v.boolean ? "true" : "false";
    case JsonValue::Kind::Number: return v.raw;
    case JsonValue::Kind::String: return "\"" + v.str + "\"";
    default: return "<composite>";
    }
}

void
compareNodes(const JsonValue &oldv, const JsonValue &newv,
             const std::string &path, const std::string &key,
             double max_regress_pct, BenchCompareResult &result)
{
    bool wallKey = key.rfind("wall_", 0) == 0;
    if (wallKey) {
        if (!oldv.isNumber() || !newv.isNumber()) {
            result.mismatch = true;
            result.messages.push_back(path +
                                      ": wall field is not a number");
            return;
        }
        if (oldv.number <= 0.0)
            return; // no baseline signal to gate on
        // For throughput fields lower is worse; for raw wall times
        // higher is worse.
        bool higherIsBetter =
            key.find("per_sec") != std::string::npos;
        double worsePct =
            higherIsBetter
                ? 100.0 * (oldv.number - newv.number) / oldv.number
                : 100.0 * (newv.number - oldv.number) / oldv.number;
        if (worsePct > max_regress_pct) {
            result.regression = true;
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.1f", worsePct);
            result.messages.push_back(
                path + ": regressed " + buf + "% (" + oldv.raw +
                " -> " + newv.raw + ", threshold " +
                formatWall(max_regress_pct) + "%)");
        }
        return;
    }

    if (oldv.kind != newv.kind) {
        result.mismatch = true;
        result.messages.push_back(path + ": value kind changed");
        return;
    }
    switch (oldv.kind) {
    case JsonValue::Kind::Object: {
        for (const auto &[k, v] : oldv.object) {
            const JsonValue *other = newv.find(k);
            if (!other) {
                result.mismatch = true;
                result.messages.push_back(path + "." + k +
                                          ": missing from new document");
                continue;
            }
            compareNodes(v, *other, path + "." + k, k,
                         max_regress_pct, result);
        }
        for (const auto &[k, v] : newv.object) {
            (void)v;
            if (!oldv.find(k)) {
                result.mismatch = true;
                result.messages.push_back(path + "." + k +
                                          ": not in old document");
            }
        }
        break;
    }
    case JsonValue::Kind::Array: {
        if (oldv.array.size() != newv.array.size()) {
            result.mismatch = true;
            result.messages.push_back(path + ": array length differs");
            break;
        }
        for (size_t i = 0; i < oldv.array.size(); ++i)
            compareNodes(oldv.array[i], newv.array[i],
                         path + "[" + std::to_string(i) + "]", "",
                         max_regress_pct, result);
        break;
    }
    case JsonValue::Kind::Number:
        // Exact spelling comparison: the emitter is deterministic, so
        // any drift in a non-wall number is a real behaviour change.
        if (oldv.raw != newv.raw) {
            result.mismatch = true;
            result.messages.push_back(path + ": " + oldv.raw + " -> " +
                                      newv.raw);
        }
        break;
    default:
        if (oldv.boolean != newv.boolean || oldv.str != newv.str ||
            oldv.kind != newv.kind) {
            result.mismatch = true;
            result.messages.push_back(path + ": " + describeLeaf(oldv) +
                                      " -> " + describeLeaf(newv));
        }
        break;
    }
}

} // namespace

BenchCompareResult
compareBenchJson(const std::string &old_json,
                 const std::string &new_json, double max_regress_pct)
{
    BenchCompareResult result;
    JsonValue oldDoc;
    JsonValue newDoc;
    std::string error;
    if (!parseJson(old_json, oldDoc, error)) {
        result.mismatch = true;
        result.messages.push_back("old document: " + error);
        return result;
    }
    if (!parseJson(new_json, newDoc, error)) {
        result.mismatch = true;
        result.messages.push_back("new document: " + error);
        return result;
    }
    compareNodes(oldDoc, newDoc, "$", "", max_regress_pct, result);
    return result;
}

} // namespace psb
