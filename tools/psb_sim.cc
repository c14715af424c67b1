/**
 * @file
 * psb-sim — the command-line front end to the simulator: pick a
 * workload and a machine configuration, run, and get the full report.
 * The downstream-user entry point that needs no C++.
 *
 * Usage:
 *   psb-sim [options]
 *     --workload NAME     health|burg|deltablue|gs|sis|turb3d|
 *                         graph|hashjoin|logscan|fuzz
 *                         (default health)
 *     --fuzz-spec PATH    fuzz scenario JSON ("-" = stdin); implies
 *                         and requires --workload fuzz
 *     --config NAME       one of the paper's six machines (Base,
 *                         PCStride, 2Miss-RR, 2Miss-Priority,
 *                         ConfAlloc-RR, ConfAlloc-Priority); sets
 *                         the prefetcher/alloc/sched trio and cannot
 *                         be combined with those three flags
 *     --prefetcher NAME   none|pcstride|psb|sequential|nextline|
 *                         markov|mindelta          (default psb)
 *     --alloc NAME        2miss|conf|always        (default conf)
 *     --sched NAME        rr|priority              (default priority)
 *     --insts N           measured instructions    (default 1000000)
 *     --warmup N          warm-up instructions     (default 250000)
 *     --seed N            workload seed            (default 1)
 *     --l1d-kb N          L1D capacity in KB       (default 32)
 *     --l1d-assoc N       L1D associativity        (default 4)
 *     --buffers N         stream buffers           (default 8)
 *     --entries N         entries per buffer       (default 4)
 *     --markov-entries N  Markov table entries     (default 2048)
 *     --delta-bits N      Markov delta width       (default 16)
 *     --order K           order-K context predictor instead of SFM
 *     --sfm-mode MODE     sfm|stride-only|markov-only (default sfm)
 *     --aging N           priority aging period    (default 10)
 *     --conf-threshold N  confidence allocation threshold (default 1)
 *     --disambig MODE     perfect|none|learned     (default perfect)
 *     --nodis             same as --disambig none
 *     --tlb-cache         cache TLB translations in buffers (§4.5)
 *     --no-fastforward    tick every cycle (A/B timing; results are
 *                         identical either way)
 *     --assert-no-alloc   abort on any heap allocation inside the
 *                         steady-state cycle loop (needs a
 *                         PSB_ALLOC_GUARD build; rule R10)
 *     --stats-json PATH   write every registered stat as
 *                         deterministic JSON ("-" = stdout)
 *     --stats             print the full stats registry as text
 *     --trace FLAGS       enable event tracing: comma-separated flag
 *                         list (psb,sched,sfm,markov,bus,cache,mshr,
 *                         cpu) or "all"
 *     --trace-out PATH    trace sink ("-" = stdout; default stderr)
 *     --trace-format F    text|jsonl|chrome         (default text)
 *     --trace-start N     first traced cycle        (default 0)
 *     --trace-end N       first untraced cycle      (default none)
 *     --interval-stats N  emit a stats-delta JSONL record every N
 *                         measured cycles (requires --interval-out)
 *     --interval-out PATH interval time-series sink ("-" = stdout)
 *     --help
 *
 * Every config flag goes through applyConfigKeys() (sim/config.hh),
 * the grammar sweep specs use too, so a malformed or out-of-range
 * value exits 1 with a message naming the flag instead of crashing.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <iostream>

#include "sim/config.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "util/alloc_guard.hh"
#include "util/logging.hh"
#include "util/trace.hh"
#include "workloads/fuzz_workload.hh"
#include "workloads/workload.hh"

namespace
{

using namespace psb;

[[noreturn]] void
usage(int code)
{
    std::fputs(
        "psb-sim: run one predictor-directed stream buffer "
        "simulation\n"
        "  --workload NAME     health|burg|deltablue|gs|sis|turb3d|"
        "graph|hashjoin|logscan|fuzz\n"
        "  --fuzz-spec PATH    fuzz scenario JSON (\"-\" = stdin); "
        "requires --workload fuzz\n"
        "  --config NAME       Base|PCStride|2Miss-RR|2Miss-Priority|"
        "ConfAlloc-RR|ConfAlloc-Priority\n"
        "  --prefetcher NAME   none|pcstride|psb|sequential|nextline|"
        "markov|mindelta\n"
        "  --alloc NAME        2miss|conf|always\n"
        "  --sched NAME        rr|priority\n"
        "  --insts N --warmup N --seed N\n"
        "  --l1d-kb N --l1d-assoc N\n"
        "  --buffers N --entries N --markov-entries N --delta-bits N\n"
        "  --order K --sfm-mode sfm|stride-only|markov-only\n"
        "  --aging N --conf-threshold N --disambig perfect|none|learned\n"
        "  --nodis --tlb-cache --no-fastforward\n"
        "  --assert-no-alloc   fatal heap use in the steady-state "
        "loop (PSB_ALLOC_GUARD builds)\n"
        "  --stats-json PATH --stats\n"
        "  --trace FLAGS       comma list of psb,sched,sfm,markov,bus,"
        "cache,mshr,cpu or all\n"
        "  --trace-out PATH    trace sink (\"-\" = stdout; default "
        "stderr)\n"
        "  --trace-format F    text|jsonl|chrome (chrome opens in "
        "chrome://tracing)\n"
        "  --trace-start N --trace-end N   traced cycle window\n"
        "  --interval-stats N  stats-delta JSONL record every N "
        "measured cycles\n"
        "  --interval-out PATH interval time-series sink (\"-\" = "
        "stdout)\n"
        "  --help\n",
        code == 0 ? stdout : stderr);
    std::exit(code);
}

/**
 * "--KEY VALUE" for every config key (sim/config.hh) except the two
 * booleans, which keep their value-less flags (--tlb-cache,
 * --no-fastforward).
 */
bool
isValueConfigFlag(const std::string &flag)
{
    if (flag.rfind("--", 0) != 0)
        return false;
    std::string key = flag.substr(2);
    return key != "tlb-cache" && key != "fastforward" && isConfigKey(key);
}

uint64_t
parseNum(const char *value, const char *flag)
{
    uint64_t v = 0;
    if (!parseUInt(value, v)) {
        std::fprintf(stderr, "psb-sim: bad value '%s' for %s\n", value,
                     flag);
        std::exit(1);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = "health";
    std::string fuzzSpecPath;
    std::string statsJsonPath;
    std::string traceFlags;
    std::string traceOut;
    std::string traceFormat = "text";
    uint64_t traceStart = 0;
    uint64_t traceEnd = ~uint64_t(0);
    uint64_t intervalCycles = 0;
    std::string intervalOut;
    bool printStats = false;
    uint64_t seed = 1;
    SimConfig cfg;
    cfg.prefetcher = PrefetcherKind::Psb;
    cfg.psb.alloc = AllocPolicy::Confidence;
    cfg.psb.sched = SchedPolicy::Priority;
    cfg.warmupInstructions = 250'000;
    cfg.maxInstructions = 1'000'000;
    // Config flags, in command-line order, for applyConfigKeys().
    std::vector<std::pair<std::string, std::string>> settings;

    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "psb-sim: %s needs a value\n",
                             flag.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (flag == "--help" || flag == "-h") {
            usage(0);
        } else if (flag == "--workload") {
            workload = value();
        } else if (flag == "--fuzz-spec") {
            fuzzSpecPath = value();
        } else if (flag == "--seed") {
            seed = parseNum(value(), "--seed");
        } else if (flag == "--nodis") {
            settings.emplace_back("disambig", "none");
        } else if (flag == "--tlb-cache") {
            settings.emplace_back("tlb-cache", "true");
        } else if (flag == "--no-fastforward") {
            settings.emplace_back("fastforward", "false");
        } else if (isValueConfigFlag(flag)) {
            settings.emplace_back(flag.substr(2), value());
        } else if (flag == "--stats-json") {
            statsJsonPath = value();
        } else if (flag == "--stats") {
            printStats = true;
        } else if (flag == "--trace") {
            traceFlags = value();
        } else if (flag == "--trace-out") {
            traceOut = value();
        } else if (flag == "--trace-format") {
            traceFormat = value();
        } else if (flag == "--trace-start") {
            traceStart = parseNum(value(), "--trace-start");
        } else if (flag == "--trace-end") {
            traceEnd = parseNum(value(), "--trace-end");
        } else if (flag == "--interval-stats") {
            intervalCycles = parseNum(value(), "--interval-stats");
            if (intervalCycles == 0)
                fatal("--interval-stats period must be positive");
        } else if (flag == "--interval-out") {
            intervalOut = value();
        } else if (flag == "--assert-no-alloc") {
            if (!AllocGuard::compiledIn()) {
                fatal("--assert-no-alloc needs a PSB_ALLOC_GUARD "
                      "build (cmake --preset alloc-guard)");
            }
            AllocGuard::arm();
        } else {
            std::fprintf(stderr, "psb-sim: unknown flag '%s'\n",
                         flag.c_str());
            usage(1);
        }
    }

    std::string configError;
    if (!applyConfigKeys(cfg, settings, configError)) {
        std::fprintf(stderr, "psb-sim: %s\n", configError.c_str());
        return 1;
    }

    std::unique_ptr<Workload> trace;
    if (!fuzzSpecPath.empty()) {
        if (workload != "fuzz")
            fatal("--fuzz-spec requires --workload fuzz");
        std::ostringstream text;
        if (fuzzSpecPath == "-") {
            text << std::cin.rdbuf();
        } else {
            std::ifstream in(fuzzSpecPath, std::ios::binary);
            if (!in)
                fatal("cannot read fuzz spec '%s'",
                      fuzzSpecPath.c_str());
            text << in.rdbuf();
        }
        FuzzSpec spec;
        std::string error;
        if (!parseFuzzSpec(text.str(), spec, error))
            fatal("%s: %s", fuzzSpecPath.c_str(), error.c_str());
        trace = std::make_unique<FuzzWorkload>(spec);
    } else {
        trace = psb::makeWorkload(workload, seed);
    }
    if (!trace) {
        std::fprintf(stderr, "psb-sim: unknown workload '%s'\n",
                     workload.c_str());
        return 1;
    }

    if (!traceFlags.empty()) {
        std::string bad;
        auto mask = TraceManager::parseFlags(traceFlags, bad);
        if (!mask) {
            fatal("unknown trace flag '%s' (valid: %s, or 'all')",
                  bad.c_str(), TraceManager::validFlagList().c_str());
        }
        auto format = TraceManager::parseFormat(traceFormat);
        if (!format) {
            fatal("unknown trace format '%s' (valid: text, jsonl, "
                  "chrome)",
                  traceFormat.c_str());
        }
        Cycle window_start{traceStart};
        Cycle window_end = traceEnd == ~uint64_t(0) ? Cycle::max()
                                                    : Cycle{traceEnd};
        if (traceOut.empty()) {
            TraceManager::get().configure(*mask, *format, std::cerr,
                                          window_start, window_end);
        } else if (!TraceManager::get().configureFile(
                       *mask, *format, traceOut, window_start,
                       window_end)) {
            fatal("cannot write trace to '%s'", traceOut.c_str());
        }
    } else if (traceOut != "" || traceFormat != "text" ||
               traceStart != 0 || traceEnd != ~uint64_t(0)) {
        fatal("--trace-out/--trace-format/--trace-start/--trace-end "
              "need --trace FLAGS");
    }

    if (intervalCycles > 0 && intervalOut.empty())
        fatal("--interval-stats needs --interval-out PATH");
    if (intervalCycles == 0 && !intervalOut.empty())
        fatal("--interval-out needs --interval-stats N");

    psb::Simulator sim(cfg, *trace);

    std::ofstream intervalFile;
    if (intervalCycles > 0) {
        if (intervalOut == "-") {
            sim.setIntervalStats(intervalCycles, std::cout);
        } else {
            intervalFile.open(intervalOut,
                              std::ios::binary | std::ios::trunc);
            if (!intervalFile) {
                fatal("cannot write interval stats to '%s'",
                      intervalOut.c_str());
            }
            sim.setIntervalStats(intervalCycles, intervalFile);
        }
    }

    psb::SimResult r = sim.run();
    TraceManager::get().finish();
    if (intervalFile.is_open() && !intervalFile.flush()) {
        fatal("cannot write interval stats to '%s'",
              intervalOut.c_str());
    }
    psb::printReport(workload + " / " + cfg.label(), r);

    if (printStats) {
        std::fputs(psb::formatStatsReport(workload + " stats",
                                          sim.statsRegistry())
                       .c_str(),
                   stdout);
    }

    if (!statsJsonPath.empty()) {
        std::string json = sim.statsJson();
        if (statsJsonPath == "-") {
            std::fputs(json.c_str(), stdout);
        } else {
            std::ofstream out(statsJsonPath,
                              std::ios::binary | std::ios::trunc);
            if (!out || !(out << json).flush()) {
                std::fprintf(stderr,
                             "psb-sim: cannot write stats JSON to "
                             "'%s'\n",
                             statsJsonPath.c_str());
                return 1;
            }
        }
    }
    return 0;
}
