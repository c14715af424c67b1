/**
 * @file
 * psb-sweep — run a design-space sweep from a declarative JSON spec
 * on the parallel sweep engine (sim/sweep.hh) and emit one merged
 * stats document keyed by job id.
 *
 * Usage:
 *   psb-sweep SPEC.json [options]
 *     --jobs N        worker threads (overrides the spec's "jobs")
 *     --out PATH      merged stats JSON ("-" = stdout, the default)
 *     --list          print the expanded job keys and exit
 *     --quiet         suppress the per-job progress lines
 *     --help
 *
 * The merged document is byte-identical regardless of --jobs and of
 * job completion order (jobs are keyed and sorted; every value comes
 * from the deterministic %.17g stats writer). It opens with the spec
 * itself ("spec"), so psb-report --sweep can render the spec's
 * "tables" from it. Exit status: 0 when every job succeeded, 1
 * otherwise (the merged document is still written, with per-job
 * "status"/"error" members), 2 for a usage error, a spec that
 * fails to parse or expand (nothing is run), or an --out that cannot
 * be written.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "sim/config.hh"
#include "sim/sweep.hh"
#include "sim/sweep_spec.hh"

namespace
{

using namespace psb;

[[noreturn]] void
usage(int code)
{
    std::fputs(
        "psb-sweep: run a config x workload sweep in parallel\n"
        "  psb-sweep SPEC.json [options]\n"
        "  --jobs N        worker threads (overrides the spec)\n"
        "  --out PATH      merged stats JSON (\"-\" = stdout)\n"
        "  --list          print the expanded job keys and exit\n"
        "  --quiet         no per-job progress lines\n"
        "  --help\n"
        "spec: {\"jobs\": N, \"workloads\": [...], \"seeds\": [...],\n"
        "       \"base\": {key: value, ...}, \"axes\": {key: [v, ...]},\n"
        "       \"tables\": [...]}  (see sim/sweep_spec.hh)\n"
        "config keys mirror the psb-sim flags (sim/config.hh)\n",
        code == 0 ? stdout : stderr);
    std::exit(code);
}

uint64_t
parseNum(const char *value, const char *flag)
{
    uint64_t v = 0;
    if (!parseUInt(value, v)) {
        std::fprintf(stderr, "psb-sweep: bad value '%s' for %s\n",
                     value, flag);
        std::exit(2);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string specPath;
    std::string outPath = "-";
    uint64_t jobsOverride = 0;
    bool quiet = false;
    bool listOnly = false;

    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "psb-sweep: %s needs a value\n",
                             flag.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (flag == "--help" || flag == "-h") {
            usage(0);
        } else if (flag == "--jobs") {
            jobsOverride = parseNum(value(), "--jobs");
            if (jobsOverride == 0) {
                std::fputs("psb-sweep: --jobs must be positive\n",
                           stderr);
                return 2;
            }
        } else if (flag == "--out") {
            outPath = value();
        } else if (flag == "--quiet") {
            quiet = true;
        } else if (flag == "--list") {
            listOnly = true;
        } else if (!flag.empty() && flag[0] == '-') {
            std::fprintf(stderr, "psb-sweep: unknown flag '%s'\n",
                         flag.c_str());
            usage(2);
        } else if (specPath.empty()) {
            specPath = flag;
        } else {
            std::fprintf(stderr, "psb-sweep: extra argument '%s'\n",
                         flag.c_str());
            usage(2);
        }
    }
    if (specPath.empty()) {
        std::fputs("psb-sweep: missing SPEC.json\n", stderr);
        usage(2);
    }

    std::ifstream specFile(specPath, std::ios::binary);
    if (!specFile) {
        std::fprintf(stderr, "psb-sweep: cannot read '%s'\n",
                     specPath.c_str());
        return 2;
    }
    std::ostringstream specText;
    specText << specFile.rdbuf();

    SweepSpec spec;
    std::string error;
    if (!parseSweepSpec(specText.str(), spec, error)) {
        std::fprintf(stderr, "psb-sweep: %s\n", error.c_str());
        return 2;
    }

    std::vector<SweepRun> runs;
    if (!expandSweepSpec(spec, runs, error)) {
        std::fprintf(stderr, "psb-sweep: %s\n", error.c_str());
        return 2;
    }
    if (listOnly) {
        for (const SweepRun &run : runs)
            std::printf("%s\n", run.key.c_str());
        std::fprintf(stderr, "psb-sweep: %zu job(s)\n", runs.size());
        return 0;
    }

    std::vector<SweepJob> jobs;
    jobs.reserve(runs.size());
    for (const SweepRun &run : runs)
        jobs.push_back(makeSimJob(run));

    SweepOptions opts;
    opts.jobs = jobsOverride ? unsigned(jobsOverride) : spec.jobs;
    opts.progress = quiet ? nullptr : &std::cerr;

    if (!quiet) {
        std::fprintf(stderr,
                     "psb-sweep: %zu job(s) on %u worker thread(s)\n",
                     jobs.size(), opts.jobs);
    }

    SweepEngine engine(opts);
    std::vector<JobResult> results = engine.run(jobs);
    std::string merged =
        SweepEngine::mergeStatsJson(results, specText.str());

    if (outPath == "-") {
        std::fputs(merged.c_str(), stdout);
    } else {
        std::ofstream out(outPath, std::ios::binary | std::ios::trunc);
        if (!out || !(out << merged).flush()) {
            std::fprintf(stderr, "psb-sweep: cannot write '%s'\n",
                         outPath.c_str());
            return 2;
        }
    }

    unsigned failed = 0;
    for (const JobResult &r : results)
        failed += r.status != JobStatus::Ok ? 1 : 0;
    if (failed > 0) {
        std::fprintf(stderr, "psb-sweep: %u of %zu job(s) failed\n",
                     failed, results.size());
        return 1;
    }
    if (!quiet) {
        std::fprintf(stderr, "psb-sweep: all %zu job(s) ok\n",
                     results.size());
    }
    return 0;
}
