/**
 * @file
 * Property-style testing of every prefetcher backend over generated
 * fuzz scenarios (DESIGN.md §15). Instead of asserting exact numbers
 * on hand-picked workloads, these tests draw N seeded FuzzSpecs
 * (PSB_FUZZ_SEEDS, default 32) and check invariants that must hold
 * for ANY scenario:
 *
 *   conservation   prefetch.attrib.issued == sum of terminal
 *                  outcomes, and nothing left live after finalize;
 *   determinism    identical runs export byte-identical stats JSON,
 *                  including through the sweep engine at different
 *                  job counts;
 *   demand stream  the committed instruction stream is a property of
 *                  the trace, not the prefetcher: core counters agree
 *                  across all backends;
 *   monotone footprint  a spec declaring a larger footprint touches
 *                  more distinct blocks;
 *   starvation-freedom  the PSB scheduler keeps granting: every
 *                  issued prefetch got a grant, and allocated streams
 *                  imply predictor grants.
 *
 * A failing scenario is dumped as canonical spec JSON to stderr (and
 * to $PSB_FUZZ_ARTIFACT_DIR when set, as the CI fuzz job does), so it
 * can be replayed directly with
 * `psb-sim --workload fuzz --fuzz-spec FILE`.
 *
 * The FuzzSpec grammar itself is property-tested here too: canonical
 * emission round-trips byte-identically and malformed specs are
 * rejected (see kRejectCases).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "util/stats_json.hh"
#include "workloads/fuzz_workload.hh"
#include "workloads/workload.hh"

namespace psb
{
namespace
{

/** Scenario count: PSB_FUZZ_SEEDS env override, default 32. */
uint64_t
fuzzSeedCount()
{
    const char *env = std::getenv("PSB_FUZZ_SEEDS");
    if (!env)
        return 32;
    char *end = nullptr;
    uint64_t n = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0' || n == 0)
        return 32;
    return n;
}

/**
 * Publish a failing scenario: canonical spec JSON to stderr (directly
 * replayable via --fuzz-spec) and, when $PSB_FUZZ_ARTIFACT_DIR is
 * set, to a file the CI fuzz job uploads as an artifact.
 */
void
dumpFailingSpec(const FuzzSpec &spec, const std::string &context)
{
    std::string json = spec.toJson();
    std::fprintf(stderr,
                 "--- failing fuzz spec (%s); replay with "
                 "psb-sim --workload fuzz --fuzz-spec FILE ---\n%s",
                 context.c_str(), json.c_str());
    if (const char *dir = std::getenv("PSB_FUZZ_ARTIFACT_DIR")) {
        std::string path = std::string(dir) + "/fuzz-spec-seed-" +
                           std::to_string(spec.seed) + ".json";
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (out)
            out << json;
    }
}

SimConfig
propConfig(PrefetcherKind kind)
{
    SimConfig cfg = makePaperConfig(PaperConfig::ConfAllocPriority);
    cfg.prefetcher = kind;
    cfg.warmupInstructions = 1500;
    cfg.maxInstructions = 8000;
    return cfg;
}

std::string
runSpec(PrefetcherKind kind, const FuzzSpec &spec,
        bool fast_forward = true)
{
    FuzzWorkload trace(spec);
    SimConfig cfg = propConfig(kind);
    cfg.fastForward = fast_forward;
    Simulator sim(cfg, trace);
    sim.run();
    return sim.statsJson();
}

double
stat(const std::map<std::string, ParsedStat> &stats,
     const std::string &key)
{
    auto it = stats.find(key);
    EXPECT_NE(it, stats.end()) << key << " missing from stats JSON";
    return it == stats.end() ? 0.0 : it->second.value;
}

const PrefetcherKind kAllKinds[] = {
    PrefetcherKind::None,       PrefetcherKind::PcStride,
    PrefetcherKind::Psb,        PrefetcherKind::Sequential,
    PrefetcherKind::NextLine,   PrefetcherKind::MarkovDemand,
    PrefetcherKind::MinDelta,
};

// ------------------------------------------------------------------ //
// Per-backend properties over every drawn scenario
// ------------------------------------------------------------------ //

class FuzzBackendProperty
    : public ::testing::TestWithParam<PrefetcherKind>
{
};

TEST_P(FuzzBackendProperty, AttributionConservesOnEveryScenario)
{
    uint64_t n = fuzzSeedCount();
    for (uint64_t seed = 1; seed <= n; ++seed) {
        SCOPED_TRACE("fuzz seed " + std::to_string(seed));
        FuzzSpec spec = FuzzSpec::fromSeed(seed);
        std::string json = runSpec(GetParam(), spec);
        std::map<std::string, ParsedStat> stats;
        std::string error;
        ASSERT_TRUE(parseStatsJson(json, stats, error)) << error;

        double settled = 0.0;
        for (const char *outcome :
             {"used_timely", "used_late", "evicted_unused", "replaced",
              "squashed", "redundant_demand"}) {
            settled += stat(stats, std::string(
                                       "prefetch.attrib.outcome.") +
                                       outcome);
        }
        EXPECT_EQ(stat(stats, "prefetch.attrib.issued"), settled);
        EXPECT_EQ(stat(stats, "prefetch.attrib.live"), 0.0);
        if (::testing::Test::HasNonfatalFailure()) {
            dumpFailingSpec(spec,
                            std::string("conservation, backend ") +
                                prefetcherKindName(GetParam()));
            break;
        }
    }
}

TEST_P(FuzzBackendProperty, GoldenFreeDeterminism)
{
    // No golden needed: whatever the numbers are, two identical runs
    // must export byte-identical stats JSON. A handful of scenarios
    // per backend keeps the default lane fast.
    uint64_t n = fuzzSeedCount();
    for (uint64_t seed : {uint64_t(1), (n + 1) / 2, n}) {
        SCOPED_TRACE("fuzz seed " + std::to_string(seed));
        FuzzSpec spec = FuzzSpec::fromSeed(seed);
        std::string first = runSpec(GetParam(), spec);
        std::string second = runSpec(GetParam(), spec);
        EXPECT_EQ(first, second);
        if (::testing::Test::HasNonfatalFailure()) {
            dumpFailingSpec(spec,
                            std::string("determinism, backend ") +
                                prefetcherKindName(GetParam()));
            break;
        }
    }
}

TEST_P(FuzzBackendProperty, FastForwardIsInvisible)
{
    // Skipping cycles (idle spans, stalled predictor ports, spans
    // capped at the next free bus cycle) must be exact: the same
    // scenarios as GoldenFreeDeterminism export byte-identical stats
    // with fast-forward on and off.
    uint64_t n = fuzzSeedCount();
    for (uint64_t seed : {uint64_t(1), (n + 1) / 2, n}) {
        SCOPED_TRACE("fuzz seed " + std::to_string(seed));
        FuzzSpec spec = FuzzSpec::fromSeed(seed);
        EXPECT_EQ(runSpec(GetParam(), spec, true),
                  runSpec(GetParam(), spec, false));
        if (::testing::Test::HasNonfatalFailure()) {
            dumpFailingSpec(spec,
                            std::string("fast-forward, backend ") +
                                prefetcherKindName(GetParam()));
            break;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, FuzzBackendProperty,
                         ::testing::ValuesIn(kAllKinds),
                         [](const auto &pinfo) {
                             return std::string(
                                 prefetcherKindName(pinfo.param));
                         });

// ------------------------------------------------------------------ //
// Cross-backend and scheduler properties
// ------------------------------------------------------------------ //

TEST(FuzzCrossBackend, DemandStreamIsEquivalentAcrossPrefetchers)
{
    // The committed instruction stream is decided by the trace, not
    // by what the prefetchers fetched: the core counters must agree
    // across every backend, scenario by scenario. The warm-up/measure
    // boundary snaps to a cycle edge, so timing differences between
    // backends may shift a single commit window of ops across it —
    // allow that much slack and nothing more.
    constexpr double kBoundarySlack = 64;
    uint64_t n = std::min<uint64_t>(fuzzSeedCount(), 6);
    for (uint64_t seed = 1; seed <= n; ++seed) {
        SCOPED_TRACE("fuzz seed " + std::to_string(seed));
        FuzzSpec spec = FuzzSpec::fromSeed(seed);
        std::map<std::string, double> reference;
        for (PrefetcherKind kind : kAllKinds) {
            std::map<std::string, ParsedStat> stats;
            std::string error;
            ASSERT_TRUE(parseStatsJson(runSpec(kind, spec), stats,
                                       error))
                << error;
            for (const char *key :
                 {"core.instructions", "core.loads", "core.stores",
                  "core.branches"}) {
                double value = stat(stats, key);
                auto [it, fresh] = reference.try_emplace(key, value);
                EXPECT_NEAR(it->second, value, kBoundarySlack)
                    << key << " diverged under backend "
                    << prefetcherKindName(kind);
                (void)fresh;
            }
        }
        if (::testing::Test::HasNonfatalFailure()) {
            dumpFailingSpec(spec, "demand-stream equivalence");
            break;
        }
    }
}

TEST(FuzzCrossBackend, PsbSchedulerIsStarvationFree)
{
    // Every issued prefetch was granted by the scheduler, and any
    // allocated stream implies the predictor got lookup grants — a
    // scheduler that wedges on some generated phase mix fails here.
    uint64_t n = fuzzSeedCount();
    for (uint64_t seed = 1; seed <= n; ++seed) {
        SCOPED_TRACE("fuzz seed " + std::to_string(seed));
        FuzzSpec spec = FuzzSpec::fromSeed(seed);
        std::map<std::string, ParsedStat> stats;
        std::string error;
        ASSERT_TRUE(parseStatsJson(runSpec(PrefetcherKind::Psb, spec),
                                   stats, error))
            << error;
        EXPECT_EQ(stat(stats, "psb.sched.prefetch.grants"),
                  stat(stats, "prefetch.attrib.issued"));
        if (stat(stats, "psb.allocations") > 0) {
            EXPECT_GT(stat(stats, "psb.sched.predict.grants"), 0.0);
        }
        if (::testing::Test::HasNonfatalFailure()) {
            dumpFailingSpec(spec, "scheduler starvation-freedom");
            break;
        }
    }
}

TEST(FuzzCrossBackend, DeclaredFootprintIsMonotone)
{
    // Same scenario, bigger declared footprint => more distinct
    // blocks actually touched (the knob is not a dead parameter).
    uint64_t n = std::min<uint64_t>(fuzzSeedCount(), 8);
    for (uint64_t seed = 1; seed <= n; ++seed) {
        SCOPED_TRACE("fuzz seed " + std::to_string(seed));
        FuzzSpec small = FuzzSpec::fromSeed(seed);
        small.footprintKb = 128;
        FuzzSpec large = small;
        large.footprintKb = 1024;

        auto touched = [](const FuzzSpec &spec) {
            FuzzWorkload w(spec);
            std::set<Addr> blocks;
            MicroOp op;
            for (int i = 0; i < 200000; ++i) {
                w.next(op);
                if (op.isLoad())
                    blocks.insert(op.effAddr.alignDown(64));
            }
            return blocks.size();
        };
        EXPECT_GT(touched(large), touched(small));
    }
}

TEST(FuzzSweepProperty, MergedDocumentInvariantUnderJobCount)
{
    // The registry workload "fuzz" through the sweep engine: the
    // merged stats document must not depend on the job count.
    auto merged = [](unsigned jobs) {
        std::vector<SweepJob> sweep;
        for (uint64_t seed = 1; seed <= 4; ++seed) {
            for (PrefetcherKind kind :
                 {PrefetcherKind::Psb, PrefetcherKind::PcStride}) {
                SweepJob job;
                job.key = std::string(prefetcherKindName(kind)) +
                          "/fuzz/" + std::to_string(seed);
                job.run = [kind, seed](const JobContext &) {
                    JobOutcome out;
                    out.ok = true;
                    auto trace = makeWorkload("fuzz", seed);
                    Simulator sim(propConfig(kind), *trace);
                    sim.run();
                    out.payload = sim.statsJson();
                    return out;
                };
                sweep.push_back(std::move(job));
            }
        }
        SweepOptions opts;
        opts.jobs = jobs;
        SweepEngine engine(opts);
        return SweepEngine::mergeStatsJson(engine.run(sweep));
    };
    std::string serial = merged(1);
    ASSERT_NE(serial.find("prefetch.attrib.issued"), std::string::npos);
    EXPECT_EQ(serial, merged(8));
}

TEST(FuzzRegistry, SeedWorkloadMatchesExplicitSpec)
{
    // makeWorkload("fuzz", seed) and FuzzWorkload(fromSeed(seed))
    // must be the same scenario: the sweep/CLI seed path and the
    // --fuzz-spec path cannot drift apart.
    auto viaRegistry = makeWorkload("fuzz", 11);
    ASSERT_NE(viaRegistry, nullptr);
    FuzzWorkload viaSpec(FuzzSpec::fromSeed(11));
    MicroOp a, b;
    for (int i = 0; i < 20000; ++i) {
        ASSERT_TRUE(viaRegistry->next(a));
        ASSERT_TRUE(viaSpec.next(b));
        ASSERT_EQ(a.pc, b.pc);
        ASSERT_EQ(a.effAddr, b.effAddr);
    }
}

// ------------------------------------------------------------------ //
// FuzzSpec grammar properties
// ------------------------------------------------------------------ //

TEST(FuzzSpecGrammar, EmitParseEmitIsByteIdentity)
{
    uint64_t n = fuzzSeedCount();
    for (uint64_t seed = 1; seed <= n; ++seed) {
        SCOPED_TRACE("fuzz seed " + std::to_string(seed));
        FuzzSpec spec = FuzzSpec::fromSeed(seed);
        std::string json = spec.toJson();
        FuzzSpec reparsed;
        std::string error;
        ASSERT_TRUE(parseFuzzSpec(json, reparsed, error)) << error;
        EXPECT_EQ(reparsed, spec);
        EXPECT_EQ(reparsed.toJson(), json);
    }
}

TEST(FuzzSpecGrammar, MissingKeysFallBackToDefaults)
{
    FuzzSpec spec;
    std::string error;
    ASSERT_TRUE(parseFuzzSpec("{}", spec, error)) << error;
    EXPECT_EQ(spec, FuzzSpec{});
}

TEST(FuzzSpecGrammar, PhaseListsOnlyTheGeneratorsItWants)
{
    FuzzSpec spec;
    std::string error;
    ASSERT_TRUE(parseFuzzSpec(R"({"phases": [{"stride": 3}]})", spec,
                              error))
        << error;
    ASSERT_EQ(spec.phases.size(), 1u);
    EXPECT_EQ(spec.phases[0], (FuzzPhase{3, 0, 0, 0}));
}

struct RejectCase
{
    const char *label;
    const char *text;
};

// Without a printer gtest dumps the row's raw bytes, which are
// per-process pointers, into the discovered ctest names.
void
PrintTo(const RejectCase &c, std::ostream *os)
{
    *os << c.label;
}

const RejectCase kRejectCases[] = {
    {"UnknownTopLevelKey", R"({"seed": 1, "bogus": 2})"},
    {"UnknownPhaseKey", R"({"phases": [{"stride": 1, "pace": 2}]})"},
    {"NegativeWeight", R"({"phases": [{"stride": -1}]})"},
    {"FractionalWeight", R"({"phases": [{"stride": 1.5}]})"},
    {"OversizedWeight", R"({"phases": [{"stride": 65537}]})"},
    {"AllZeroPhase", R"({"phases": [{"stride": 0, "chase": 0}]})"},
    {"EmptyPhaseList", R"({"phases": []})"},
    {"PhaseNotAnObject", R"({"phases": [7]})"},
    {"FootprintTooSmall", R"({"footprint-kb": 32})"},
    {"FootprintTooLarge", R"({"footprint-kb": 131072})"},
    {"ZeroPhaseLen", R"({"phase-len": 0})"},
    {"NegativeSeed", R"({"seed": -4})"},
    {"TopLevelNotObject", R"([1, 2])"},
    {"MalformedJson", R"({"seed": )"},
};

class FuzzSpecRejectTest
    : public ::testing::TestWithParam<RejectCase>
{
};

TEST_P(FuzzSpecRejectTest, IsRejectedWithDiagnostic)
{
    FuzzSpec spec;
    std::string error;
    EXPECT_FALSE(parseFuzzSpec(GetParam().text, spec, error))
        << GetParam().text;
    EXPECT_NE(error.find("fuzz spec"), std::string::npos) << error;
}

INSTANTIATE_TEST_SUITE_P(Grammar, FuzzSpecRejectTest,
                         ::testing::ValuesIn(kRejectCases),
                         [](const auto &pinfo) {
                             return std::string(pinfo.param.label);
                         });

} // namespace
} // namespace psb
