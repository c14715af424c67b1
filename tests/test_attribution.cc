/**
 * @file
 * Prefetch lifecycle attribution (prefetch/attribution.hh): unit
 * semantics of the lineage tracker, the hard conservation invariant
 * (issued == sum of terminal outcomes) re-checked over seeded
 * workloads for EVERY prefetcher backend, and the determinism
 * contract — the prefetch.attrib.* subtree is byte-identical across
 * identical runs and across SweepEngine job counts.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "prefetch/attribution.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "util/stats_json.hh"
#include "workloads/workload.hh"

namespace psb
{
namespace
{

// ------------------------------------------------------------------ //
// Unit semantics
// ------------------------------------------------------------------ //

PrefetchOrigin
origin(PredictionSource src)
{
    PrefetchOrigin o;
    o.source = src;
    o.slot = 0;
    return o;
}

TEST(AttributionUnit, LineageIdsAreMonotonicFromOne)
{
    PrefetchAttribution a;
    EXPECT_EQ(a.issue(origin(PredictionSource::Stride), BlockAddr{1},
                      Cycle(10), Cycle(20), false),
              1u);
    EXPECT_EQ(a.issue(origin(PredictionSource::Markov), BlockAddr{2},
                      Cycle(11), Cycle(21), false),
              2u);
    EXPECT_EQ(a.issued(), 2u);
    EXPECT_EQ(a.liveCount(), 2u);
}

TEST(AttributionUnit, UseClassifiesTimelyVersusLate)
{
    PrefetchAttribution a;
    uint64_t timely = a.issue(origin(PredictionSource::Stride),
                              BlockAddr{1}, Cycle(0), Cycle(50), false);
    uint64_t late = a.issue(origin(PredictionSource::Stride),
                            BlockAddr{2}, Cycle(0), Cycle(200), false);

    a.use(timely, Cycle(100), Cycle(50)); // data arrived at 50
    a.use(late, Cycle(100), Cycle(200));  // 100 cycles short

    EXPECT_EQ(a.outcome(PrefetchOutcomeKind::UsedTimely), 1u);
    EXPECT_EQ(a.outcome(PrefetchOutcomeKind::UsedLate), 1u);
    EXPECT_EQ(a.useDistance().total(), 2u);
    EXPECT_EQ(a.lateness().total(), 1u);
    EXPECT_EQ(a.lateness().percentile(0.5), 100u);
    EXPECT_EQ(a.liveCount(), 0u);
}

TEST(AttributionUnit, RedundantIssueReclassifiesNonUseTerminals)
{
    PrefetchAttribution a;
    uint64_t id = a.issue(origin(PredictionSource::NextLine),
                          BlockAddr{1}, Cycle(0), Cycle(10),
                          /*redundant_with_demand=*/true);
    a.terminal(id, PrefetchOutcomeKind::EvictedUnused);
    EXPECT_EQ(a.outcome(PrefetchOutcomeKind::EvictedUnused), 0u);
    EXPECT_EQ(a.outcome(PrefetchOutcomeKind::RedundantDemand), 1u);

    // ...but an actual use keeps its used_* classification: the block
    // may have been re-fetched into the buffer legitimately.
    uint64_t id2 = a.issue(origin(PredictionSource::NextLine),
                           BlockAddr{2}, Cycle(0), Cycle(10), true);
    a.use(id2, Cycle(20), Cycle(10));
    EXPECT_EQ(a.outcome(PrefetchOutcomeKind::UsedTimely), 1u);
}

TEST(AttributionUnit, UnknownAndZeroLineagesDoNotBreakConservation)
{
    PrefetchAttribution a;
    a.terminal(0, PrefetchOutcomeKind::Replaced); // "no lineage"
    a.use(0, Cycle(5), Cycle(5));
    EXPECT_EQ(a.staleTerminals(), 0u);

    a.terminal(12345, PrefetchOutcomeKind::Replaced); // never issued
    a.use(54321, Cycle(5), Cycle(5));
    EXPECT_EQ(a.staleTerminals(), 2u);
    EXPECT_EQ(a.outcomeTotal(), 0u);
    a.finalize(Cycle(10)); // conservation: 0 issued == 0 settled
}

TEST(AttributionUnit, FinalizeSquashesLiveRecordsAndConserves)
{
    PrefetchAttribution a;
    a.issue(origin(PredictionSource::Stride), BlockAddr{1}, Cycle(0),
            Cycle(10), false);
    a.issue(origin(PredictionSource::Stride), BlockAddr{2}, Cycle(0),
            Cycle(10), true); // redundant at issue, never used
    a.finalize(Cycle(100));
    EXPECT_EQ(a.outcome(PrefetchOutcomeKind::Squashed), 1u);
    EXPECT_EQ(a.outcome(PrefetchOutcomeKind::RedundantDemand), 1u);
    EXPECT_EQ(a.outcomeTotal(), a.issued());
    EXPECT_EQ(a.liveCount(), 0u);
}

TEST(AttributionUnit, ResetKeepsLineageCounterMonotonic)
{
    PrefetchAttribution a;
    uint64_t warm = a.issue(origin(PredictionSource::Stride),
                            BlockAddr{1}, Cycle(0), Cycle(10), false);
    a.resetStats();
    EXPECT_EQ(a.issued(), 0u);
    EXPECT_EQ(a.liveCount(), 0u);

    // Post-reset ids continue — a pre-reset id must never alias a
    // measured-region prefetch.
    uint64_t fresh = a.issue(origin(PredictionSource::Stride),
                             BlockAddr{2}, Cycle(20), Cycle(30), false);
    EXPECT_GT(fresh, warm);

    // A terminal for the warm-up-era id is a stale terminal, not an
    // outcome: the measured conservation sum stays exact.
    a.use(warm, Cycle(25), Cycle(10));
    EXPECT_EQ(a.staleTerminals(), 1u);
    EXPECT_EQ(a.outcomeTotal(), 0u);
    a.use(fresh, Cycle(40), Cycle(30));
    a.finalize(Cycle(50));
    EXPECT_EQ(a.outcomeTotal(), a.issued());
}

TEST(AttributionUnit, RegisterStatsExportsTheSubtree)
{
    PrefetchAttribution a;
    StatsRegistry reg;
    a.registerStats(reg, "prefetch.attrib");
    std::string json = reg.toJson();
    for (const char *key :
         {"\"prefetch.attrib.issued\"",
          "\"prefetch.attrib.live\"",
          "\"prefetch.attrib.stale_terminals\"",
          "\"prefetch.attrib.outcome.used_timely\"",
          "\"prefetch.attrib.outcome.redundant_demand\"",
          "\"prefetch.attrib.source.stride.issued\"",
          "\"prefetch.attrib.use_distance.p99\"",
          "\"prefetch.attrib.lateness.samples\"",
          "\"prefetch.attrib.accuracy\"",
          "\"prefetch.attrib.timeliness\""}) {
        EXPECT_NE(json.find(key), std::string::npos)
            << key << " missing from the registered subtree";
    }
}

TEST(AttributionUnit, DoubleUseIsStaleNotDoubleCounted)
{
    // A second terminal for an already-settled lineage must not
    // inflate an outcome bucket — that would break the conservation
    // sum finalize() fatally asserts.
    PrefetchAttribution a;
    uint64_t id = a.issue(origin(PredictionSource::Stride),
                          BlockAddr{1}, Cycle(0), Cycle(10), false);
    a.use(id, Cycle(20), Cycle(10));
    a.use(id, Cycle(21), Cycle(10));
    a.terminal(id, PrefetchOutcomeKind::Replaced);
    EXPECT_EQ(a.outcomeTotal(), 1u);
    EXPECT_EQ(a.staleTerminals(), 2u);
    a.finalize(Cycle(30)); // would abort if the books were cooked
}

// ------------------------------------------------------------------ //
// Conservation across every backend, end to end
// ------------------------------------------------------------------ //

const PrefetcherKind kAllKinds[] = {
    PrefetcherKind::None,       PrefetcherKind::PcStride,
    PrefetcherKind::Psb,        PrefetcherKind::Sequential,
    PrefetcherKind::NextLine,   PrefetcherKind::MarkovDemand,
    PrefetcherKind::MinDelta,
};

SimConfig
smallConfig(PrefetcherKind kind)
{
    SimConfig cfg = makePaperConfig(PaperConfig::ConfAllocPriority);
    cfg.prefetcher = kind;
    cfg.warmupInstructions = 2000;
    cfg.maxInstructions = 12000;
    return cfg;
}

std::string
runOnce(PrefetcherKind kind, const std::string &workload, uint64_t seed)
{
    auto trace = makeWorkload(workload, seed);
    Simulator sim(smallConfig(kind), *trace);
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

class AttributionBackendTest
    : public ::testing::TestWithParam<PrefetcherKind>
{
};

TEST_P(AttributionBackendTest, IssuedEqualsSumOfTerminalOutcomes)
{
    // finalize() already asserts this fatally inside run(); re-check
    // from the exported document so the invariant is also visible at
    // the observability surface (and exercise two workloads).
    for (const char *workload : {"health", "gs"}) {
        std::string json = runOnce(GetParam(), workload, 1);
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
        EXPECT_EQ(stat(stats, "prefetch.attrib.issued"), settled)
            << prefetcherKindName(GetParam()) << "/" << workload;
        EXPECT_EQ(stat(stats, "prefetch.attrib.live"), 0.0)
            << prefetcherKindName(GetParam()) << "/" << workload;
    }
}

TEST_P(AttributionBackendTest, SubtreeIsByteIdenticalAcrossRuns)
{
    std::string first = runOnce(GetParam(), "health", 1);
    std::string second = runOnce(GetParam(), "health", 1);
    EXPECT_EQ(first, second)
        << prefetcherKindName(GetParam())
        << ": two identical runs exported different stats JSON";
}

TEST_P(AttributionBackendTest, AccessorReadsTheExportedLedger)
{
    // Simulator::prefetcher().attribution() is the ledger the registry
    // exports under prefetch.attrib, for every backend, and every
    // prefetching backend issues on this cell.
    auto trace = makeWorkload("health", 1);
    Simulator sim(smallConfig(GetParam()), *trace);
    sim.run();
    std::map<std::string, ParsedStat> stats;
    std::string error;
    ASSERT_TRUE(parseStatsJson(sim.statsJson(), stats, error)) << error;

    double exported = stat(stats, "prefetch.attrib.issued");
    EXPECT_EQ(double(sim.prefetcher().attribution().issued()), exported);
    if (GetParam() == PrefetcherKind::None)
        EXPECT_EQ(exported, 0.0);
    else
        EXPECT_GT(exported, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, AttributionBackendTest,
                         ::testing::ValuesIn(kAllKinds),
                         [](const auto &pinfo) {
                             return std::string(
                                 prefetcherKindName(pinfo.param));
                         });

TEST(AttributionBackendTest, PsbIssuesAndSettlesNonTrivially)
{
    // Guard against the conservation test passing vacuously: the PSB
    // backend must actually issue prefetches in the measured region
    // and classify at least one of them as used.
    std::string json = runOnce(PrefetcherKind::Psb, "health", 1);
    std::map<std::string, ParsedStat> stats;
    std::string error;
    ASSERT_TRUE(parseStatsJson(json, stats, error)) << error;
    EXPECT_GT(stat(stats, "prefetch.attrib.issued"), 0.0);
    EXPECT_GT(stat(stats, "prefetch.attrib.outcome.used_timely") +
                  stat(stats, "prefetch.attrib.outcome.used_late"),
              0.0);
    EXPECT_GT(stat(stats, "prefetch.attrib.use_distance.samples"), 0.0);
}

// ------------------------------------------------------------------ //
// Sweep-engine invariance of the merged attribution numbers
// ------------------------------------------------------------------ //

std::string
mergedSweep(unsigned jobs)
{
    std::vector<SweepJob> sweep;
    for (PrefetcherKind kind :
         {PrefetcherKind::Psb, PrefetcherKind::PcStride,
          PrefetcherKind::NextLine, PrefetcherKind::MarkovDemand}) {
        for (const char *workload : {"health", "gs"}) {
            SweepJob job;
            job.key = std::string(prefetcherKindName(kind)) + "/" +
                      workload;
            job.run = [kind, workload](const JobContext &) {
                JobOutcome out;
                out.ok = true;
                out.payload = runOnce(kind, workload, 1);
                return out;
            };
            sweep.push_back(std::move(job));
        }
    }
    SweepOptions opts;
    opts.jobs = jobs;
    SweepEngine engine(opts);
    return SweepEngine::mergeStatsJson(engine.run(sweep));
}

TEST(AttributionSweepTest, MergedDocumentInvariantUnderJobCount)
{
    std::string serial = mergedSweep(1);
    std::string parallel = mergedSweep(8);
    ASSERT_NE(serial.find("prefetch.attrib.issued"), std::string::npos)
        << "merged sweep document carries no attribution stats";
    EXPECT_EQ(serial, parallel)
        << "prefetch.attrib.* differs between --jobs 1 and --jobs 8";
}

} // namespace
} // namespace psb
