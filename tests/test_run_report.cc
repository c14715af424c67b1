/**
 * @file
 * Run-report renderer (sim/run_report.hh): section selection from the
 * provided documents, parse-error propagation, the determinism
 * contract (byte-identical output for identical inputs), and HTML
 * escaping, and the exact JSON round trip of a simulator's stats that
 * every rendered run report reads. The end-to-end CLI path (psb-sim →
 * psb-report, rendered twice and byte-diffed, and psb-sim's own
 * report) lives in tests/report/check_report.sh.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "sim/run_report.hh"
#include "sim/simulator.hh"
#include "util/stats_json.hh"
#include "workloads/workload.hh"

namespace psb
{
namespace
{

const char kStats[] = R"({
  "core.cycles": 1000,
  "core.instructions": 500,
  "core.ipc": 0.5,
  "l1d.misses": 50,
  "prefetch.attrib.issued": 100,
  "prefetch.attrib.lateness.p50": 7,
  "prefetch.attrib.lateness.p90": 9,
  "prefetch.attrib.lateness.p99": 11,
  "prefetch.attrib.lateness.samples": 20,
  "prefetch.attrib.outcome.evicted_unused": 10,
  "prefetch.attrib.outcome.redundant_demand": 5,
  "prefetch.attrib.outcome.replaced": 0,
  "prefetch.attrib.outcome.squashed": 5,
  "prefetch.attrib.outcome.used_late": 20,
  "prefetch.attrib.outcome.used_timely": 60,
  "prefetch.attrib.source.stride.issued": 100,
  "prefetch.attrib.source.stride.used_timely": 60,
  "prefetch.attrib.source.stride.used_late": 20,
  "prefetch.attrib.source.stride.evicted_unused": 10,
  "prefetch.attrib.source.stride.replaced": 0,
  "prefetch.attrib.source.stride.squashed": 5,
  "prefetch.attrib.source.stride.redundant_demand": 5,
  "prefetch.attrib.use_distance.p50": 12,
  "prefetch.attrib.use_distance.p90": 40,
  "prefetch.attrib.use_distance.p99": 90,
  "prefetch.attrib.use_distance.samples": 80
})";

std::string
render(const RunReportInputs &in, ReportFormat format)
{
    std::string out, error;
    EXPECT_TRUE(renderRunReport(in, format, out, error)) << error;
    return out;
}

TEST(RunReport, MarkdownCarriesSummaryAndAttribution)
{
    RunReportInputs in;
    in.statsJson = kStats;
    std::string md = render(in, ReportFormat::Markdown);

    EXPECT_NE(md.find("# PSB run report"), std::string::npos);
    EXPECT_NE(md.find("## Run summary"), std::string::npos);
    EXPECT_NE(md.find("| core.ipc | 0.5 |"), std::string::npos);
    EXPECT_NE(md.find("## Prefetch attribution"), std::string::npos);
    // accuracy = (60+20)/100, timeliness = 60/80, coverage = 80/130.
    EXPECT_NE(md.find("accuracy 0.8000"), std::string::npos);
    EXPECT_NE(md.find("timeliness 0.7500"), std::string::npos);
    EXPECT_NE(md.find("Coverage 0.6154"), std::string::npos);
    EXPECT_NE(md.find("| used_timely | 60 | 60.00% |"),
              std::string::npos);
    EXPECT_NE(md.find("| stride | 100 |"), std::string::npos);
    // Unexercised sources are dropped from the per-source table.
    EXPECT_EQ(md.find("| markov |"), std::string::npos);
    // Optional sections stay out when their documents are absent.
    EXPECT_EQ(md.find("## Sweep cells"), std::string::npos);
    EXPECT_EQ(md.find("## Golden drift"), std::string::npos);
}

TEST(RunReport, OutputIsByteIdenticalAcrossInvocations)
{
    RunReportInputs in;
    in.title = "determinism probe";
    in.statsJson = kStats;
    in.sweepJson =
        R"({"jobs":{"b":{"status":"ok","attempts":1,"stats":)"
        R"({"core.ipc":0.25,"prefetch.attrib.issued":4,)"
        R"("prefetch.attrib.outcome.used_timely":3}},)"
        R"("a":{"status":"failed","attempts":2,"error":"boom"}}})";
    for (ReportFormat format :
         {ReportFormat::Markdown, ReportFormat::Html}) {
        std::string first = render(in, format);
        std::string second = render(in, format);
        ASSERT_FALSE(first.empty());
        EXPECT_EQ(first, second);
    }
}

TEST(RunReport, SweepCellsAreSortedByKey)
{
    RunReportInputs in;
    in.statsJson = kStats;
    in.sweepJson =
        R"({"jobs":{"z/late":{"status":"ok","attempts":1,"stats":)"
        R"({"core.ipc":0.25}},)"
        R"("a/early":{"status":"failed","attempts":2,"error":"x"}}})";
    std::string md = render(in, ReportFormat::Markdown);
    size_t a = md.find("| a/early | failed |");
    size_t z = md.find("| z/late | ok | 0.25 |");
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(z, std::string::npos);
    EXPECT_LT(a, z) << "cells must render in sorted key order";
}

/** A merged document whose spec declares one table (sim/sweep_spec.hh). */
std::string
tableSweep(const std::string &columns, const std::string &extra = "")
{
    return R"({"spec": {"workloads": ["w1", "w2"],
                "axes": {"config": ["Base", "PCStride"]},
                "tables": [{"title": "Speedups", "average": true,
                            "columns": [)" +
           columns + R"(]}]},
      "jobs": {)" +
           extra + R"(
        "w1/seed=1/config=Base": {"status": "ok", "attempts": 1,
          "stats": {"core.ipc": 0.5, "psb.accuracy": 0.25}},
        "w1/seed=1/config=PCStride": {"status": "ok", "attempts": 1,
          "stats": {"core.ipc": 0.75, "pcstride.accuracy": 0.875}},
        "w2/seed=1/config=Base": {"status": "ok", "attempts": 1,
          "stats": {"core.ipc": 1, "psb.accuracy": 0.5}},
        "w2/seed=1/config=PCStride": {"status": "ok", "attempts": 1,
          "stats": {"core.ipc": 1.1, "pcstride.accuracy": 0.5}}}})";
}

TEST(RunReport, SweepSpecTablesRenderWithoutStatsDocument)
{
    RunReportInputs in;
    in.sweepJson = tableSweep(
        R"({"label": "IPC", "job": "config=PCStride", "stat": "core.ipc"},
           {"label": "acc", "job": "config=PCStride",
            "stat": "pcstride.accuracy,psb.accuracy", "digits": 2},
           {"label": "base acc", "job": "config=Base",
            "stat": "pcstride.accuracy,psb.accuracy", "digits": 2},
           {"label": "speedup", "job": "config=PCStride",
            "stat": "core.ipc", "vs": "config=Base"})");
    std::string md = render(in, ReportFormat::Markdown);
    EXPECT_EQ(md.find("## Run summary"), std::string::npos) << md;
    EXPECT_NE(md.find("## Speedups"), std::string::npos) << md;
    EXPECT_NE(md.find("| workload | IPC | acc | base acc | speedup |"),
              std::string::npos)
        << md;
    EXPECT_NE(md.find("| w1 | 0.75 | 0.88 | 0.25 | +50.0% |"),
              std::string::npos)
        << md;
    EXPECT_NE(md.find("| w2 | 1.1 | 0.50 | 0.50 | +10.0% |"),
              std::string::npos)
        << md;
    EXPECT_NE(md.find("| average | 0.925000 | 0.69 | 0.38 | +30.0% |"),
              std::string::npos)
        << md;
}

TEST(RunReport, SweepSpecTablesRefuseHoles)
{
    RunReportInputs in;
    std::string out, error;
    in.sweepJson = tableSweep(
        R"({"label": "x", "job": "config=Base", "stat": "core.nope"})");
    EXPECT_FALSE(renderRunReport(in, ReportFormat::Markdown, out, error));
    EXPECT_NE(error.find("core.nope"), std::string::npos) << error;

    // A failed job cannot fill a cell either.
    std::string failed = tableSweep(
        R"({"label": "x", "job": "config=Base", "stat": "core.ipc"})");
    failed.replace(failed.find("\"status\": \"ok\""), 14,
                   "\"status\": \"failed\"");
    in.sweepJson = failed;
    EXPECT_FALSE(renderRunReport(in, ReportFormat::Markdown, out, error));
    EXPECT_NE(error.find("did not succeed"), std::string::npos) << error;
}

TEST(RunReport, GoldenDriftCountsAddsRemovesChanges)
{
    RunReportInputs in;
    in.statsJson = R"({"a":1,"b":2,"c":3})";
    in.goldenJson = R"({"b":2,"c":4,"d":5})";
    std::string md = render(in, ReportFormat::Markdown);
    EXPECT_NE(md.find("1 stats added, 1 removed, 1 changed"),
              std::string::npos);
    EXPECT_NE(md.find("| a | - | 1 |"), std::string::npos);
    EXPECT_NE(md.find("| c | 4 | 3 |"), std::string::npos);
    EXPECT_NE(md.find("| d | 5 | - |"), std::string::npos);
}

TEST(RunReport, HtmlEscapesUserStrings)
{
    RunReportInputs in;
    in.title = "a <b> & \"c\"";
    in.statsJson = kStats;
    std::string html = render(in, ReportFormat::Html);
    EXPECT_NE(html.find("<h1>a &lt;b&gt; &amp; \"c\"</h1>"),
              std::string::npos);
    EXPECT_NE(html.find("<table>"), std::string::npos);
    EXPECT_EQ(html.find("<b>"), std::string::npos);
}

TEST(RunReport, BadProvidedDocumentFailsWithContext)
{
    RunReportInputs in;
    in.statsJson = "not json";
    std::string out, error;
    EXPECT_FALSE(renderRunReport(in, ReportFormat::Markdown, out,
                                 error));
    EXPECT_NE(error.find("stats document"), std::string::npos);

    in.statsJson = kStats;
    in.sweepJson = "{\"nojobs\":1}";
    EXPECT_FALSE(renderRunReport(in, ReportFormat::Markdown, out,
                                 error));
    EXPECT_NE(error.find("sweep document"), std::string::npos);
}

TEST(RunReport, IntervalSectionReVerifiesTelescoping)
{
    RunReportInputs in;
    in.statsJson = R"({"core.cycles": 30, "x.hits": 10})";
    in.intervalsJsonl =
        "{\"interval\":0,\"start\":0,\"end\":10,\"delta\":"
        "{\"core.cycles\":10,\"x.hits\":4},\"values\":{}}\n"
        "{\"interval\":1,\"start\":10,\"end\":30,\"delta\":"
        "{\"core.cycles\":20,\"x.hits\":6},\"values\":{}}\n";
    std::string md = render(in, ReportFormat::Markdown);
    EXPECT_NE(md.find("2 interval records covering cycles 0..30"),
              std::string::npos);
    EXPECT_NE(md.find("Telescoping check: OK"), std::string::npos);

    // A broken series is reported, not silently accepted.
    in.intervalsJsonl =
        "{\"interval\":0,\"start\":0,\"end\":30,\"delta\":"
        "{\"x.hits\":7},\"values\":{}}\n";
    md = render(in, ReportFormat::Markdown);
    EXPECT_NE(md.find("Telescoping check: FAILED for 1 stat paths"),
              std::string::npos);

    // So is a series whose deltas telescope but whose records are
    // misnumbered or leave a gap.
    in.intervalsJsonl =
        "{\"interval\":0,\"start\":0,\"end\":10,\"delta\":"
        "{\"core.cycles\":10,\"x.hits\":4},\"values\":{}}\n"
        "{\"interval\":2,\"start\":10,\"end\":30,\"delta\":"
        "{\"core.cycles\":20,\"x.hits\":6},\"values\":{}}\n";
    md = render(in, ReportFormat::Markdown);
    EXPECT_NE(md.find("Telescoping check: FAILED: interval record 1 is "
                      "not numbered 1."),
              std::string::npos);
    in.intervalsJsonl =
        "{\"interval\":0,\"start\":0,\"end\":10,\"delta\":"
        "{\"core.cycles\":10,\"x.hits\":4},\"values\":{}}\n"
        "{\"interval\":1,\"start\":12,\"end\":30,\"delta\":"
        "{\"core.cycles\":20,\"x.hits\":6},\"values\":{}}\n";
    md = render(in, ReportFormat::Markdown);
    EXPECT_NE(md.find("Telescoping check: FAILED: interval record 1 "
                      "starts at cycle 12, not at the previous end 10."),
              std::string::npos);
}

TEST(FormatStatsReport, JsonRoundTripMatchesSnapshotExactly)
{
    // A run report renders the parsed statsJson(), so the parse must
    // give back exactly what the registry holds.
    auto trace = makeWorkload("health", 1);
    SimConfig cfg = makePaperConfig(PaperConfig::ConfAllocPriority);
    cfg.warmupInstructions = 5000;
    cfg.maxInstructions = 20000;
    Simulator sim(cfg, *trace);
    sim.run();
    auto snapshot = sim.statsRegistry().snapshot();
    std::map<std::string, ParsedStat> parsed;
    std::string error;
    ASSERT_TRUE(parseStatsJson(sim.statsJson(), parsed, error)) << error;

    ASSERT_EQ(parsed.size(), snapshot.size());
    for (const auto &[path, value] : snapshot) {
        ASSERT_TRUE(parsed.count(path)) << path;
        // %.17g round-trips doubles exactly; integers are exact by
        // construction — so equality is exact, not approximate.
        EXPECT_EQ(parsed.at(path).value, value.asReal()) << path;
    }
}

} // namespace
} // namespace psb
