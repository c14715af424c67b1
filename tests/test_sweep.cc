/**
 * @file
 * Tests for the parallel sweep engine stack: the strict JSON reader
 * (util/json.hh), the strict config-key grammar (sim/config.hh), the
 * declarative sweep spec (sim/sweep_spec.hh), and the engine itself
 * (sim/sweep.hh) — including the properties the merged document
 * depends on: key-sorted results, thread-count invariance, one run
 * per job, and poisoned-job isolation.
 *
 * Every fault in here is injected deterministically (never by clocks
 * or races), so the suite is stable under TSan and at any worker
 * count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>

#include "sim/config.hh"
#include "sim/run_report.hh"
#include "sim/sweep.hh"
#include "sim/sweep_spec.hh"
#include "util/json.hh"

namespace psb
{
namespace
{

// ------------------------------------------------------------------ //
// util/json.hh
// ------------------------------------------------------------------ //

TEST(SweepJsonTest, ParsesScalarsArraysObjects)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(
        R"({"a": 1, "b": [true, "x", null], "c": {"d": 2.5}})", v, err))
        << err;
    ASSERT_TRUE(v.isObject());
    ASSERT_EQ(v.object.size(), 3u);
    const JsonValue *a = v.find("a");
    ASSERT_NE(a, nullptr);
    uint64_t n = 0;
    EXPECT_TRUE(a->asUInt(n));
    EXPECT_EQ(n, 1u);
    const JsonValue *b = v.find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(b->isArray());
    ASSERT_EQ(b->array.size(), 3u);
    EXPECT_TRUE(b->array[0].isBool());
    EXPECT_TRUE(b->array[1].isString());
    EXPECT_TRUE(b->array[2].isNull());
    const JsonValue *d = v.find("c")->find("d");
    ASSERT_NE(d, nullptr);
    EXPECT_DOUBLE_EQ(d->number, 2.5);
}

TEST(SweepJsonTest, KeepsObjectInsertionOrder)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(R"({"z": 1, "a": 2, "m": 3})", v, err));
    ASSERT_EQ(v.object.size(), 3u);
    EXPECT_EQ(v.object[0].first, "z");
    EXPECT_EQ(v.object[1].first, "a");
    EXPECT_EQ(v.object[2].first, "m");
}

TEST(SweepJsonTest, RejectsDuplicateKeys)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson(R"({"buffers": 4, "buffers": 8})", v, err));
    EXPECT_NE(err.find("duplicate key"), std::string::npos) << err;
    EXPECT_NE(err.find("buffers"), std::string::npos) << err;
}

TEST(SweepJsonTest, RejectsTrailingGarbageAndSyntaxErrors)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson("{} x", v, err));
    EXPECT_FALSE(parseJson("{", v, err));
    EXPECT_FALSE(parseJson("[1,]", v, err));
    EXPECT_FALSE(parseJson("", v, err));
    EXPECT_FALSE(parseJson("{\"a\" 1}", v, err));
    EXPECT_FALSE(parseJson("\"a\x01" "b\"", v, err));
    EXPECT_NE(err.find("raw control character in string at offset 2"),
              std::string::npos)
        << err;
}

TEST(SweepJsonTest, DecodesUnicodeEscapes)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(R"("a\u0001b\u00e9\u20AC")", v, err)) << err;
    EXPECT_EQ(v.str, "a\x01" "b\xc3\xa9\xe2\x82\xac");
    EXPECT_FALSE(parseJson(R"("\u12")", v, err));
    EXPECT_FALSE(parseJson(R"("\u12g4")", v, err));
    EXPECT_FALSE(parseJson(R"("\ud83d\ude00")", v, err));
}

TEST(SweepJsonTest, EscapedStringsReadBackExactly)
{
    std::string raw = "q\"b\\n\nt\tr\r";
    for (int c = 1; c < 0x20; ++c)
        raw.push_back(char(c));
    raw += "\x7f\xc3\xa9";
    EXPECT_EQ(escapeJson("it \"broke\"\x01"), "it \\\"broke\\\"\\u0001");
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson("\"" + escapeJson(raw) + "\"", v, err)) << err;
    EXPECT_EQ(v.str, raw);
}

TEST(SweepJsonTest, NumbersKeepSourceSpelling)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(R"({"insts": 1000000})", v, err));
    std::string token;
    ASSERT_TRUE(v.find("insts")->asConfigToken(token));
    EXPECT_EQ(token, "1000000");
}

TEST(SweepJsonTest, AsUIntRejectsNegativeAndFractional)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(R"([-1, 2.5, 7, "8"])", v, err));
    uint64_t n = 0;
    EXPECT_FALSE(v.array[0].asUInt(n));
    EXPECT_FALSE(v.array[1].asUInt(n));
    EXPECT_TRUE(v.array[2].asUInt(n));
    EXPECT_EQ(n, 7u);
    EXPECT_FALSE(v.array[3].asUInt(n)); // strings are not numbers
}

// ------------------------------------------------------------------ //
// sim/config.hh strict key grammar
// ------------------------------------------------------------------ //

TEST(SweepConfigKeyTest, AcceptsTheDocumentedGrammar)
{
    SimConfig cfg;
    std::string err;
    EXPECT_TRUE(applyConfigKey(cfg, "prefetcher", "psb", err)) << err;
    EXPECT_EQ(cfg.prefetcher, PrefetcherKind::Psb);
    EXPECT_TRUE(applyConfigKey(cfg, "alloc", "conf", err)) << err;
    EXPECT_TRUE(applyConfigKey(cfg, "sched", "priority", err)) << err;
    EXPECT_TRUE(applyConfigKey(cfg, "insts", "60000", err)) << err;
    EXPECT_EQ(cfg.maxInstructions, 60000u);
    EXPECT_TRUE(applyConfigKey(cfg, "warmup", "1000", err)) << err;
    EXPECT_EQ(cfg.warmupInstructions, 1000u);
    EXPECT_TRUE(applyConfigKey(cfg, "l1d-kb", "32", err)) << err;
    EXPECT_EQ(cfg.memory.l1d.sizeBytes, 32u * 1024u);
    EXPECT_TRUE(applyConfigKey(cfg, "l1d-assoc", "2", err)) << err;
    EXPECT_TRUE(applyConfigKey(cfg, "buffers", "8", err)) << err;
    EXPECT_TRUE(applyConfigKey(cfg, "entries", "4", err)) << err;
    EXPECT_TRUE(applyConfigKey(cfg, "tlb-cache", "false", err)) << err;
    EXPECT_TRUE(applyConfigKey(cfg, "disambig", "learned", err)) << err;
    EXPECT_EQ(cfg.core.disambiguation, DisambiguationMode::Learned);
    EXPECT_TRUE(applyConfigKey(cfg, "sfm-mode", "markov-only", err))
        << err;
    EXPECT_EQ(cfg.sfm.mode, SfmMode::MarkovOnly);
    EXPECT_TRUE(applyConfigKey(cfg, "aging", "20", err)) << err;
    EXPECT_EQ(cfg.psb.buffers.agingPeriod, 20u);
    EXPECT_TRUE(applyConfigKey(cfg, "conf-threshold", "3", err)) << err;
    EXPECT_EQ(cfg.psb.buffers.allocConfThreshold, 3u);
    EXPECT_TRUE(applyConfigKey(cfg, "config", "2Miss-RR", err)) << err;
    EXPECT_EQ(cfg.psb.alloc, AllocPolicy::TwoMiss);
    EXPECT_EQ(cfg.psb.sched, SchedPolicy::RoundRobin);
}

TEST(SweepConfigKeyTest, ConfigKeyIsExactlyMakePaperConfig)
{
    for (PaperConfig pc : paperConfigs) {
        SimConfig cfg;
        std::string err;
        ASSERT_TRUE(applyConfigKeys(cfg, {{"config", paperConfigName(pc)}},
                                    err))
            << err;
        EXPECT_TRUE(cfg == makePaperConfig(pc)) << paperConfigName(pc);
    }
}

TEST(SweepConfigKeyTest, RejectsUnknownKeys)
{
    SimConfig cfg;
    std::string err;
    EXPECT_FALSE(applyConfigKey(cfg, "bufers", "8", err));
    EXPECT_NE(err.find("unknown config key"), std::string::npos) << err;
    EXPECT_NE(err.find("bufers"), std::string::npos) << err;
}

TEST(SweepConfigKeyTest, RejectsBadValues)
{
    SimConfig cfg;
    std::string err;
    EXPECT_FALSE(applyConfigKey(cfg, "prefetcher", "warp", err));
    EXPECT_FALSE(applyConfigKey(cfg, "insts", "12banana", err));
    EXPECT_FALSE(applyConfigKey(cfg, "insts", "-5", err));
    EXPECT_FALSE(
        applyConfigKey(cfg, "insts", "18446744073709551616", err));
    EXPECT_TRUE(
        applyConfigKey(cfg, "insts", "18446744073709551615", err));
    EXPECT_FALSE(applyConfigKey(cfg, "tlb-cache", "yes", err));
    EXPECT_FALSE(applyConfigKey(cfg, "buffers", "", err));
    EXPECT_FALSE(applyConfigKey(cfg, "buffers", "4294967297", err));
    EXPECT_FALSE(applyConfigKey(cfg, "config", "Turbo", err));
    EXPECT_FALSE(applyConfigKey(cfg, "disambig", "true", err));
    EXPECT_FALSE(applyConfigKey(cfg, "sfm-mode", "both", err));
}

TEST(SweepConfigKeyTest, ValidateRejectsOutOfRangeValues)
{
    // Unvalidated, each of these reaches a constructor assertion or a
    // SIGFPE inside the Simulator.
    const std::pair<const char *, const char *> cases[] = {
        {"l1d-assoc", "0"},      {"buffers", "0"},    {"buffers", "65"},
        {"entries", "0"},        {"entries", "65"},   {"l1d-kb", "0"},
        {"l1d-kb", "3"},
        {"markov-entries", "0"}, {"markov-entries", "3"},
        {"delta-bits", "0"},     {"delta-bits", "70"}, {"order", "9"},
        {"aging", "0"},
    };
    for (const auto &[key, value] : cases) {
        SimConfig cfg;
        std::string err;
        EXPECT_FALSE(applyConfigKeys(cfg, {{key, value}}, err))
            << key << "=" << value;
        EXPECT_NE(err.find(key), std::string::npos) << err;
    }
    SimConfig ok;
    std::string err;
    EXPECT_TRUE(ok.validate(err)) << err;
    for (PaperConfig pc : paperConfigs)
        EXPECT_TRUE(makePaperConfig(pc).validate(err)) << err;
}

TEST(SweepConfigKeyTest, BufferCountFitsTheCandidateMasks)
{
    // The stream-buffer file keeps one mask bit per buffer.
    SimConfig cfg;
    std::string err;
    EXPECT_TRUE(applyConfigKeys(cfg, {{"buffers", "64"}}, err)) << err;
    EXPECT_FALSE(applyConfigKeys(cfg, {{"buffers", "65"}}, err));
    EXPECT_NE(err.find("buffers must be 1..64"), std::string::npos)
        << err;
}

TEST(SweepConfigKeyTest, KeyListIsSortedAndComplete)
{
    const std::vector<std::string> &keys = simConfigKeys();
    ASSERT_FALSE(keys.empty());
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    // Every advertised key must be accepted by the applier (with some
    // value), i.e. the list and the grammar cannot drift apart.
    for (const std::string &key : keys) {
        SimConfig cfg;
        std::string err;
        bool ok = applyConfigKey(cfg, key, "1", err) ||
                  applyConfigKey(cfg, key, "true", err) ||
                  applyConfigKey(cfg, key, "psb", err) ||
                  applyConfigKey(cfg, key, "conf", err) ||
                  applyConfigKey(cfg, key, "rr", err) ||
                  applyConfigKey(cfg, key, "Base", err) ||
                  applyConfigKey(cfg, key, "sfm", err) ||
                  applyConfigKey(cfg, key, "none", err);
        EXPECT_TRUE(ok) << "advertised key not applicable: " << key;
    }
}

// ------------------------------------------------------------------ //
// sim/sweep_spec.hh
// ------------------------------------------------------------------ //

constexpr const char *kSpec = R"({
  "jobs": 3,
  "workloads": ["health", "burg"],
  "seeds": [1, 2],
  "base": {"insts": 3000, "warmup": 500},
  "axes": {"buffers": [4, 8], "l1d-kb": [16, 32]}
})";

TEST(SweepSpecTest, ParsesAndExpandsTheGrid)
{
    SweepSpec spec;
    std::string err;
    ASSERT_TRUE(parseSweepSpec(kSpec, spec, err)) << err;
    EXPECT_EQ(spec.jobs, 3u);
    ASSERT_EQ(spec.workloads.size(), 2u);
    ASSERT_EQ(spec.seeds.size(), 2u);
    ASSERT_EQ(spec.base.size(), 2u);
    ASSERT_EQ(spec.axes.size(), 2u);

    std::vector<SweepRun> runs;
    ASSERT_TRUE(expandSweepSpec(spec, runs, err)) << err;
    // 2 workloads x 2 seeds x 2 buffers x 2 l1d-kb
    ASSERT_EQ(runs.size(), 16u);
    EXPECT_EQ(runs[0].key, "health/seed=1/buffers=4,l1d-kb=16");
    EXPECT_EQ(runs[1].key, "health/seed=1/buffers=4,l1d-kb=32");
    EXPECT_EQ(runs[2].key, "health/seed=1/buffers=8,l1d-kb=16");
    EXPECT_EQ(runs.back().key, "burg/seed=2/buffers=8,l1d-kb=32");
    // base + axis both applied to the expanded config
    EXPECT_EQ(runs[0].cfg.maxInstructions, 3000u);
    EXPECT_EQ(runs[0].cfg.memory.l1d.sizeBytes, 16u * 1024u);
}

TEST(SweepSpecTest, RejectsUnknownSections)
{
    SweepSpec spec;
    std::string err;
    EXPECT_FALSE(parseSweepSpec(
        R"({"workloads": ["health"], "axis": {}})", spec, err));
    EXPECT_NE(err.find("axis"), std::string::npos) << err;
}

TEST(SweepSpecTest, RejectsUnknownConfigKeys)
{
    SweepSpec spec;
    std::string err;
    EXPECT_FALSE(parseSweepSpec(
        R"({"workloads": ["health"], "base": {"bufers": 4}})", spec,
        err));
    EXPECT_NE(err.find("bufers"), std::string::npos) << err;
}

TEST(SweepSpecTest, RejectsBaseAxesCollision)
{
    SweepSpec spec;
    std::string err;
    EXPECT_FALSE(parseSweepSpec(
        R"({"workloads": ["health"], "base": {"buffers": 4},
            "axes": {"buffers": [4, 8]}})",
        spec, err));
    EXPECT_NE(err.find("buffers"), std::string::npos) << err;
}

TEST(SweepSpecTest, NewKeysRoundTripThroughExpansion)
{
    SweepSpec spec;
    std::string err;
    ASSERT_TRUE(parseSweepSpec(
        R"({"workloads": ["health"],
            "base": {"config": "ConfAlloc-RR", "aging": 5},
            "axes": {"sfm-mode": ["stride-only"],
                     "conf-threshold": [3],
                     "disambig": ["none", "learned"]}})",
        spec, err))
        << err;
    std::vector<SweepRun> runs;
    ASSERT_TRUE(expandSweepSpec(spec, runs, err)) << err;
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[1].key, "health/seed=1/sfm-mode=stride-only,"
                           "conf-threshold=3,disambig=learned");
    SimConfig want = makePaperConfig(PaperConfig::ConfAllocRR);
    want.psb.buffers.agingPeriod = 5;
    want.sfm.mode = SfmMode::StrideOnly;
    want.psb.buffers.allocConfThreshold = 3;
    want.core.disambiguation = DisambiguationMode::Learned;
    EXPECT_TRUE(runs[1].cfg == want);
}

TEST(SweepSpecTest, RejectsConfigBesideItsFields)
{
    for (const char *field : {"\"prefetcher\": [\"psb\"]",
                              "\"alloc\": [\"conf\"]",
                              "\"sched\": [\"rr\"]"}) {
        SweepSpec spec;
        std::string err;
        ASSERT_TRUE(parseSweepSpec(
            std::string(R"({"workloads": ["health"],
                           "base": {"config": "Base"}, "axes": {)") +
                field + "}}",
            spec, err))
            << err;
        std::vector<SweepRun> runs;
        EXPECT_FALSE(expandSweepSpec(spec, runs, err)) << field;
        EXPECT_NE(err.find("'config'"), std::string::npos) << err;
    }
}

TEST(SweepSpecTest, ParsesTables)
{
    SweepSpec spec;
    std::string err;
    ASSERT_TRUE(parseSweepSpec(
        R"({"workloads": ["health", "burg"],
            "axes": {"config": ["Base", "PCStride"], "buffers": [4, 8]},
            "tables": [{"title": "t", "rows": ["burg"], "average": true,
              "columns": [{"label": "L", "stat": "a.x, b.x",
                           "job": "buffers=8,config=PCStride",
                           "vs": "config=Base", "digits": 2}]}]})",
        spec, err))
        << err;
    ASSERT_EQ(spec.tables.size(), 1u);
    const SweepTable &t = spec.tables[0];
    EXPECT_EQ(t.title, "t");
    EXPECT_EQ(t.rows, std::vector<std::string>{"burg"});
    EXPECT_TRUE(t.average);
    ASSERT_EQ(t.columns.size(), 1u);
    const SweepTableColumn &c = t.columns[0];
    // Stored in spec axis order, whatever order the column names them.
    EXPECT_EQ(sweepJobKey("burg", 1, c.job),
              "burg/seed=1/config=PCStride,buffers=8");
    EXPECT_EQ(c.stats, (std::vector<std::string>{"a.x", "b.x"}));
    // "vs" substitutes into the column's own job.
    EXPECT_EQ(sweepJobKey("burg", 1, c.vs),
              "burg/seed=1/config=Base,buffers=8");
    EXPECT_EQ(c.digits, 2);
}

TEST(SweepSpecTest, RejectsBadTables)
{
    const char *head = R"({"workloads": ["health"],
        "axes": {"config": ["Base", "PCStride"]}, "tables": )";
    const std::pair<const char *, const char *> cases[] = {
        {R"([{"colour": 1, "columns": []}])", "colour"},
        {R"([{"columns": [{"label": "x", "job": "config=Base",
                           "stat": "core.ipc", "colour": 1}]}])",
         "colour"},
        {R"([{"columns": [{"label": "x", "job": "buffers=4",
                           "stat": "core.ipc"}]}])",
         "buffers"},
        {R"([{"columns": [{"label": "x", "job": "config=Base",
                           "stat": " , "}]}])",
         "no stat"},
        {R"([{"columns": [{"label": "x", "job": "config=Turbo",
                           "stat": "core.ipc"}]}])",
         "Turbo"},
        {R"([{"columns": [{"label": "x", "job": "config=Base",
                           "stat": "core.ipc", "vs": "order=1"}]}])",
         "order"},
        {R"([{"rows": ["gs"], "columns": [{"label": "x",
              "job": "config=Base", "stat": "core.ipc"}]}])",
         "rows"},
        {R"([{"title": "no columns"}])", "columns"},
    };
    for (const auto &[tables, needle] : cases) {
        SweepSpec spec;
        std::string err;
        EXPECT_FALSE(parseSweepSpec(std::string(head) + tables + "}",
                                    spec, err))
            << tables;
        EXPECT_NE(err.find(needle), std::string::npos) << err;
    }
}

TEST(SweepSpecTest, RejectsBadAxisValueAtExpansion)
{
    SweepSpec spec;
    std::string err;
    ASSERT_TRUE(parseSweepSpec(
        R"({"workloads": ["health"], "axes": {"prefetcher": ["warp"]}})",
        spec, err))
        << err;
    std::vector<SweepRun> runs;
    EXPECT_FALSE(expandSweepSpec(spec, runs, err));
    EXPECT_NE(err.find("warp"), std::string::npos) << err;
}

// ------------------------------------------------------------------ //
// sim/sweep.hh — the engine
// ------------------------------------------------------------------ //

SweepJob
okJob(const std::string &key, const std::string &payload)
{
    SweepJob job;
    job.key = key;
    job.run = [payload](const JobContext &) {
        JobOutcome out;
        out.ok = true;
        out.payload = payload;
        return out;
    };
    return job;
}

TEST(SweepEngineTest, ResultsSortedByKeyWhateverTheSubmitOrder)
{
    std::vector<SweepJob> jobs;
    jobs.push_back(okJob("zeta", "1"));
    jobs.push_back(okJob("alpha", "2"));
    jobs.push_back(okJob("mid", "3"));

    SweepOptions opts;
    opts.jobs = 2;
    std::vector<JobResult> results = SweepEngine(opts).run(jobs);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].key, "alpha");
    EXPECT_EQ(results[1].key, "mid");
    EXPECT_EQ(results[2].key, "zeta");
    for (const JobResult &r : results)
        EXPECT_EQ(r.status, JobStatus::Ok);
}

TEST(SweepEngineTest, FailingJobRunsOnceAndKeepsItsError)
{
    auto runs = std::make_shared<std::atomic<unsigned>>(0);
    SweepJob doomed;
    doomed.key = "doomed";
    doomed.run = [runs](const JobContext &) {
        runs->fetch_add(1);
        JobOutcome out;
        out.error = "always broken";
        return out;
    };

    std::vector<JobResult> results =
        SweepEngine(SweepOptions{}).run({doomed});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(runs->load(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Failed);
    EXPECT_EQ(results[0].error, "always broken");
}

TEST(SweepEngineTest, ExceptionsBecomeDeterministicFailures)
{
    SweepJob thrower;
    thrower.key = "thrower";
    thrower.run = [](const JobContext &) -> JobOutcome {
        throw std::runtime_error("boom");
    };

    SweepOptions opts;
    std::vector<JobResult> results = SweepEngine(opts).run({thrower});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Failed);
    EXPECT_NE(results[0].error.find("boom"), std::string::npos)
        << results[0].error;
}

TEST(SweepEngineTest, PoisonedJobDoesNotContaminateSiblings)
{
    // One throwing job sandwiched between real work at every worker
    // count: the siblings' payloads must be what a solo run produces.
    for (unsigned workers : {1u, 4u}) {
        std::vector<SweepJob> jobs;
        jobs.push_back(okJob("w1", "p1"));
        SweepJob poison;
        poison.key = "poison";
        poison.run = [](const JobContext &) -> JobOutcome {
            throw std::runtime_error("poisoned");
        };
        jobs.push_back(poison);
        jobs.push_back(okJob("w2", "p2"));

        SweepOptions opts;
        opts.jobs = workers;
        std::vector<JobResult> results = SweepEngine(opts).run(jobs);
        // Sorted by key: "poison" < "w1" < "w2".
        ASSERT_EQ(results.size(), 3u);
        EXPECT_EQ(results[0].status, JobStatus::Failed);
        EXPECT_EQ(results[1].payload, "p1");
        EXPECT_EQ(results[2].payload, "p2");
    }
}

TEST(SweepEngineTest, MergedDocumentIsByteStable)
{
    std::vector<JobResult> results;
    JobResult ok;
    ok.key = "a";
    ok.status = JobStatus::Ok;
    ok.payload = "{\n  \"core.cycles\": 10\n}\n";
    results.push_back(ok);
    JobResult bad;
    bad.key = "b";
    bad.status = JobStatus::Failed;
    bad.error = "it \"broke\"";
    results.push_back(bad);

    std::string doc = SweepEngine::mergeStatsJson(results);
    EXPECT_EQ(doc, "{\n"
                   "  \"jobs\": {\n"
                   "    \"a\": {\n"
                   "      \"status\": \"ok\",\n"
                   "      \"attempts\": 1,\n"
                   "      \"stats\": {\n"
                   "        \"core.cycles\": 10\n"
                   "      }\n"
                   "    },\n"
                   "    \"b\": {\n"
                   "      \"status\": \"failed\",\n"
                   "      \"attempts\": 1,\n"
                   "      \"error\": \"it \\\"broke\\\"\"\n"
                   "    }\n"
                   "  }\n"
                   "}\n");
}

/**
 * A failed job's error may hold any byte: the merged document escapes
 * control characters as \u00XX, and psb-report reads them back.
 */
TEST(SweepEngineTest, ControlCharactersInErrorsSurviveTheReport)
{
    JobResult bad;
    bad.key = "w/seed=1/";
    bad.status = JobStatus::Failed;
    bad.error = "boom\x01tab\there";
    std::string doc = SweepEngine::mergeStatsJson({bad});
    EXPECT_NE(doc.find("boom\\u0001tab\\there"), std::string::npos)
        << doc;

    JsonValue parsed;
    std::string err;
    ASSERT_TRUE(parseJson(doc, parsed, err)) << err;
    const JsonValue *job = parsed.find("jobs")->find(bad.key);
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->find("error")->str, bad.error);

    RunReportInputs in;
    in.sweepJson = doc;
    std::string report;
    ASSERT_TRUE(renderRunReport(in, ReportFormat::Markdown, report, err))
        << err;
    EXPECT_NE(report.find("w/seed=1/"), std::string::npos) << report;
}

/**
 * The tentpole property, in-process: real (tiny) simulations produce
 * a byte-identical merged document at every worker count.
 */
TEST(SweepEngineTest, ThreadCountInvariantMergedStats)
{
    SweepSpec spec;
    std::string err;
    ASSERT_TRUE(parseSweepSpec(
        R"({"workloads": ["health", "deltablue"],
            "base": {"insts": 3000, "warmup": 500},
            "axes": {"buffers": [4, 8], "prefetcher": ["psb", "pcstride"]}})",
        spec, err))
        << err;
    std::vector<SweepRun> runs;
    ASSERT_TRUE(expandSweepSpec(spec, runs, err)) << err;
    ASSERT_EQ(runs.size(), 8u);

    std::string reference;
    for (unsigned workers : {1u, 2u, 8u}) {
        std::vector<SweepJob> jobs;
        for (const SweepRun &run : runs)
            jobs.push_back(makeSimJob(run));
        SweepOptions opts;
        opts.jobs = workers;
        std::vector<JobResult> results = SweepEngine(opts).run(jobs);
        for (const JobResult &r : results)
            ASSERT_EQ(r.status, JobStatus::Ok) << r.key << ": "
                                               << r.error;
        std::string doc = SweepEngine::mergeStatsJson(results);
        if (reference.empty())
            reference = doc;
        else
            EXPECT_EQ(doc, reference)
                << "merged stats differ at jobs=" << workers;
    }
    EXPECT_NE(reference.find("health/seed=1/buffers=4,prefetcher=psb"),
              std::string::npos);
}

TEST(SweepEngineTest, UnknownWorkloadFailsCleanly)
{
    SweepRun run;
    run.key = "nope/seed=1/";
    run.workload = "nope";
    run.cfg.maxInstructions = 100;
    run.cfg.harmonize();
    SweepOptions opts;
    std::vector<JobResult> results =
        SweepEngine(opts).run({makeSimJob(run)});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Failed);
    EXPECT_NE(results[0].error.find("unknown workload"),
              std::string::npos)
        << results[0].error;
}

} // namespace
} // namespace psb
