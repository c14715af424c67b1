/** @file See run_report.hh. */

#include "sim/run_report.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <vector>

#include "prefetch/attribution.hh"
#include "sim/sweep_spec.hh"
#include "util/json.hh"
#include "util/stats_json.hh"

namespace psb
{

namespace
{

/** One rendered table: a header row plus data rows, all strings. */
struct Table
{
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

/** One report section: heading, prose lines, tables — in order. */
struct Section
{
    std::string heading;
    std::vector<std::string> paragraphs;
    std::vector<Table> tables;
};

using StatsMap = std::map<std::string, ParsedStat>;

const char *const kOutcomeNames[] = {
    "used_timely",  "used_late", "evicted_unused",
    "replaced",     "squashed",  "redundant_demand",
};

const ParsedStat *
findStat(const StatsMap &stats, const std::string &key)
{
    auto it = stats.find(key);
    return it == stats.end() ? nullptr : &it->second;
}

double
statValue(const StatsMap &stats, const std::string &key)
{
    const ParsedStat *s = findStat(stats, key);
    return s ? s->value : 0.0;
}

/** The stat's source spelling, or "-" when absent. */
std::string
statToken(const StatsMap &stats, const std::string &key)
{
    const ParsedStat *s = findStat(stats, key);
    return s ? s->raw : std::string("-");
}

std::string
fmtUint(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return buf;
}

/** Fixed-precision percentage: deterministic for deterministic input. */
std::string
fmtPercent(double num, double denom)
{
    double pct = denom > 0.0 ? 100.0 * num / denom : 0.0;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f%%", pct);
    return buf;
}

std::string
fmtRatio(double num, double denom)
{
    double r = denom > 0.0 ? num / denom : 0.0;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", r);
    return buf;
}

// ------------------------------------------------------------------ //
// Section builders
// ------------------------------------------------------------------ //

Section
buildSummary(const StatsMap &stats)
{
    Section sec;
    sec.heading = "Run summary";
    Table t;
    t.header = {"Metric", "Value"};
    // A fixed, ordered selection; absent keys are skipped so the
    // section degrades gracefully for partial documents.
    const char *const keys[] = {
        "core.instructions",      "core.cycles",
        "core.ipc",               "sim.pct_loads",
        "sim.pct_stores",         "core.load_latency.mean",
        "core.branches",          "core.mispredicts",
        "l1d.accesses",           "l1d.misses",
        "l1d.miss_rate",          "l2.accesses",
        "l2.misses",              "l2.prefetches",
        "l2.prefetch_hits",       "sim.l1_l2_bus_util",
        "sim.l2_mem_bus_util",
    };
    for (const char *key : keys) {
        if (const ParsedStat *s = findStat(stats, key))
            t.rows.push_back({key, s->raw});
    }
    if (t.rows.empty())
        sec.paragraphs.push_back("No core/memory stats in this document.");
    else
        sec.tables.push_back(std::move(t));
    return sec;
}

Section
buildAttribution(const StatsMap &stats)
{
    Section sec;
    sec.heading = "Prefetch attribution";
    const ParsedStat *issued_stat =
        findStat(stats, "prefetch.attrib.issued");
    if (!issued_stat) {
        sec.paragraphs.push_back(
            "No prefetch.attrib stats in this document.");
        return sec;
    }
    double issued = issued_stat->value;
    double used =
        statValue(stats, "prefetch.attrib.outcome.used_timely") +
        statValue(stats, "prefetch.attrib.outcome.used_late");
    double timely =
        statValue(stats, "prefetch.attrib.outcome.used_timely");
    sec.paragraphs.push_back(
        "Issued " + issued_stat->raw + " prefetches; accuracy " +
        fmtRatio(used, issued) + " (used / issued), timeliness " +
        fmtRatio(timely, used) + " (timely / used).");
    if (const ParsedStat *misses = findStat(stats, "l1d.misses")) {
        sec.paragraphs.push_back(
            "Coverage " + fmtRatio(used, used + misses->value) +
            " (used prefetches / (used + remaining L1D misses)).");
    }

    Table outcomes;
    outcomes.header = {"Outcome", "Count", "Share of issued"};
    for (const char *name : kOutcomeNames) {
        std::string key =
            std::string("prefetch.attrib.outcome.") + name;
        outcomes.rows.push_back({name, statToken(stats, key),
                                 fmtPercent(statValue(stats, key),
                                            issued)});
    }
    sec.tables.push_back(std::move(outcomes));

    Table timing;
    timing.header = {"Distribution", "p50", "p90", "p99", "samples"};
    for (const char *dist : {"use_distance", "lateness"}) {
        std::string base = std::string("prefetch.attrib.") + dist;
        timing.rows.push_back({dist, statToken(stats, base + ".p50"),
                               statToken(stats, base + ".p90"),
                               statToken(stats, base + ".p99"),
                               statToken(stats, base + ".samples")});
    }
    sec.tables.push_back(std::move(timing));

    Table sources;
    sources.header = {"Source",   "Issued",   "Timely",
                      "Late",     "Evicted",  "Replaced",
                      "Squashed", "Redundant", "Accuracy"};
    for (unsigned s = 0; s < unsigned(PredictionSource::NumSources);
         ++s) {
        std::string base = std::string("prefetch.attrib.source.") +
                           predictionSourceName(PredictionSource(s));
        double src_issued = statValue(stats, base + ".issued");
        if (src_issued <= 0.0)
            continue; // sources this run never exercised
        double src_used = statValue(stats, base + ".used_timely") +
                          statValue(stats, base + ".used_late");
        sources.rows.push_back(
            {predictionSourceName(PredictionSource(s)),
             statToken(stats, base + ".issued"),
             statToken(stats, base + ".used_timely"),
             statToken(stats, base + ".used_late"),
             statToken(stats, base + ".evicted_unused"),
             statToken(stats, base + ".replaced"),
             statToken(stats, base + ".squashed"),
             statToken(stats, base + ".redundant_demand"),
             fmtRatio(src_used, src_issued)});
    }
    if (!sources.rows.empty())
        sec.tables.push_back(std::move(sources));
    return sec;
}

bool
buildIntervals(const std::string &jsonl, const StatsMap &stats,
               Section &sec, std::string &error)
{
    sec.heading = "Interval series";
    std::map<std::string, int64_t> delta_sums;
    uint64_t records = 0;
    uint64_t first_start = 0, last_end = 0;
    std::string broken; ///< the first break in the series, if any
    std::istringstream lines(jsonl);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        JsonValue rec;
        if (!parseJson(line, rec, error)) {
            error = "interval record " + std::to_string(records) +
                    ": " + error;
            return false;
        }
        uint64_t index = 0, start = 0, end = 0;
        const JsonValue *iv = rec.find("interval");
        bool indexed = iv && iv->asUInt(index);
        if (const JsonValue *v = rec.find("start"))
            v->asUInt(start);
        if (const JsonValue *v = rec.find("end"))
            v->asUInt(end);
        // The series must be numbered 0, 1, 2, ... with each record
        // starting where the previous one ended.
        std::string at = "interval record " + fmtUint(records);
        if (broken.empty() && (!indexed || index != records))
            broken = at + " is not numbered " + fmtUint(records);
        if (broken.empty() && records > 0 && start != last_end)
            broken = at + " starts at cycle " + fmtUint(start) +
                     ", not at the previous end " + fmtUint(last_end);
        if (records == 0)
            first_start = start;
        last_end = end;
        if (const JsonValue *delta = rec.find("delta")) {
            for (const auto &[path, value] : delta->object)
                delta_sums[path] += int64_t(value.number);
        }
        ++records;
    }

    // Re-verify the telescoping contract: per-path delta sums must
    // equal the final stats document's scalar values.
    uint64_t mismatches = 0;
    for (const auto &[path, sum] : delta_sums) {
        const ParsedStat *fin = findStat(stats, path);
        if (!fin || int64_t(fin->value) != sum)
            ++mismatches;
    }
    sec.paragraphs.push_back(
        fmtUint(records) + " interval records covering cycles " +
        fmtUint(first_start) + ".." + fmtUint(last_end) + ".");
    if (!broken.empty())
        sec.paragraphs.push_back("Telescoping check: FAILED: " + broken +
                                 ".");
    else
        sec.paragraphs.push_back(
            mismatches == 0
                ? "Telescoping check: OK (every scalar delta series "
                  "sums to its final stats value)."
                : "Telescoping check: FAILED for " +
                      fmtUint(mismatches) + " stat paths.");
    return true;
}

/** Fixed-decimal rendering of a table cell; "%+" for speedups. */
std::string
fmtCell(double v, int digits, bool signedPercent)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), signedPercent ? "%+.*f%%" : "%.*f",
                  digits, v);
    return buf;
}

/**
 * The first of @p col's stat paths present in job @p key, or null
 * with @p error set (a missing or failed job is an error too: a
 * table must never quietly render a hole).
 */
const JsonValue *
columnStat(const JsonValue &jobs, const std::string &key,
           const SweepTableColumn &col, std::string &error)
{
    const JsonValue *job = jobs.find(key);
    const JsonValue *status = job ? job->find("status") : nullptr;
    const JsonValue *stats = job ? job->find("stats") : nullptr;
    if (!status || status->str != "ok" || !stats) {
        error = "sweep document: job \"" + key +
                (job ? "\" did not succeed" : "\" is missing");
        return nullptr;
    }
    for (const std::string &path : col.stats) {
        if (const JsonValue *v = stats->find(path))
            return v;
    }
    std::string paths;
    for (const std::string &path : col.stats)
        paths += (paths.empty() ? "" : ", ") + path;
    error = "sweep document: job \"" + key + "\" has none of " + paths +
            " (column \"" + col.label + "\")";
    return nullptr;
}

/** Render one spec table (sim/sweep_spec.hh) from the merged jobs. */
bool
buildSpecTable(const SweepSpec &spec, const SweepTable &table,
               const JsonValue &jobs, Section &sec, std::string &error)
{
    sec.heading = table.title;
    Table t;
    t.header.push_back("workload");
    for (const SweepTableColumn &col : table.columns)
        t.header.push_back(col.label);
    std::vector<double> sums(table.columns.size(), 0.0);
    for (const std::string &workload : table.rows) {
        for (uint64_t seed : spec.seeds) {
            std::vector<std::string> row{workload};
            if (spec.seeds.size() > 1)
                row[0] += "/seed=" + std::to_string(seed);
            for (size_t c = 0; c < table.columns.size(); ++c) {
                const SweepTableColumn &col = table.columns[c];
                const JsonValue *v = columnStat(
                    jobs, sweepJobKey(workload, seed, col.job), col,
                    error);
                if (!v)
                    return false;
                double value = v->number;
                if (!col.vs.empty()) {
                    const JsonValue *b = columnStat(
                        jobs, sweepJobKey(workload, seed, col.vs), col,
                        error);
                    if (!b)
                        return false;
                    value = b->number > 0.0
                                ? 100.0 * (v->number / b->number - 1.0)
                                : 0.0;
                    row.push_back(fmtCell(
                        value, col.digits < 0 ? 1 : col.digits, true));
                } else {
                    row.push_back(col.digits < 0
                                      ? v->raw
                                      : fmtCell(value, col.digits, false));
                }
                sums[c] += value;
            }
            t.rows.push_back(std::move(row));
        }
    }
    if (table.average) {
        double n = double(table.rows.size() * spec.seeds.size());
        std::vector<std::string> row{"average"};
        for (size_t c = 0; c < table.columns.size(); ++c) {
            const SweepTableColumn &col = table.columns[c];
            bool vs = !col.vs.empty();
            int digits = col.digits < 0 ? (vs ? 1 : 6) : col.digits;
            row.push_back(fmtCell(sums[c] / n, digits, vs));
        }
        t.rows.push_back(std::move(row));
    }
    sec.tables.push_back(std::move(t));
    return true;
}

bool
buildSweep(const std::string &json, std::vector<Section> &sections,
           std::string &error)
{
    JsonValue doc;
    if (!parseJson(json, doc, error)) {
        error = "sweep document: " + error;
        return false;
    }
    const JsonValue *jobs = doc.find("jobs");
    if (!jobs || !jobs->isObject()) {
        error = "sweep document: missing \"jobs\" object";
        return false;
    }
    SweepSpec spec;
    if (const JsonValue *specDoc = doc.find("spec")) {
        if (!parseSweepSpec(*specDoc, spec, error)) {
            error = "sweep document: " + error;
            return false;
        }
    }
    if (!spec.tables.empty()) {
        for (const SweepTable &table : spec.tables) {
            Section sec;
            if (!buildSpecTable(spec, table, *jobs, sec, error))
                return false;
            sections.push_back(std::move(sec));
        }
        return true;
    }

    Section sec;
    sec.heading = "Sweep cells";
    Table t;
    t.header = {"Config cell", "Status", "IPC", "PF issued",
                "PF accuracy"};
    std::vector<const std::pair<std::string, JsonValue> *> cells;
    cells.reserve(jobs->object.size());
    for (const auto &member : jobs->object)
        cells.push_back(&member);
    std::sort(cells.begin(), cells.end(),
              [](const auto *a, const auto *b) {
                  return a->first < b->first;
              });
    for (const auto *cell : cells) {
        const JsonValue &job = cell->second;
        std::string status = "?";
        if (const JsonValue *s = job.find("status"))
            status = s->str;
        std::string ipc = "-", issued = "-", accuracy = "-";
        if (const JsonValue *stats_obj = job.find("stats")) {
            double used = 0.0, issued_n = 0.0;
            for (const auto &[path, value] : stats_obj->object) {
                if (path == "core.ipc")
                    ipc = value.raw;
                else if (path == "prefetch.attrib.issued") {
                    issued = value.raw;
                    issued_n = value.number;
                } else if (path ==
                               "prefetch.attrib.outcome.used_timely" ||
                           path == "prefetch.attrib.outcome.used_late")
                    used += value.number;
            }
            if (issued != "-")
                accuracy = fmtRatio(used, issued_n);
        }
        t.rows.push_back({cell->first, status, ipc, issued, accuracy});
    }
    sec.paragraphs.push_back(fmtUint(uint64_t(t.rows.size())) +
                             " config cells.");
    sec.tables.push_back(std::move(t));
    sections.push_back(std::move(sec));
    return true;
}

/** Added, removed and changed stats; "-" marks the absent side. */
Section
buildGoldenDrift(const StatsMap &stats, const StatsMap &golden)
{
    Section sec;
    sec.heading = "Golden drift";
    uint64_t added = 0, removed = 0, changed = 0;
    Table t;
    t.header = {"Stat", "Golden", "Current"};
    constexpr size_t kMaxListed = 20;
    auto list = [&](const std::string &path) {
        if (t.rows.size() < kMaxListed)
            t.rows.push_back(
                {path, statToken(golden, path), statToken(stats, path)});
    };
    for (const auto &[path, value] : stats) {
        auto it = golden.find(path);
        if (it == golden.end()) {
            ++added;
            list(path);
        } else if (it->second.raw != value.raw) {
            ++changed;
            list(path);
        }
    }
    for (const auto &[path, value] : golden) {
        (void)value;
        if (stats.find(path) == stats.end()) {
            ++removed;
            list(path);
        }
    }
    sec.paragraphs.push_back(
        fmtUint(added) + " stats added, " + fmtUint(removed) +
        " removed, " + fmtUint(changed) +
        " changed relative to the golden document.");
    if (!t.rows.empty()) {
        if (added + removed + changed > kMaxListed)
            sec.paragraphs.push_back("First " + fmtUint(kMaxListed) +
                                     " differing stats:");
        sec.tables.push_back(std::move(t));
    }
    return sec;
}

// ------------------------------------------------------------------ //
// Renderers
// ------------------------------------------------------------------ //

std::string
htmlEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '&':
            out += "&amp;";
            break;
        case '<':
            out += "&lt;";
            break;
        case '>':
            out += "&gt;";
            break;
        default:
            out += c;
        }
    }
    return out;
}

std::string
renderMarkdown(const std::string &title,
               const std::vector<Section> &sections)
{
    std::string out = "# " + title + "\n";
    for (const Section &sec : sections) {
        out += "\n## " + sec.heading + "\n";
        for (const std::string &p : sec.paragraphs)
            out += "\n" + p + "\n";
        for (const Table &t : sec.tables) {
            out += "\n|";
            for (const std::string &h : t.header)
                out += " " + h + " |";
            out += "\n|";
            for (size_t i = 0; i < t.header.size(); ++i)
                out += " --- |";
            out += "\n";
            for (const auto &row : t.rows) {
                out += "|";
                for (const std::string &cell : row)
                    out += " " + cell + " |";
                out += "\n";
            }
        }
    }
    return out;
}

std::string
renderHtml(const std::string &title,
           const std::vector<Section> &sections)
{
    std::string out =
        "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
        "<title>" +
        htmlEscape(title) +
        "</title>\n<style>\n"
        "body { font-family: sans-serif; margin: 2em; }\n"
        "table { border-collapse: collapse; margin: 1em 0; }\n"
        "th, td { border: 1px solid #999; padding: 0.3em 0.7em; "
        "text-align: left; }\n"
        "th { background: #eee; }\n"
        "</style>\n</head>\n<body>\n<h1>" +
        htmlEscape(title) + "</h1>\n";
    for (const Section &sec : sections) {
        out += "<h2>" + htmlEscape(sec.heading) + "</h2>\n";
        for (const std::string &p : sec.paragraphs)
            out += "<p>" + htmlEscape(p) + "</p>\n";
        for (const Table &t : sec.tables) {
            out += "<table>\n<tr>";
            for (const std::string &h : t.header)
                out += "<th>" + htmlEscape(h) + "</th>";
            out += "</tr>\n";
            for (const auto &row : t.rows) {
                out += "<tr>";
                for (const std::string &cell : row)
                    out += "<td>" + htmlEscape(cell) + "</td>";
                out += "</tr>\n";
            }
            out += "</table>\n";
        }
    }
    out += "</body>\n</html>\n";
    return out;
}

} // namespace

bool
renderRunReport(const RunReportInputs &in, ReportFormat format,
                std::string &out, std::string &error)
{
    // A sweep document stands alone; everything else needs stats.
    StatsMap stats;
    std::vector<Section> sections;
    if (!in.statsJson.empty() || in.sweepJson.empty()) {
        if (!parseStatsJson(in.statsJson, stats, error)) {
            error = "stats document: " + error;
            return false;
        }
        sections.push_back(buildSummary(stats));
        sections.push_back(buildAttribution(stats));
    }

    if (!in.intervalsJsonl.empty()) {
        Section sec;
        if (!buildIntervals(in.intervalsJsonl, stats, sec, error))
            return false;
        sections.push_back(std::move(sec));
    }
    if (!in.sweepJson.empty() &&
        !buildSweep(in.sweepJson, sections, error))
        return false;
    if (!in.goldenJson.empty()) {
        StatsMap golden;
        if (!parseStatsJson(in.goldenJson, golden, error)) {
            error = "golden document: " + error;
            return false;
        }
        sections.push_back(buildGoldenDrift(stats, golden));
    }

    std::string title =
        in.title.empty() ? std::string("PSB run report") : in.title;
    out = format == ReportFormat::Markdown
              ? renderMarkdown(title, sections)
              : renderHtml(title, sections);
    return true;
}

} // namespace psb
