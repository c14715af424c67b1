#include "sim/sweep_spec.hh"

#include <algorithm>

#include "sim/simulator.hh"
#include "util/json.hh"
#include "workloads/workload.hh"

namespace psb
{

namespace
{

bool
specError(std::string &error, const std::string &msg)
{
    error = "sweep spec: " + msg;
    return false;
}

/** Validate a config key name against the strict catalog. */
bool
checkConfigKey(const std::string &where, const std::string &key,
               std::string &error)
{
    if (isConfigKey(key))
        return true;
    std::string valid;
    for (const std::string &k : simConfigKeys())
        valid += (valid.empty() ? "" : ", ") + k;
    return specError(error, "unknown config key \"" + key + "\" in \"" +
                                where + "\" (valid: " + valid + ")");
}

/** The index of @p key among the spec's axes, or -1. */
int
axisIndex(const SweepSpec &spec, const std::string &key)
{
    for (size_t a = 0; a < spec.axes.size(); ++a) {
        if (spec.axes[a].first == key)
            return int(a);
    }
    return -1;
}

/** "a,,b" -> {"a", "", "b"}. */
std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> items;
    size_t pos = 0;
    for (size_t comma; (comma = text.find(',', pos)) != text.npos;
         pos = comma + 1)
        items.push_back(text.substr(pos, comma - pos));
    items.push_back(text.substr(pos));
    return items;
}

/**
 * Parse "axis=value,axis=value" against the spec's axes into
 * @p out (spec axis order). Every axis must exist and every value be
 * one of its values; with @p complete, every axis must be assigned.
 */
bool
parseAssignment(const SweepSpec &spec, const std::string &where,
                const std::string &text, bool complete,
                AxisAssignment &out, std::string &error)
{
    std::vector<std::string> values(spec.axes.size());
    std::vector<bool> seen(spec.axes.size(), false);
    for (const std::string &item : splitCommas(text)) {
        size_t eq = item.find('=');
        if (eq == std::string::npos)
            return specError(error, where + ": \"" + item +
                                        "\" is not axis=value");
        std::string key = item.substr(0, eq);
        std::string value = item.substr(eq + 1);
        int a = axisIndex(spec, key);
        if (a < 0)
            return specError(error, where + ": \"" + key +
                                        "\" is not an axis");
        if (seen[size_t(a)])
            return specError(error, where + ": axis \"" + key +
                                        "\" assigned twice");
        const std::vector<std::string> &allowed =
            spec.axes[size_t(a)].second;
        if (std::find(allowed.begin(), allowed.end(), value) ==
            allowed.end())
            return specError(error, where + ": \"" + value +
                                        "\" is not a value of axis \"" +
                                        key + "\"");
        seen[size_t(a)] = true;
        values[size_t(a)] = value;
    }
    out.clear();
    for (size_t a = 0; a < spec.axes.size(); ++a) {
        if (seen[a])
            out.emplace_back(spec.axes[a].first, values[a]);
        else if (complete)
            return specError(error, where + ": axis \"" +
                                        spec.axes[a].first +
                                        "\" is not assigned");
    }
    return true;
}

/** Fail on any member of object @p value not named in @p valid. */
bool
onlyMembers(const JsonValue &value, const std::string &where,
            const std::vector<std::string> &valid, std::string &error)
{
    if (!value.isObject())
        return specError(error, where + " must be an object");
    for (const auto &[key, _member] : value.object) {
        if (std::find(valid.begin(), valid.end(), key) != valid.end())
            continue;
        std::string list;
        for (const std::string &v : valid)
            list += (list.empty() ? "" : ", ") + v;
        return specError(error, where + ": unknown member \"" + key +
                                    "\" (valid: " + list + ")");
    }
    return true;
}

bool
parseColumn(const SweepSpec &spec, const std::string &where,
            const JsonValue &value, SweepTableColumn &col,
            std::string &error)
{
    if (!onlyMembers(value, where, {"label", "job", "stat", "vs", "digits"},
                     error))
        return false;
    const JsonValue *label = value.find("label");
    const JsonValue *job = value.find("job");
    const JsonValue *stat = value.find("stat");
    const JsonValue *vs = value.find("vs");
    const JsonValue *digits = value.find("digits");
    if (!label || !label->isString() || !job || !job->isString() ||
        !stat || !stat->isString() || (vs && !vs->isString()))
        return specError(error, where + " needs string \"label\", "
                                        "\"job\" and \"stat\" (and "
                                        "\"vs\", if given)");
    col.label = label->str;
    uint64_t n = 0;
    if (digits && (!digits->asUInt(n) || n > 9))
        return specError(error, where + " \"digits\" must be 0..9");
    if (digits)
        col.digits = int(n);
    if (!parseAssignment(spec, where + " \"job\"", job->str, true,
                         col.job, error))
        return false;
    if (vs) {
        AxisAssignment swaps;
        if (!parseAssignment(spec, where + " \"vs\"", vs->str, false,
                             swaps, error))
            return false;
        col.vs = col.job;
        for (auto &[axis, axisValue] : col.vs) {
            for (const auto &[swapAxis, swapValue] : swaps) {
                if (swapAxis == axis)
                    axisValue = swapValue;
            }
        }
    }
    for (std::string path : splitCommas(stat->str)) {
        path.erase(0, path.find_first_not_of(' '));
        path.erase(path.find_last_not_of(' ') + 1);
        if (!path.empty())
            col.stats.push_back(path);
    }
    if (col.stats.empty())
        return specError(error, where + " \"stat\" names no stat path");
    return true;
}

bool
parseTable(const SweepSpec &spec, const std::string &where,
           const JsonValue &value, SweepTable &table, std::string &error)
{
    if (!onlyMembers(value, where, {"title", "rows", "average", "columns"},
                     error))
        return false;
    const JsonValue *title = value.find("title");
    const JsonValue *rows = value.find("rows");
    const JsonValue *average = value.find("average");
    const JsonValue *columns = value.find("columns");
    if ((title && !title->isString()) || (average && !average->isBool()))
        return specError(error, where + " \"title\" must be a string "
                                        "and \"average\" a boolean");
    table.title = title ? title->str : "";
    table.average = average && average->boolean;
    table.rows = spec.workloads;
    if (rows) {
        table.rows.clear();
        for (const JsonValue &row : rows->array) {
            if (!row.isString() ||
                std::find(spec.workloads.begin(), spec.workloads.end(),
                          row.str) == spec.workloads.end())
                return specError(error, where + " \"rows\" entries must "
                                                "name spec workloads");
            table.rows.push_back(row.str);
        }
        if (table.rows.empty())
            return specError(error, where + " \"rows\" must be a "
                                            "non-empty array");
    }
    if (!columns || !columns->isArray() || columns->array.empty())
        return specError(error,
                         where + " needs a non-empty \"columns\" array");
    for (size_t c = 0; c < columns->array.size(); ++c) {
        SweepTableColumn col;
        if (!parseColumn(spec, where + " column " + std::to_string(c),
                         columns->array[c], col, error))
            return false;
        table.columns.push_back(std::move(col));
    }
    return true;
}

} // namespace

bool
parseSweepSpec(const std::string &text, SweepSpec &out,
               std::string &error)
{
    JsonValue doc;
    if (!parseJson(text, doc, error)) {
        out = SweepSpec{};
        error = "sweep spec: " + error;
        return false;
    }
    return parseSweepSpec(doc, out, error);
}

bool
parseSweepSpec(const JsonValue &doc, SweepSpec &out, std::string &error)
{
    out = SweepSpec{};
    if (!doc.isObject())
        return specError(error, "top level must be an object");

    const JsonValue *tables = nullptr;
    for (const auto &[key, value] : doc.object) {
        if (key == "jobs") {
            uint64_t n = 0;
            if (!value.asUInt(n) || n == 0)
                return specError(error,
                                 "\"jobs\" must be a positive integer");
            out.jobs = unsigned(n);
        } else if (key == "workloads") {
            if (!value.isArray() || value.array.empty())
                return specError(
                    error, "\"workloads\" must be a non-empty array");
            for (const JsonValue &w : value.array) {
                if (!w.isString())
                    return specError(
                        error, "\"workloads\" entries must be strings");
                out.workloads.push_back(w.str);
            }
        } else if (key == "seeds") {
            if (!value.isArray() || value.array.empty())
                return specError(error,
                                 "\"seeds\" must be a non-empty array");
            out.seeds.clear();
            for (const JsonValue &s : value.array) {
                uint64_t n = 0;
                if (!s.asUInt(n))
                    return specError(error,
                                     "\"seeds\" entries must be "
                                     "non-negative integers");
                out.seeds.push_back(n);
            }
        } else if (key == "base") {
            if (!value.isObject())
                return specError(error, "\"base\" must be an object");
            for (const auto &[k, v] : value.object) {
                if (!checkConfigKey("base", k, error))
                    return false;
                std::string token;
                if (!v.asConfigToken(token))
                    return specError(error,
                                     "\"base\" value for \"" + k +
                                         "\" must be a scalar");
                out.base.emplace_back(k, token);
            }
        } else if (key == "axes") {
            if (!value.isObject())
                return specError(error, "\"axes\" must be an object");
            for (const auto &[k, v] : value.object) {
                if (!checkConfigKey("axes", k, error))
                    return false;
                if (!v.isArray() || v.array.empty())
                    return specError(error,
                                     "axis \"" + k +
                                         "\" must be a non-empty array");
                std::vector<std::string> tokens;
                for (const JsonValue &item : v.array) {
                    std::string token;
                    if (!item.asConfigToken(token))
                        return specError(error,
                                         "axis \"" + k +
                                             "\" values must be "
                                             "scalars");
                    tokens.push_back(token);
                }
                out.axes.emplace_back(k, std::move(tokens));
            }
        } else if (key == "tables") {
            tables = &value;
        } else {
            return specError(error,
                             "unknown section \"" + key +
                                 "\" (valid: jobs, workloads, seeds, "
                                 "base, axes, tables)");
        }
    }

    if (out.workloads.empty())
        return specError(error, "\"workloads\" is required");

    // A key both fixed in base and varied by an axis is contradictory.
    for (const auto &[axis, _values] : out.axes) {
        for (const auto &[bkey, _v] : out.base) {
            if (axis == bkey)
                return specError(error, "key \"" + axis +
                                            "\" appears in both "
                                            "\"base\" and \"axes\"");
        }
    }
    // Tables reference workloads and axes, so they parse last.
    if (tables && !tables->isArray())
        return specError(error, "\"tables\" must be an array");
    for (size_t t = 0; tables && t < tables->array.size(); ++t) {
        SweepTable table;
        if (!parseTable(out, "table " + std::to_string(t),
                        tables->array[t], table, error))
            return false;
        out.tables.push_back(std::move(table));
    }
    return true;
}

namespace
{

/** "axis1=v1,axis2=v2". */
std::string
axisLabel(const AxisAssignment &axes)
{
    std::string label;
    for (size_t a = 0; a < axes.size(); ++a)
        label += (a ? "," : "") + axes[a].first + "=" + axes[a].second;
    return label;
}

} // namespace

std::string
sweepJobKey(const std::string &workload, uint64_t seed,
            const AxisAssignment &axes)
{
    std::string key = workload + "/seed=" + std::to_string(seed);
    if (!axes.empty()) {
        key += '/';
        key += axisLabel(axes);
    }
    return key;
}

bool
expandSweepSpec(const SweepSpec &spec, std::vector<SweepRun> &out,
                std::string &error)
{
    out.clear();

    // Cartesian product over the axes: decompose a linear index with
    // the last axis fastest, so the grid order matches nested loops
    // in spec order. Each cell is one config, shared by every
    // workload and seed, so it is built and validated once.
    size_t gridSize = 1;
    for (const auto &[_key, values] : spec.axes)
        gridSize *= values.size();

    std::vector<std::pair<AxisAssignment, SimConfig>> cells;
    cells.reserve(gridSize);
    for (size_t cell = 0; cell < gridSize; ++cell) {
        AxisAssignment axes(spec.axes.size());
        size_t rem = cell;
        for (size_t a = spec.axes.size(); a-- > 0;) {
            const auto &[akey, avalues] = spec.axes[a];
            axes[a] = {akey, avalues[rem % avalues.size()]};
            rem /= avalues.size();
        }
        AxisAssignment settings = spec.base;
        settings.insert(settings.end(), axes.begin(), axes.end());
        SimConfig cfg;
        if (!applyConfigKeys(cfg, settings, error)) {
            error = "sweep spec: " +
                    (axes.empty() ? "" : axisLabel(axes) + ": ") + error;
            return false;
        }
        cells.emplace_back(std::move(axes), cfg);
    }

    for (const std::string &workload : spec.workloads) {
        for (uint64_t seed : spec.seeds) {
            for (const auto &[axes, cfg] : cells) {
                SweepRun run;
                run.key = sweepJobKey(workload, seed, axes);
                run.workload = workload;
                run.seed = seed;
                run.cfg = cfg;
                out.push_back(std::move(run));
            }
        }
    }
    return true;
}

SweepJob
makeSimJob(const SweepRun &run)
{
    SweepJob job;
    job.key = run.key;
    // The lambda owns a *copy* of the run: the job builds its
    // workload, Simulator, and StatsRegistry from scratch on the
    // worker thread — shared-nothing by construction.
    job.run = [run](const JobContext &) -> JobOutcome {
        JobOutcome out;
        auto trace = makeWorkload(run.workload, run.seed);
        if (!trace) {
            out.error = "unknown workload '" + run.workload + "'";
            return out;
        }
        Simulator sim(run.cfg, *trace);
        sim.run();
        out.payload = sim.statsJson();
        out.ok = true;
        return out;
    };
    return job;
}

} // namespace psb
