#include "util/stats_json.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/json.hh"
#include "util/logging.hh"

namespace psb
{

std::string
formatStatReal(double v)
{
    // Stats are ratios, means, and utilisations of finite counters;
    // a non-finite value is a modelling bug, not a formatting choice.
    psb_assert(std::isfinite(v), "non-finite stat value");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
statsToJson(const std::map<std::string, StatValue> &snapshot)
{
    std::ostringstream out;
    out << "{\n";
    bool first = true;
    for (const auto &[path, value] : snapshot) {
        if (!first)
            out << ",\n";
        first = false;
        out << "  \"" << escapeJson(path) << "\": ";
        if (value.kind == StatValue::Kind::Scalar) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%llu",
                          (unsigned long long)value.scalar);
            out << buf;
        } else {
            out << formatStatReal(value.real);
        }
    }
    out << "\n}\n";
    return out.str();
}

bool
parseStatsJson(const std::string &text,
               std::map<std::string, ParsedStat> &out, std::string &error)
{
    out.clear();
    JsonValue doc;
    if (!parseJson(text, doc, error))
        return false;
    if (!doc.isObject()) {
        error = "expected an object of stats";
        return false;
    }
    // parseJson() has already refused duplicate keys.
    for (auto &[path, value] : doc.object) {
        if (!value.isNumber()) {
            error = "stat \"" + path + "\" is not a number";
            return false;
        }
        out.emplace(path, ParsedStat{std::move(value.raw), value.number});
    }
    return true;
}

} // namespace psb
