/**
 * @file
 * Deterministic flat-JSON serialisation for stats snapshots, plus the
 * matching reader (built on util/json) used by psb-report and the
 * tests.
 *
 * The dump format is deliberately flat — one member per stat, the
 * hierarchical path kept in the key:
 *
 *   {
 *     "core.cycles": 123456,
 *     "core.ipc": 0.2980000000000000426
 *   }
 *
 * Determinism contract: keys are emitted in sorted order (the
 * snapshot is a std::map), scalars print as plain integers, and reals
 * print with "%.17g" so every distinct double has exactly one
 * spelling and parses back bit-exact. Two runs with identical stats
 * therefore produce byte-identical files.
 */

#ifndef PSB_UTIL_STATS_JSON_HH
#define PSB_UTIL_STATS_JSON_HH

#include <map>
#include <string>

#include "util/stats.hh"

namespace psb
{

/** One parsed stat: the raw JSON token and its numeric value. */
struct ParsedStat
{
    std::string raw;    ///< the number exactly as it appeared
    double value = 0.0;
};

/** Format one real-valued stat with the round-trip-exact spelling. */
std::string formatStatReal(double v);

/** Render a snapshot as the deterministic flat-JSON dump. */
std::string statsToJson(const std::map<std::string, StatValue> &snapshot);

/**
 * Parse a flat-JSON stats dump produced by statsToJson(), with
 * parseJson(): one object whose members are all numbers. Anything
 * else, a duplicate key or trailing garbage included, is an error.
 * @param text The JSON document.
 * @param out Parsed stats keyed by path (cleared first).
 * @param error Human-readable parse error when returning false.
 * @retval true on success.
 */
bool parseStatsJson(const std::string &text,
                    std::map<std::string, ParsedStat> &out,
                    std::string &error);

} // namespace psb

#endif // PSB_UTIL_STATS_JSON_HH
