/**
 * @file
 * Minimal recursive JSON reader for the tree's JSON inputs (sweep
 * specs, stats dumps, merged sweep documents, interval records), and
 * the one string escaper its writers share. Deliberately small:
 * objects, arrays, strings (basic escapes and \uXXXX below the
 * surrogates), numbers, booleans, and null.
 *
 * Two properties matter here and distinguish this from a generic
 * parser:
 *  - Object keys keep their *insertion order* (a vector of pairs, not
 *    a map), so axis expansion order is exactly the order the spec
 *    author wrote.
 *  - Duplicate keys inside one object are a hard parse error, never a
 *    silent last-one-wins. A sweep spec that says "buffers" twice is
 *    a bug in the spec, and accepting it would make the job grid
 *    differ from what the author believes they asked for.
 *
 * Numbers keep their source spelling in `raw` alongside the parsed
 * double, so integer values round-trip exactly into config fields and
 * job keys.
 */

#ifndef PSB_UTIL_JSON_HH
#define PSB_UTIL_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace psb
{

/** One parsed JSON value; a tagged tree. */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string raw;  ///< number: the spelling as written
    std::string str;  ///< string payload
    std::vector<JsonValue> array;
    /** Members in insertion order; keys verified unique at parse. */
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /**
     * The value as a non-negative integer. @retval false when the
     * value is not a number, is negative, or has a fractional part.
     */
    bool asUInt(uint64_t &out) const;

    /**
     * Render the value as the flat token a config key expects:
     * numbers keep their source spelling, strings their payload,
     * booleans "true"/"false". @retval false for arrays/objects/null.
     */
    bool asConfigToken(std::string &out) const;
};

/**
 * Parse @p text as one JSON document (trailing whitespace allowed,
 * trailing garbage rejected).
 * @param out The parsed tree (overwritten).
 * @param error Human-readable message with offset when returning false.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string &error);

/**
 * Escape @p s for the inside of a JSON string literal: '"', '\\',
 * newline, tab and carriage return by name, every other control
 * character as \u00XX, all other bytes verbatim. parseJson() reads
 * the result back to @p s.
 */
std::string escapeJson(std::string_view s);

} // namespace psb

#endif // PSB_UTIL_JSON_HH
