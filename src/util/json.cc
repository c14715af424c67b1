#include "util/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace psb
{

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

bool
JsonValue::asUInt(uint64_t &out) const
{
    if (kind != Kind::Number || number < 0.0)
        return false;
    double integral = 0.0;
    if (std::modf(number, &integral) != 0.0)
        return false;
    out = uint64_t(integral);
    return true;
}

bool
JsonValue::asConfigToken(std::string &out) const
{
    switch (kind) {
      case Kind::Number:
        out = raw;
        return true;
      case Kind::String:
        out = str;
        return true;
      case Kind::Bool:
        out = boolean ? "true" : "false";
        return true;
      default:
        return false;
    }
}

namespace
{

/** Recursive-descent cursor with offset-stamped errors. */
struct Parser
{
    const std::string &text;
    size_t pos = 0;
    std::string error;
    int depth = 0;

    static constexpr int maxDepth = 64;

    bool
    fail(const std::string &what)
    {
        std::ostringstream msg;
        msg << what << " at offset " << pos;
        error = msg.str();
        return false;
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        size_t n = 0;
        while (word[n])
            ++n;
        if (text.compare(pos, n, word) != 0)
            return false;
        pos += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (pos >= text.size() || text[pos] != '"')
            return fail("expected string");
        ++pos;
        out.clear();
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c == '\\') {
                if (pos >= text.size())
                    return fail("dangling escape");
                char esc = text[pos++];
                switch (esc) {
                  case '"':  out.push_back('"'); break;
                  case '\\': out.push_back('\\'); break;
                  case '/':  out.push_back('/'); break;
                  case 'n':  out.push_back('\n'); break;
                  case 't':  out.push_back('\t'); break;
                  case 'r':  out.push_back('\r'); break;
                  case 'u':
                    if (!parseCodePoint(out))
                        return false;
                    break;
                  default:
                    return fail(std::string("unsupported escape '\\") +
                                esc + "'");
                }
            } else {
                out.push_back(c);
            }
        }
        if (pos >= text.size())
            return fail("unterminated string");
        ++pos;
        return true;
    }

    /** The four hex digits of a \u escape, appended to @p out as
     *  UTF-8. Surrogates (characters beyond the BMP) are refused: no
     *  writer in the tree emits them. */
    bool
    parseCodePoint(std::string &out)
    {
        for (size_t i = pos; i < pos + 4; ++i) {
            if (i >= text.size() ||
                !std::isxdigit(static_cast<unsigned char>(text[i])))
                return fail("\\u escape needs four hex digits");
        }
        const auto cp = uint32_t(
            std::strtoul(text.substr(pos, 4).c_str(), nullptr, 16));
        if (cp >= 0xd800 && cp <= 0xdfff)
            return fail("unsupported surrogate \\u escape");
        pos += 4;
        if (cp < 0x80) {
            out.push_back(char(cp));
        } else if (cp < 0x800) {
            out.push_back(char(0xc0 | (cp >> 6)));
            out.push_back(char(0x80 | (cp & 0x3f)));
        } else {
            out.push_back(char(0xe0 | (cp >> 12)));
            out.push_back(char(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(char(0x80 | (cp & 0x3f)));
        }
        return true;
    }

    bool
    parseNumber(JsonValue &out)
    {
        size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-'))
            ++pos;
        if (pos == start)
            return fail("expected number");
        out.kind = JsonValue::Kind::Number;
        out.raw = text.substr(start, pos - start);
        char *end = nullptr;
        out.number = std::strtod(out.raw.c_str(), &end);
        if (end != out.raw.c_str() + out.raw.size())
            return fail("malformed number '" + out.raw + "'");
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (++depth > maxDepth)
            return fail("nesting too deep");
        skipSpace();
        if (pos >= text.size())
            return fail("unexpected end of input");
        bool ok = false;
        char c = text[pos];
        if (c == '{') {
            ok = parseObject(out);
        } else if (c == '[') {
            ok = parseArray(out);
        } else if (c == '"') {
            out.kind = JsonValue::Kind::String;
            ok = parseString(out.str);
        } else if (c == 't') {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            ok = literal("true") || fail("bad literal");
        } else if (c == 'f') {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            ok = literal("false") || fail("bad literal");
        } else if (c == 'n') {
            out.kind = JsonValue::Kind::Null;
            ok = literal("null") || fail("bad literal");
        } else {
            ok = parseNumber(out);
        }
        --depth;
        return ok;
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos; // '{'
        skipSpace();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipSpace();
            std::string key;
            if (!parseString(key))
                return false;
            if (out.find(key) != nullptr)
                return fail("duplicate key \"" + key + "\"");
            skipSpace();
            if (pos >= text.size() || text[pos] != ':')
                return fail("expected ':'");
            ++pos;
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.object.emplace_back(std::move(key), std::move(value));
            skipSpace();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                continue;
            }
            break;
        }
        skipSpace();
        if (pos >= text.size() || text[pos] != '}')
            return fail("expected '}'");
        ++pos;
        return true;
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos; // '['
        skipSpace();
        if (pos < text.size() && text[pos] == ']') {
            ++pos;
            return true;
        }
        while (true) {
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.array.push_back(std::move(value));
            skipSpace();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                continue;
            }
            break;
        }
        skipSpace();
        if (pos >= text.size() || text[pos] != ']')
            return fail("expected ']'");
        ++pos;
        return true;
    }
};

} // namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string &error)
{
    out = JsonValue{};
    Parser p{text, 0, {}, 0};
    if (!p.parseValue(out)) {
        error = p.error;
        return false;
    }
    p.skipSpace();
    if (p.pos != text.size()) {
        p.fail("trailing garbage after document");
        error = p.error;
        return false;
    }
    return true;
}

std::string
escapeJson(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              unsigned(static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

} // namespace psb
