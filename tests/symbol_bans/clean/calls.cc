/**
 * @file
 * symbol_bans fixture (clean): a seeded generator, the time_t type
 * without the clock, targeted writes (fprintf, snprintf, fputs) and a
 * sink's own printf() member. No R3 or R5 finding.
 */

#include <cstdint>
#include <cstdio>
#include <ctime>
#include <random>
#include <string>

namespace psb
{

struct Sink
{
    std::string text;
    void printf(const char *s);
};

void
Sink::printf(const char *s)
{
    text += s;
}

uint64_t
writeRow(std::FILE *out, Sink &sink, uint64_t seed)
{
    std::mt19937_64 gen(seed);
    std::time_t stamp = 0;
    uint64_t v = gen() + static_cast<uint64_t>(stamp);
    std::fprintf(out, "| %llu |\n", static_cast<unsigned long long>(v));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    std::fputs(buf, out);
    sink.printf(buf);
    return v;
}

} // namespace psb
