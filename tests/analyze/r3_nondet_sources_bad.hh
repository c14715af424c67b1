/**
 * @file
 * psb_analyze fixture: R3's flat ban on nondeterminism sources (bad).
 * A hash container reached only through a *parameter* type, iterated
 * straight into a stats sink, and a pointer's numeric value used as
 * a key. Neither needs a type resolution or a dataflow chain to
 * catch: the tokens themselves are banned, one finding per line.
 * Wall-clock reads are the symbol gate's, read from the built
 * objects (tests/symbol_bans/bad/plain_calls.cc). The self-test
 * requires exactly {R3}, two findings.
 */

#pragma once

#include <cstdint>
#include <unordered_map>

namespace fixture
{

/** Minimal stand-in for the StatsRegistry sink surface. */
class Recorder
{
  public:
    void sample(uint64_t v);
};

struct Request
{
    uint64_t id = 0;
};

/** Visit order of `table` is hash-seed noise, and every visit lands
 *  in the histogram sink unsorted. */
inline void
exportCounts(Recorder &rec,
             const std::unordered_map<uint64_t, uint64_t> &table)
{
    for (const auto &kv : table) {
        rec.sample(kv.second);
    }
}

/** The key is the request's allocation address. */
inline uint64_t
requestKey(const Request *req)
{
    return uint64_t(reinterpret_cast<uintptr_t>(req));
}

} // namespace fixture
