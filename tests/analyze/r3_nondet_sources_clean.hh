/**
 * @file
 * psb_analyze fixture: R3's flat ban (clean). The same sink and key
 * as the bad twin, made deterministic: an ordered map whose visit
 * order is the key order, and the request's stable id as its key.
 * The self-test requires this file to report nothing.
 */

#pragma once

#include <cstdint>
#include <map>

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

/** std::map visits keys in sorted order — deterministic. */
inline void
exportCounts(Recorder &rec, const std::map<uint64_t, uint64_t> &table)
{
    for (const auto &kv : table) {
        rec.sample(kv.second);
    }
}

/** A stable id, not an allocation address. */
inline uint64_t
requestKey(const Request *req)
{
    return req->id;
}

} // namespace fixture
