/**
 * @file
 * psb_analyze fixture: R3 determinism (bad). Exercises both R3
 * detectors: the banned unordered container (here iterated into
 * observable state), and a pointer-keyed container hidden behind a
 * type alias. The self-test requires this file to report exactly
 * {R3}, two findings.
 */

#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>

namespace fixture
{

class HashedTable
{
  public:
    /** Visit order is hash-seed noise, and the body accumulates into
     *  a member that feeds the stats export. */
    void
    exportAll()
    {
        for (const auto &kv : _table) {
            _exported += kv.second;
        }
    }

  private:
    std::unordered_map<uint64_t, uint64_t> _table;
    uint64_t _exported = 0;
};

struct Request
{
    int id = 0;
};

/** The pointer key hides behind an alias. */
using RequestKey = Request *;

class PendingQueue
{
  private:
    // Keyed by allocation address: iteration order is allocator noise.
    std::map<RequestKey, int> _pending;
};

} // namespace fixture
