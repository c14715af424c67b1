/**
 * @file
 * psb_analyze fixture: R3 counterpart (clean). The same shapes made
 * deterministic: an ordered map for the accumulating walk, and a
 * value key instead of a pointer key. The self-test requires this
 * file to report no findings.
 */

#pragma once

#include <cstdint>
#include <map>

namespace fixture
{

class OrderedTable
{
  public:
    /** std::map visits keys in sorted order — deterministic. */
    void
    exportAll()
    {
        for (const auto &kv : _table) {
            _exported += kv.second;
        }
    }

  private:
    std::map<uint64_t, uint64_t> _table;
    uint64_t _exported = 0;
};

class PendingQueue
{
  private:
    // Keyed by stable request id, not by allocation address.
    std::map<uint64_t, int> _pending;
};

} // namespace fixture
