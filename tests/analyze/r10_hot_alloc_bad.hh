/**
 * @file
 * psb_analyze fixture: R10 hot-path allocation (bad). Four
 * allocations must be reported from the PSB_HOT_PATH root: a direct
 * operator new in the root itself, std::vector growth calls on two
 * members (one whose nested template type ends in the '>>' token),
 * and a make_unique reached through a transitive two-hop call chain
 * (root -> refill -> grow), exercising the call-graph reachability
 * rather than a per-function scan. The self-test requires this file
 * to report exactly four R10 findings, so the suppression round trip
 * asserts N -> N-1.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace fixture
{

struct Slot
{
    int payload = 0;
};

class HotAllocator
{
  public:
    /** Per-cycle root: everything reachable from here must be
     *  allocation-free. */
    PSB_HOT_PATH void step(int v);

  private:
    void refill(int v);
    void grow(int v);

    std::vector<int> _log;
    std::vector<std::pair<int, uint64_t>> _history;
    Slot *_spare = nullptr;
    std::unique_ptr<Slot> _owned;
};

inline void
HotAllocator::step(int v)
{
    _spare = new Slot();
    _log.push_back(v);
    _history.emplace_back(v, uint64_t(v));
    refill(v);
}

/** One hop down: still hot, delegates further. */
inline void
HotAllocator::refill(int v)
{
    if (v > 0)
        grow(v);
}

/** Two hops down: the allocation here is only visible through the
 *  interprocedural call graph. */
inline void
HotAllocator::grow(int v)
{
    _owned = std::make_unique<Slot>();
    _owned->payload = v;
}

} // namespace fixture
