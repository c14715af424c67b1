/**
 * @file
 * psb_analyze fixture: R1 strong-type escapes (bad). Exercises all
 * three R1 sub-detectors; the self-test requires this file to report
 * exactly {R1}.
 */

#pragma once

#include <cstdint>

namespace fixture
{

// R1a: a raw uint64_t parameter named like an address.
void prefetchTo(uint64_t addr, unsigned depth);

// R1a: a raw uint64_t parameter named like a cycle, in a definition.
inline bool
busyAt(uint64_t cycle)
{
    return cycle != 0;
}

// R1a through an alias: resolved, the parameter is a raw uint64_t
// named like a cycle.
using Tick = uint64_t;
void setWhen(Tick cycle);

// R1b: arithmetic combining two .raw() escapes — this subtraction
// belongs to the BlockAddr/BlockDelta operators.
inline uint64_t
missDistance(BlockAddr a, BlockAddr b)
{
    return a.raw() - b.raw();
}

// R1c: a strong-type constructor fed .raw() arithmetic — the value
// escaped the domain and re-enters unchecked.
inline Cycle
retireAt(Cycle dispatch, uint64_t latency)
{
    return Cycle(dispatch.raw() + latency);
}

} // namespace fixture
