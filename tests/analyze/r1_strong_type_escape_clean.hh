/**
 * @file
 * psb_analyze fixture: R1 counterpart (clean). The same interfaces as
 * the bad fixture, expressed in the strong domain types; the
 * self-test requires this file to report no findings.
 */

#pragma once

#include <cstdint>

namespace fixture
{

// Addresses travel as ByteAddr, not uint64_t.
void prefetchTo(ByteAddr addr, unsigned depth);

// Cycles travel as Cycle.
inline bool
busyAt(Cycle cycle)
{
    return cycle != Cycle{};
}

// An alias of a strong type is still the strong type.
using Stamp = Cycle;
void setWhen(Stamp cycle);

// Block distance stays inside the domain operators.
inline BlockDelta
missDistance(BlockAddr a, BlockAddr b)
{
    return a - b;
}

// Cycle arithmetic through the CycleDelta operators.
inline Cycle
retireAt(Cycle dispatch, CycleDelta latency)
{
    return dispatch + latency;
}

} // namespace fixture
