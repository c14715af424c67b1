/**
 * @file
 * psb_analyze fixture: R1 round trips through locals (bad). Two must
 * be reported: two .raw() escapes parked in locals and recombined
 * with arithmetic in a later statement (R1b), and an escaped value
 * that drifts through a local, picks up arithmetic, and re-enters
 * the strong type via its constructor (R1c). Every statement keeps
 * at most one direct .raw() call, so only R1's raw carriers (a local
 * initialised or assigned from .raw() counts like the call) see
 * them. The self-test requires exactly {R1}, with two findings so the
 * suppression round trip asserts 2 -> 1.
 */

#pragma once

#include <cstdint>

namespace fixture
{

class Addr; // strong type, opaque here: only .raw() matters

constexpr uint64_t kLineBytes = 64;

/** Both operands escaped in earlier statements; the subtraction then
 *  happens in the raw domain. */
inline uint64_t
spanBytes(const Addr &first, const Addr &last)
{
    uint64_t lo = first.raw();
    uint64_t hi = last.raw();
    return hi - lo; // finding 1: raw carriers recombined
}

/** The escape drifts through a local and re-enters the strong type
 *  after raw arithmetic. */
inline Addr
nextLine(const Addr &base)
{
    uint64_t cursor = base.raw();
    cursor = cursor + kLineBytes;
    return Addr(cursor); // finding 2: re-entry after raw arithmetic
}

} // namespace fixture
