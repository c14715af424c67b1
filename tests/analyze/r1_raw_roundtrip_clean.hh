/**
 * @file
 * psb_analyze fixture: R1 round trips through locals (clean). The
 * same computations as the bad twin with the math kept inside the
 * strong types: .raw() appears only to extract a final scalar —
 * never as an operand of further arithmetic — and stepping uses the
 * delta types. Two locals that must not count as raw carriers with
 * arithmetic: a width extracted by `(last - first).raw()` and
 * re-wrapped, and a strong-typed local built from .raw(). The
 * self-test requires this file to report nothing.
 */

#pragma once

#include <cstdint>

namespace fixture
{

class Addr;       // strong types, opaque here
class BlockDelta; // (difference type of Addr)

/** The subtraction stays inside the strong types; .raw() only
 *  extracts the finished width. */
inline uint64_t
spanBytes(const Addr &first, const Addr &last)
{
    return (last - first).raw();
}

/** The finished width parked in a local and re-wrapped: the carrier
 *  did no raw arithmetic, so the constructor is not a round trip. */
inline BlockDelta
spanDelta(const Addr &first, const Addr &last)
{
    uint64_t span = (last - first).raw();
    return BlockDelta(span);
}

/** A strong-typed local built from .raw() is no raw carrier: the
 *  step after it is the strong type's own arithmetic. */
inline uint64_t
nextLineRaw(const Addr &first)
{
    Addr base = Addr(first.raw() & ~uint64_t(63));
    return (base + BlockDelta(1)).raw();
}

/** Strong-typed stepping: no raw detour at all. */
inline Addr
nextLine(const Addr &base)
{
    return base + BlockDelta(1);
}

} // namespace fixture
