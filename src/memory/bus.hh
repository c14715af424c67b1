/**
 * @file
 * Occupancy-based bus model. The paper rewrote SimpleScalar's memory
 * hierarchy "to better model bus occupancy, bandwidth, and pipelining"
 * and states that "only one request (miss or prefetch) can be
 * processed by the bus from the L1 to the L2 cache at a time": the bus
 * is a serial channel. Both the L1<->L2 bus (8 B/cycle) and the
 * L2<->memory bus (4 B/cycle) are instances.
 *
 * A transaction occupies the channel for one request beat plus the
 * payload transfer time, charged contiguously when the transaction
 * starts; the device-side latency (L2 pipeline, DRAM access) is
 * modelled by the caller on top of the returned slot. Back-to-back
 * transactions queue, so demand misses experience bus contention and
 * prefetches are naturally throttled to idle bus slots via freeAt() —
 * the paper's issue rule ("only allow prefetches to occur if the
 * L1-L2 bus is free at the start of any given cycle").
 */

#ifndef PSB_MEMORY_BUS_HH
#define PSB_MEMORY_BUS_HH

#include <cstdint>
#include <string>

#include "trace/micro_op.hh"

namespace psb
{

class StatsRegistry;

/** The bus cycles granted to one transaction. */
struct BusSlot
{
    Cycle start{}; ///< first cycle (the request beat)
    Cycle end{};   ///< one past the last transfer cycle
};

/** A serial, single-transaction-at-a-time bus. */
class Bus
{
  public:
    /**
     * @param bytes_per_cycle Transfer bandwidth. Must be non-zero.
     * @param name Bus name for trace events ("l1l2", "l2mem").
     */
    explicit Bus(unsigned bytes_per_cycle, const char *name = "bus");

    /** True iff no transaction occupies the bus at cycle @p now. */
    bool freeAt(Cycle now) const { return _busyUntil <= now; }

    /**
     * How long the bus stays occupied from cycle @p now on: the gap to
     * its next free cycle, zero when it is free at @p now.
     */
    CycleDelta
    busyFor(Cycle now) const
    {
        return freeAt(now) ? CycleDelta{} : _busyUntil - now;
    }

    /**
     * How many of the @p n cycles starting at @p from the bus is free
     * for, in closed form. Valid only while no new transaction is
     * queued during the span; the simulator's fast-forward path uses
     * it to replay bus-gated idle cycles without ticking each one.
     */
    uint64_t
    freeCyclesIn(Cycle from, uint64_t n) const
    {
        if (_busyUntil <= from)
            return n;
        uint64_t busy = (_busyUntil - from).raw();
        return busy >= n ? 0 : n - busy;
    }

    /**
     * Queue a transaction carrying @p payload_bytes: one request beat
     * plus the payload transfer, starting no earlier than @p earliest
     * and after any transaction already queued.
     */
    BusSlot transact(Cycle earliest, unsigned payload_bytes);

    /** Cycles to move @p bytes across this bus (excl.\ request beat). */
    CycleDelta transferCycles(unsigned bytes) const;

    /** Cycles this bus has spent occupied. */
    uint64_t busyCycles() const { return _busyCycles; }

    /** Number of transactions carried. */
    uint64_t transfers() const { return _transfers; }

    void
    resetStats()
    {
        _busyCycles = 0;
        _transfers = 0;
    }

    /** Register busy_cycles and transfers under @p prefix. */
    void registerStats(StatsRegistry &reg, const std::string &prefix) const;

  private:
    unsigned _bytesPerCycle;
    const char *_name;
    Cycle _busyUntil{};
    uint64_t _busyCycles = 0;
    uint64_t _transfers = 0;
};

} // namespace psb

#endif // PSB_MEMORY_BUS_HH
