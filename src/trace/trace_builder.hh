/**
 * @file
 * TraceBuilder: the base class synthetic workloads derive from. It
 * implements TraceSource over an internal op queue and exposes emit
 * helpers (load/store/alu/branch) so workload code reads like the
 * algorithm it models. A workload overrides step(), which advances the
 * algorithm by one unit of work and emits the corresponding ops.
 */

#ifndef PSB_TRACE_TRACE_BUILDER_HH
#define PSB_TRACE_TRACE_BUILDER_HH

#include <cstddef>
#include <vector>

#include "trace/micro_op.hh"
#include "trace/trace_source.hh"

namespace psb
{

/**
 * Queue-backed trace source with emit helpers.
 *
 * next() drains the queue, calling step() whenever the queue runs dry.
 * step() returns false when the workload has no more work, ending the
 * trace.
 */
class TraceBuilder : public TraceSource
{
  public:
    bool next(MicroOp &op) override;

    /** Number of ops emitted so far (for sizing sanity checks). */
    uint64_t emitted() const { return _emitted; }

  protected:
    /**
     * Advance the workload one step, emitting its ops.
     * @retval false when the workload is finished.
     */
    virtual bool step() = 0;

    /** Emit a single-cycle integer ALU op. */
    void emitAlu(Addr pc, uint8_t dst, uint8_t src1 = regNone,
                 uint8_t src2 = regNone, OpClass cls = OpClass::IntAlu);

    /** Emit a load of @p size bytes at @p addr into @p dst. */
    void emitLoad(Addr pc, uint8_t dst, Addr addr,
                  uint8_t base_src = regNone, uint8_t size = 8);

    /** Emit a store of @p size bytes of register @p val_src to @p addr. */
    void emitStore(Addr pc, Addr addr, uint8_t val_src,
                   uint8_t base_src = regNone, uint8_t size = 8);

    /** Emit a conditional branch. */
    void emitBranch(Addr pc, bool taken, Addr target,
                    uint8_t src = regNone);

    /** Emit @p n dependence-free filler ALU ops starting at @p pc. */
    void emitFiller(Addr pc, unsigned n);

  private:
    /** The ops of the current step(), drained from _head; cleared
     *  (keeping its capacity) before the next step(). */
    std::vector<MicroOp> _queue;
    std::size_t _head = 0;
    uint64_t _emitted = 0;
    bool _done = false;
};

} // namespace psb

#endif // PSB_TRACE_TRACE_BUILDER_HH
