#include "trace/trace_builder.hh"

namespace psb
{

bool
TraceBuilder::next(MicroOp &op)
{
    while (_head == _queue.size()) {
        _queue.clear();
        _head = 0;
        if (_done)
            return false;
        if (!step()) {
            _done = true;
            if (_queue.empty())
                return false;
        }
    }
    op = _queue[_head++];
    return true;
}

void
TraceBuilder::emitAlu(Addr pc, uint8_t dst, uint8_t src1, uint8_t src2,
                      OpClass cls)
{
    MicroOp op;
    op.pc = pc;
    op.op = cls;
    op.dst = dst;
    op.src1 = src1;
    op.src2 = src2;
    _queue.push_back(op);
    ++_emitted;
}

void
TraceBuilder::emitLoad(Addr pc, uint8_t dst, Addr addr, uint8_t base_src,
                       uint8_t size)
{
    MicroOp op;
    op.pc = pc;
    op.op = OpClass::Load;
    op.dst = dst;
    op.src1 = base_src;
    op.effAddr = addr;
    op.memSize = size;
    _queue.push_back(op);
    ++_emitted;
}

void
TraceBuilder::emitStore(Addr pc, Addr addr, uint8_t val_src,
                        uint8_t base_src, uint8_t size)
{
    MicroOp op;
    op.pc = pc;
    op.op = OpClass::Store;
    op.src1 = val_src;
    op.src2 = base_src;
    op.effAddr = addr;
    op.memSize = size;
    _queue.push_back(op);
    ++_emitted;
}

void
TraceBuilder::emitBranch(Addr pc, bool taken, Addr target, uint8_t src)
{
    MicroOp op;
    op.pc = pc;
    op.op = OpClass::Branch;
    op.src1 = src;
    op.taken = taken;
    op.target = target;
    _queue.push_back(op);
    ++_emitted;
}

void
TraceBuilder::emitFiller(Addr pc, unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        emitAlu(pc + 4 * i, regNone);
}

} // namespace psb
