/**
 * @file
 * The paper's motivating scenario in miniature: a linked-list
 * traversal whose nodes were scatter-allocated, so no fixed stride
 * exists. The demo builds that traversal directly with the public
 * TraceBuilder API (no canned workload), then races four machines:
 *
 *   - no prefetching,
 *   - Jouppi sequential stream buffers (next-block),
 *   - Farkas PC-stride stream buffers,
 *   - predictor-directed stream buffers with the SFM predictor.
 *
 * Sequential and stride buffers chase the wrong addresses; the PSB
 * learns the pointer chain through its Markov table and runs ahead
 * of it. This is Figure 5's pointer-benchmark story in one file.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "sim/simulator.hh"
#include "trace/synthetic_heap.hh"
#include "trace/trace_builder.hh"
#include "util/table_printer.hh"

namespace
{

/** Endless traversal of one scatter-allocated linked list. */
class ListChase : public psb::TraceBuilder
{
  public:
    explicit ListChase(unsigned nodes)
    {
        // Scatter allocations so consecutive nodes share no stride.
        psb::SyntheticHeap heap(psb::Addr{0x10000000},
                                /*scatter_blocks=*/64, /*seed=*/7);
        _nodes.reserve(nodes);
        for (unsigned i = 0; i < nodes; ++i)
            _nodes.push_back(heap.alloc(48, 8));
    }

  protected:
    bool
    step() override
    {
        // while (p) { sum += p->value; p = p->next; }
        constexpr uint8_t r_p = 1;
        constexpr uint8_t r_val = 2;
        constexpr uint8_t r_sum = 3;
        psb::Addr node = _nodes[_pos];
        emitLoad(psb::Addr{0x400000}, r_p, node + 0, r_p); // p = p->next
        emitLoad(psb::Addr{0x400004}, r_val, node + 8, r_p); // p->value
        emitAlu(psb::Addr{0x400008}, r_sum, r_sum, r_val);
        emitAlu(psb::Addr{0x40000c}, r_val, r_val);
        emitBranch(psb::Addr{0x400010}, _pos + 1 < _nodes.size(),
                   psb::Addr{0x400000}, r_p);
        _pos = (_pos + 1) % _nodes.size();
        return true;
    }

  private:
    std::vector<psb::Addr> _nodes;
    size_t _pos = 0;
};

} // namespace

int
main()
{
    struct Machine
    {
        const char *label;
        psb::PrefetcherKind kind;
    };
    const Machine machines[] = {
        {"no prefetch", psb::PrefetcherKind::None},
        {"sequential SB (Jouppi)", psb::PrefetcherKind::Sequential},
        {"PC-stride SB (Farkas)", psb::PrefetcherKind::PcStride},
        {"PSB + SFM (this paper)", psb::PrefetcherKind::Psb},
    };

    psb::TablePrinter table;
    table.addRow({"machine", "IPC", "avg load lat", "pf accuracy",
                  "speedup"});

    double base_ipc = 0.0;
    for (const Machine &m : machines) {
        ListChase trace(1'500); // ~70 KB of nodes, 2x the L1
        psb::SimConfig cfg;
        cfg.prefetcher = m.kind;
        cfg.warmupInstructions = 150'000;
        cfg.maxInstructions = 300'000;
        cfg.harmonize();

        psb::Simulator sim(cfg, trace);
        sim.run();
        const psb::CoreStats &core = sim.core().stats();
        double ipc = core.ipc();
        if (m.kind == psb::PrefetcherKind::None)
            base_ipc = ipc;

        char speedup[32];
        std::snprintf(speedup, sizeof(speedup), "%+.1f%%",
                      base_ipc > 0 ? 100.0 * (ipc / base_ipc - 1.0)
                                   : 0.0);
        table.addRow({m.label, psb::TablePrinter::fmt(ipc, 3),
                      psb::TablePrinter::fmt(core.loadLatency.mean(), 2),
                      psb::TablePrinter::fmt(
                          100.0 * sim.prefetcher().accuracy(), 1) + "%",
                      speedup});
    }

    std::puts("Pointer chase over a scattered linked list "
              "(1500 nodes, ~70 KB):\n");
    table.print();
    std::puts("\nOnly the predictor-directed stream buffers follow the"
              " pointer chain.");
    return 0;
}
