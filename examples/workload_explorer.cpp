/**
 * @file
 * Run every synthetic benchmark analog on every paper configuration
 * and print a compact matrix — a one-binary tour of the evaluation.
 *
 * Usage: workload_explorer [instructions] [workload...]
 *   instructions  per-simulation measurement length (default 300000)
 *   workload...   subset of the registry (default: the full registry,
 *                 paper six plus graph/hashjoin/logscan/fuzz)
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/simulator.hh"
#include "util/table_printer.hh"
#include "workloads/workload.hh"

int
main(int argc, char **argv)
{
    uint64_t instructions = 300'000;
    if (argc > 1 && !psb::parseUInt(argv[1], instructions)) {
        std::fprintf(stderr,
                     "workload_explorer: bad instruction count '%s'\n",
                     argv[1]);
        return 1;
    }

    std::vector<std::string> names;
    for (int i = 2; i < argc; ++i)
        names.push_back(argv[i]);
    if (names.empty())
        names = psb::allWorkloadNames();

    psb::TablePrinter table;
    table.addRow({"workload", "config", "IPC", "L1D MR", "load lat",
                  "pf acc", "bus util"});

    for (const std::string &name : names) {
        for (psb::PaperConfig cfg : psb::paperConfigs) {
            auto trace = psb::makeWorkload(name);
            if (!trace) {
                std::fprintf(stderr, "unknown workload '%s'\n",
                             name.c_str());
                return 1;
            }
            psb::SimConfig sim_cfg = psb::makePaperConfig(cfg);
            sim_cfg.maxInstructions = instructions;
            psb::Simulator sim(sim_cfg, *trace);
            sim.run();
            const psb::CoreStats &core = sim.core().stats();
            double bus_util = sim.statsRegistry()
                                  .snapshot()
                                  .at("sim.l1_l2_bus_util")
                                  .real;

            table.addRow({name, psb::paperConfigName(cfg),
                          psb::TablePrinter::fmt(core.ipc(), 3),
                          psb::TablePrinter::fmt(core.l1dMissRate(), 4),
                          psb::TablePrinter::fmt(
                              core.loadLatency.mean(), 2),
                          psb::TablePrinter::fmt(
                              100.0 * sim.prefetcher().accuracy(), 1) +
                              "%",
                          psb::TablePrinter::fmt(100.0 * bus_util, 1) +
                              "%"});
        }
    }
    table.print();
    return 0;
}
