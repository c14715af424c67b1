/**
 * @file
 * Quickstart: simulate one workload on the paper's baseline machine
 * and on predictor-directed stream buffers (ConfAlloc-Priority), then
 * print both run reports (the Markdown psb-report renders) and the
 * speedup.
 *
 * Usage: quickstart [workload] [instructions]
 *   workload      health | burg | deltablue | gs | sis | turb3d
 *                 (default: health)
 *   instructions  measurement-region length (default: 500000)
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/config.hh"
#include "sim/run_report.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

int
main(int argc, char **argv)
{
    std::string workload = argc > 1 ? argv[1] : "health";
    uint64_t instructions = 500'000;
    if (argc > 2 && !psb::parseUInt(argv[2], instructions)) {
        std::fprintf(stderr, "quickstart: bad instruction count '%s'\n",
                     argv[2]);
        return 1;
    }

    // Print the run report of one machine; return its IPC.
    auto run = [&](psb::PaperConfig cfg, const std::string &title) {
        auto trace = psb::makeWorkload(workload);
        if (!trace) {
            std::fprintf(stderr, "unknown workload '%s'\n",
                         workload.c_str());
            std::exit(1);
        }
        psb::SimConfig sim_cfg = psb::makePaperConfig(cfg);
        sim_cfg.maxInstructions = instructions;
        psb::Simulator sim(sim_cfg, *trace);
        sim.run();

        psb::RunReportInputs in;
        in.title = workload + " / " + title;
        in.statsJson = sim.statsJson();
        std::string report, error;
        if (!psb::renderRunReport(in, psb::ReportFormat::Markdown, report,
                                  error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            std::exit(1);
        }
        std::fputs(report.c_str(), stdout);
        return sim.core().stats().ipc();
    };

    double base = run(psb::PaperConfig::Base, "baseline (no prefetching)");
    std::puts("");
    double psb_ipc =
        run(psb::PaperConfig::ConfAllocPriority, "PSB ConfAlloc-Priority");

    double speedup = base > 0.0 ? 100.0 * (psb_ipc / base - 1.0) : 0.0;
    std::printf("\nPSB speedup over baseline: %+.1f%%\n", speedup);
    return 0;
}
