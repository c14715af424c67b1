#include "sim/report.hh"

#include <cstdio>
#include <sstream>

#include "util/stats_json.hh"

namespace psb
{

std::string
formatReport(const std::string &title, const SimResult &r)
{
    char buf[256];
    std::ostringstream out;
    out << "=== " << title << " ===\n";

    auto line = [&](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof(buf), fmt, args...);
        out << "  " << buf << "\n";
    };

    line("instructions      %llu",
         (unsigned long long)r.core.instructions);
    line("cycles            %llu", (unsigned long long)r.core.cycles);
    line("IPC               %.3f", r.ipc);
    line("loads / stores    %.1f%% / %.1f%%", r.pctLoads, r.pctStores);
    line("L1D miss rate     %.4f (in-flight counted as miss)",
         r.l1dMissRate);
    line("avg load latency  %.2f cycles", r.avgLoadLatency);
    line("branch mispredict %llu of %llu",
         (unsigned long long)r.core.mispredicts,
         (unsigned long long)r.core.branches);
    line("L1-L2 bus util    %.1f%%", 100.0 * r.l1L2BusUtil);
    line("L2-mem bus util   %.1f%%", 100.0 * r.l2MemBusUtil);
    if (r.prefetchIssued > 0) {
        line("prefetches        %llu issued, %llu used (%.1f%% accuracy)",
             (unsigned long long)r.prefetchIssued,
             (unsigned long long)r.prefetch.hits,
             100.0 * r.prefetchAccuracy);
        line("SB hits           %llu of %llu L1D misses serviced",
             (unsigned long long)r.core.sbServiced,
             (unsigned long long)r.core.l1dMisses);
        line("allocations       %llu of %llu requests",
             (unsigned long long)r.prefetch.allocations,
             (unsigned long long)r.prefetch.allocationRequests);
    }
    return out.str();
}

void
printReport(const std::string &title, const SimResult &r)
{
    std::fputs(formatReport(title, r).c_str(), stdout);
}

std::string
formatStatsReport(const std::string &title, const StatsRegistry &reg)
{
    auto snapshot = reg.snapshot();

    size_t width = 0;
    for (const auto &[path, value] : snapshot) {
        (void)value;
        if (path.size() > width)
            width = path.size();
    }

    std::ostringstream out;
    out << "=== " << title << " ===\n";
    for (const auto &[path, value] : snapshot) {
        out << "  " << path
            << std::string(width - path.size() + 2, ' ');
        if (value.kind == StatValue::Kind::Scalar) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%llu",
                          (unsigned long long)value.scalar);
            out << buf;
        } else {
            out << formatStatReal(value.real);
        }
        out << "\n";
    }
    return out.str();
}

} // namespace psb
