/**
 * @file
 * psb-report — render one consolidated, deterministic run report from
 * the observability documents the simulator family produces.
 *
 * Usage:
 *   psb-report --stats-json FILE [options]
 *   psb-report --sweep FILE [options]
 *     --stats-json FILE      flat stats dump (required without --sweep)
 *     --intervals FILE       --interval-stats JSONL series
 *     --sweep FILE           psb-sweep merged document; renders the
 *                            spec's "tables" (every paper figure)
 *     --golden FILE          golden stats file (drift summary)
 *     --title STR            report heading
 *     --md PATH              write Markdown report ("-" = stdout)
 *     --html PATH            write HTML report ("-" = stdout)
 *     --help
 *
 * At least one of --md / --html is required. The output is a pure
 * function of the input documents (see sim/run_report.hh), so two
 * invocations over identical files are byte-identical — CI diffs
 * exactly this. Exit status: 0 = ok, 2 = usage, I/O, or parse error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/run_report.hh"

namespace
{

struct Options
{
    psb::RunReportInputs inputs;
    std::string statsPath;
    std::string intervalsPath;
    std::string sweepPath;
    std::string goldenPath;
    std::string mdPath;
    std::string htmlPath;
};

[[noreturn]] void
usage(int code)
{
    std::fputs(
        "psb-report: render a consolidated run report\n"
        "  psb-report --stats-json FILE [--intervals FILE]\n"
        "             [--sweep FILE] [--golden FILE]\n"
        "  psb-report --sweep FILE [...]   (no --stats-json needed)\n"
        "             [--title STR] [--md PATH] [--html PATH]\n"
        "  At least one of --md / --html; \"-\" writes to stdout.\n",
        code == 0 ? stdout : stderr);
    std::exit(code);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "psb-report: %s needs a value\n",
                             flag.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (flag == "--help" || flag == "-h")
            usage(0);
        else if (flag == "--stats-json")
            opts.statsPath = value();
        else if (flag == "--intervals")
            opts.intervalsPath = value();
        else if (flag == "--sweep")
            opts.sweepPath = value();
        else if (flag == "--golden")
            opts.goldenPath = value();
        else if (flag == "--title")
            opts.inputs.title = value();
        else if (flag == "--md")
            opts.mdPath = value();
        else if (flag == "--html")
            opts.htmlPath = value();
        else {
            std::fprintf(stderr, "psb-report: unknown argument '%s'\n",
                         flag.c_str());
            usage(2);
        }
    }
    if (opts.statsPath.empty() && opts.sweepPath.empty()) {
        std::fputs("psb-report: --stats-json is required without "
                   "--sweep\n",
                   stderr);
        usage(2);
    }
    if (opts.mdPath.empty() && opts.htmlPath.empty()) {
        std::fputs("psb-report: need at least one of --md / --html\n",
                   stderr);
        usage(2);
    }
    return opts;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "psb-report: cannot read '%s'\n",
                     path.c_str());
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

/** Load @p path into @p out when the flag was given at all. */
bool
readOptional(const std::string &path, std::string &out)
{
    return path.empty() || readFile(path, out);
}

bool
writeOutput(const std::string &path, const std::string &text)
{
    if (path == "-") {
        std::fwrite(text.data(), 1, text.size(), stdout);
        return true;
    }
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "psb-report: cannot write '%s'\n",
                     path.c_str());
        return false;
    }
    out.write(text.data(), std::streamsize(text.size()));
    return bool(out);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    if (!readOptional(opts.statsPath, opts.inputs.statsJson) ||
        !readOptional(opts.intervalsPath, opts.inputs.intervalsJsonl) ||
        !readOptional(opts.sweepPath, opts.inputs.sweepJson) ||
        !readOptional(opts.goldenPath, opts.inputs.goldenJson))
        return 2;

    std::string error;
    if (!opts.mdPath.empty()) {
        std::string text;
        if (!psb::renderRunReport(opts.inputs,
                                  psb::ReportFormat::Markdown, text,
                                  error)) {
            std::fprintf(stderr, "psb-report: %s\n", error.c_str());
            return 2;
        }
        if (!writeOutput(opts.mdPath, text))
            return 2;
    }
    if (!opts.htmlPath.empty()) {
        std::string text;
        if (!psb::renderRunReport(opts.inputs, psb::ReportFormat::Html,
                                  text, error)) {
            std::fprintf(stderr, "psb-report: %s\n", error.c_str());
            return 2;
        }
        if (!writeOutput(opts.htmlPath, text))
            return 2;
    }
    return 0;
}
