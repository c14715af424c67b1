#include "util/logging.hh"

#include <cstdio>
#include <cstdlib>

#include "util/thread_annotations.hh"

namespace psb
{

namespace
{

/**
 * Serializes whole report lines. Call sites are reachable from
 * sweep-engine worker threads (sim/sweep.hh); without the lock the
 * three stdio writes below could interleave between threads and shred
 * the prefix/message/newline structure mid-line.
 */
Mutex g_reportMu;

void
vreport(FILE *stream, const char *prefix, const char *fmt, va_list args)
    PSB_EXCLUDES(g_reportMu)
{
    MutexLock lock(g_reportMu);
    std::fprintf(stream, "%s", prefix);
    std::vfprintf(stream, fmt, args);
    std::fprintf(stream, "\n");
    std::fflush(stream);
}

} // namespace

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport(stderr, "panic: ", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport(stderr, "fatal: ", fmt, args);
    va_end(args);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport(stderr, "warn: ", fmt, args);
    va_end(args);
}

} // namespace psb
