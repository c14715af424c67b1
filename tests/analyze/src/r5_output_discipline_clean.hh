/**
 * @file
 * psb_analyze fixture: R5 counterpart (clean). Targeted stream writes
 * stay legal — a report row into a caller's FILE*, formatting into a
 * buffer, a sink object's own printf() member — only the raw
 * stdout/stderr spellings are banned. The self-test requires no
 * findings.
 */

#pragma once

#include <cstdio>

namespace fixture
{

template <typename Sink>
void
writeRow(std::FILE *out, Sink &sink, int v)
{
    std::fprintf(out, "| %d |\n", v);
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%d", v);
    std::fputs(buf, out);
    sink.printf(buf);
}

} // namespace fixture
