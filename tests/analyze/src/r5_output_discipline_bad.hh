/**
 * @file
 * psb_analyze fixture: R5 output discipline (bad). Raw stdout/stderr
 * writes in simulation code bypass util/logging and util/trace; the
 * fixture sits under src/ because the ban is scoped there. The
 * self-test requires exactly the pinned R5 count.
 */

#pragma once

#include <cstdio>
#include <iostream>

namespace fixture
{

inline void
dumpState(int v)
{
    printf("state %d\n", v);      // R5: printf()
    std::printf("state %d\n", v); // R5: std::printf()
    puts("state");                // R5: puts()
    std::cout << v << "\n";       // R5: std::cout
    std::cerr << v << "\n";       // R5: std::cerr
}

} // namespace fixture
