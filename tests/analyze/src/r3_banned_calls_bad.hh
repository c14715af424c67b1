/**
 * @file
 * psb_analyze fixture: R3 banned nondeterminism sources (bad). The
 * fixture sits under src/ because the ban is scoped to simulation
 * code; the self-test requires exactly the pinned R3 count — one per
 * line and source.
 */

#pragma once

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>
#include <sys/time.h>

namespace fixture
{

inline unsigned
noisySeed()
{
    srand(42);                                  // R3: srand()
    unsigned s = unsigned(rand());              // R3: rand()
    s += unsigned(time(nullptr));               // R3: time()
    s += unsigned(std::time(nullptr));          // R3: std::time
    std::random_device rd;                      // R3: random_device
    s += rd();
    struct timeval tv;
    gettimeofday(&tv, nullptr);                 // R3: gettimeofday()
    auto t0 = std::chrono::steady_clock::now(); // R3: chrono clock
    (void)t0;
    return s;
}

} // namespace fixture
