/**
 * @file
 * psb_analyze fixture: R3 banned-source counterpart (clean). A seeded
 * generator, the time_t type without the clock, and names that only
 * contain the banned ones; the self-test requires no findings.
 */

#pragma once

#include <cstdint>
#include <ctime>
#include <random>

namespace fixture
{

inline uint64_t
seededDraw(uint64_t seed)
{
    // Not time(nullptr): simulated time lives in the Cycle domain.
    std::mt19937_64 gen(seed);
    std::time_t stamp = 0;
    uint64_t operand = gen();
    return operand + uint64_t(stamp);
}

} // namespace fixture
