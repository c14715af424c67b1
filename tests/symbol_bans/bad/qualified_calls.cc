/**
 * @file
 * symbol_bans fixture (bad): `std::`-qualified spellings, and a clock
 * named after `using namespace std::chrono`. Each resolves to the same
 * undefined symbol as the plain spelling.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>

namespace psb
{

using namespace std::chrono;

long
qualifiedNoise(int v)
{
    long s = std::rand();                       // R3: rand
    s += static_cast<long>(std::time(nullptr)); // R3: time
    auto t0 = steady_clock::now();              // R3: chrono clock
    std::printf("state %d\n", v);               // R5: printf
    return s + static_cast<long>(t0.time_since_epoch().count());
}

} // namespace psb
