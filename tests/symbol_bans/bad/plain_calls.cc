/**
 * @file
 * symbol_bans fixture (bad): the plain spellings of R3's banned calls
 * and R5's raw output, one undefined symbol each.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <random>
#include <sys/time.h>

namespace psb
{

unsigned
noisySeed()
{
    srand(42);                                 // R3: srand
    auto s = static_cast<unsigned>(rand());    // R3: rand
    s += static_cast<unsigned>(time(nullptr)); // R3: time
    std::random_device rd;                     // R3: random_device
    s += rd();
    timeval tv{};
    gettimeofday(&tv, nullptr); // R3: gettimeofday
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);        // R3: clock_gettime
    auto t0 = std::chrono::steady_clock::now(); // R3: chrono clock
    printf("state %u\n", s);                    // R5: printf
    puts("state");                              // R5: puts
    std::cout << s << "\n";                     // R5: std::cout
    std::cerr << s << "\n";                     // R5: std::cerr
    return s + static_cast<unsigned>(t0.time_since_epoch().count()) +
           static_cast<unsigned>(tv.tv_usec + ts.tv_nsec);
}

} // namespace psb
