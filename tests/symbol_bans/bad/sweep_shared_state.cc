/**
 * @file
 * symbol_bans fixture (bad): writable psb:: data in a sweep object,
 * which every sweep worker would share unsynchronized.
 */

#include <cstdint>

namespace psb
{

uint64_t g_completedJobs = 0; // R6: .bss
unsigned g_retryBudget = 3;   // R6: .data
int g_counter;                // R6: .bss, no initializer

uint64_t
recordAttempt(int attempt)
{
    static int s_attempts = 0; // R6: function-local static
    s_attempts += attempt;
    ++g_counter;
    g_completedJobs += g_retryBudget;
    return g_completedJobs + static_cast<uint64_t>(s_attempts);
}

} // namespace psb
