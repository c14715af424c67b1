/**
 * @file
 * symbol_bans fixture (clean): a sweep object whose only namespace-scope
 * data is constant — integer and pointer tables (the latter land in
 * .data.rel.ro), a function-local static const — plus per-job state.
 */

#include <cstdint>

namespace psb
{

constexpr uint64_t kMaxAttempts = 3;
extern const unsigned kBackoff[4];
const unsigned kBackoff[4] = {1, 2, 4, 8};

namespace
{

constexpr const char *kStates[] = {"queued", "running", "done"};

} // namespace

struct JobState
{
    uint64_t attempts = 0;
};

const char *
describe(uint64_t n, unsigned attempt)
{
    static const uint64_t kScale[] = {1, 10, 100};
    JobState job;
    for (uint64_t i = 0; i < n && job.attempts < kMaxAttempts; ++i)
        job.attempts += kScale[attempt % 3] + kBackoff[attempt % 4];
    return kStates[job.attempts % 3];
}

} // namespace psb
