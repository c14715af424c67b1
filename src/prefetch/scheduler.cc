#include "prefetch/scheduler.hh"

#include "util/logging.hh"
#include "util/stats.hh"
#include "util/trace.hh"

namespace psb
{

const char *
schedPolicyName(SchedPolicy policy)
{
    switch (policy) {
      case SchedPolicy::RoundRobin: return "RR";
      case SchedPolicy::Priority:   return "Priority";
    }
    return "Unknown";
}

BufferScheduler::BufferScheduler(SchedPolicy policy, unsigned num_buffers,
                                 const char *label)
    : _policy(policy), _numBuffers(num_buffers), _label(label),
      _cycle(num_buffers)
{
    psb_assert(num_buffers > 0, "scheduler needs at least one buffer");
}

void
BufferScheduler::registerStats(StatsRegistry &reg,
                               const std::string &prefix) const
{
    reg.addScalar(prefix + ".grants", &_grants);
    reg.addScalar(prefix + ".no_candidate", &_noCandidate);
}

} // namespace psb
