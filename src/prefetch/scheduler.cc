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
    : _policy(policy), _label(label), _cycle(num_buffers)
{
    psb_assert(num_buffers > 0 && num_buffers <= 64,
               "a candidate mask holds 1 to 64 buffers");
}

void
BufferScheduler::registerStats(StatsRegistry &reg,
                               const std::string &prefix) const
{
    reg.addScalar(prefix + ".grants", &_grants);
    reg.addScalar(prefix + ".no_candidate", &_noCandidate);
}

} // namespace psb
