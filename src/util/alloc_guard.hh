/**
 * @file
 * Runtime cross-check for the hot-path no-allocation rule (R10).
 *
 * When the build defines PSB_ALLOC_GUARD (CMake option of the same
 * name; the `alloc-guard` preset turns it on), alloc_guard.cc
 * replaces the global operator new/delete family with checking
 * interposers. A NoAllocScope then audits a region of code: when the
 * guard is *armed*, a single allocation performed on the owning
 * thread while the scope is open (and not paused) is a fatal error
 * naming the region.
 *
 * The simulator wraps its steady-state cycle loop (after warm-up) in
 * PSB_NO_ALLOC_SCOPE, and pauses the audit around the one legitimate
 * allocator: workload trace generation (TraceSource::next), whose
 * synthetic benchmarks run real allocating algorithms by design. The
 * result is a dynamic proof that the per-cycle simulator path —
 * core, caches, TLB, MSHRs, predictors, stream buffers, attribution
 * — performs zero heap allocations in steady state, cross-checking
 * the static call-graph proof of tools/psb_analyze.py (R10).
 *
 * Arming: `psb-sim --assert-no-alloc` (the alloc_guard ctest) or
 * AllocGuard::arm(). Without PSB_ALLOC_GUARD the whole facility
 * compiles to empty inline no-ops.
 *
 * Audit state is thread-local: a sweep worker auditing its own job
 * never sees another worker's allocations.
 */

#ifndef PSB_UTIL_ALLOC_GUARD_HH
#define PSB_UTIL_ALLOC_GUARD_HH

namespace psb
{
namespace AllocGuard
{

/** True when the checking interposers are compiled in. */
bool compiledIn();

/**
 * Make an in-scope allocation fatal (process-wide). The alloc_guard
 * ctest arms the guard; unarmed scopes are inert.
 */
void arm();
bool armed();

#ifdef PSB_ALLOC_GUARD

namespace detail
{
/** Thread-local audit state, mutated by the interposers. */
struct State
{
    int depth = 0;       ///< open NoAllocScope nesting
    int pause = 0;       ///< open PauseScope nesting
    const char *what = nullptr; ///< innermost scope label
};
State &state();
} // namespace detail

/** Audit a region: when armed, forbid heap allocations in it. */
class NoAllocScope
{
  public:
    explicit NoAllocScope(const char *what);
    ~NoAllocScope();
    NoAllocScope(const NoAllocScope &) = delete;
    NoAllocScope &operator=(const NoAllocScope &) = delete;

  private:
    const char *_prevWhat;
};

/** Suspend the innermost audit (workload trace generation). */
class PauseScope
{
  public:
    PauseScope();
    ~PauseScope();
    PauseScope(const PauseScope &) = delete;
    PauseScope &operator=(const PauseScope &) = delete;
};

#else // !PSB_ALLOC_GUARD — everything is a no-op

class NoAllocScope
{
  public:
    explicit NoAllocScope(const char *) {}
};

class PauseScope
{
  public:
    PauseScope() {}
    ~PauseScope() {} // non-trivial: silences unused-variable warnings
};

#endif // PSB_ALLOC_GUARD

} // namespace AllocGuard
} // namespace psb

/** Open a named no-allocation audit scope for the current block. */
#define PSB_NO_ALLOC_SCOPE(what)                  \
    [[maybe_unused]] ::psb::AllocGuard::NoAllocScope \
        psb_no_alloc_scope_(what)

/** Suspend the enclosing audit for the current block. */
#define PSB_ALLOC_GUARD_PAUSE() \
    [[maybe_unused]] ::psb::AllocGuard::PauseScope psb_alloc_guard_pause_

#endif // PSB_UTIL_ALLOC_GUARD_HH
