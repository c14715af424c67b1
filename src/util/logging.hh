/**
 * @file
 * Error-reporting and status-message helpers, in the spirit of gem5's
 * base/logging.hh.
 *
 * panic()  — an internal invariant was violated (a simulator bug);
 *            aborts so a debugger or core dump can be attached.
 * fatal()  — the simulation cannot continue because of a user error
 *            (bad configuration, invalid argument); exits with code 1.
 * warn()   — something is modelled approximately but the run continues.
 *
 * Thread safety: call sites are reachable from sweep-engine worker
 * threads, so every function here emits its whole line under one
 * internal Mutex (util/thread_annotations.hh) — concurrent reports
 * never interleave mid-line. The lock discipline is annotated for
 * clang -Wthread-safety and audited by rule R8 (tools/psb_analyze.py).
 */

#ifndef PSB_UTIL_LOGGING_HH
#define PSB_UTIL_LOGGING_HH

#include <atomic>
#include <cstdarg>

namespace psb
{

/** Print a formatted message prefixed with "panic:" and abort(). */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a formatted message prefixed with "fatal:" and exit(1). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a formatted warning to stderr and continue. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * warn(), but at most once per call site. For per-event modelling
 * approximations (an MSHR-full fill falling back to untracked, say)
 * that would otherwise repeat millions of times and flood stderr on a
 * long run: the first occurrence is reported, the rest are silent.
 * The flag is atomic: call sites are reachable from sweep-engine
 * worker threads (sim/sweep.hh), where a plain static would race.
 */
#define warn_once(...)                                                   \
    do {                                                                 \
        static std::atomic<bool> psb_warned_once_{false};                \
        if (!psb_warned_once_.exchange(true,                             \
                                       std::memory_order_relaxed)) {     \
            ::psb::warn(__VA_ARGS__);                                    \
        }                                                                \
    } while (0)

/**
 * Assert-like macro that survives NDEBUG builds. Use for simulator
 * invariants whose violation means the model itself is broken.
 */
#define psb_assert(cond, ...)                                            \
    do {                                                                 \
        if (!(cond)) {                                                   \
            ::psb::panic("assertion '%s' failed at %s:%d", #cond,        \
                         __FILE__, __LINE__);                            \
        }                                                                \
    } while (0)

} // namespace psb

#endif // PSB_UTIL_LOGGING_HH
