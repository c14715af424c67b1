/**
 * @file
 * Clang thread-safety annotation layer and the annotated
 * synchronization primitives the concurrency-bearing subsystems
 * (sim/sweep, util/logging, util/trace) are written against.
 *
 * The PSB_* attribute macros expand to Clang's thread-safety
 * attributes (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html)
 * under clang and to nothing elsewhere, so the annotations are free on
 * gcc and enforced — as compile errors under PSB_WERROR — wherever
 * clang builds the tree with -Wthread-safety.
 *
 * Why wrapper types instead of annotating std::mutex usage directly:
 * libstdc++'s std::mutex and std::lock_guard carry no thread-safety
 * attributes, so Clang's analysis cannot see their acquire/release
 * semantics and would flag every guarded access as unlocked. Mutex,
 * MutexLock, and CondVar below are thin zero-overhead wrappers whose
 * lock operations ARE annotated; all shared mutable state in the tree
 * is declared PSB_GUARDED_BY one of these Mutexes (rule R8 in
 * tools/psb_analyze.py audits that coverage, and clang -Wthread-safety
 * then proves the locking discipline around every access).
 *
 * Conventions (DESIGN.md §12):
 *  - every mutable member of a class that owns a Mutex is either
 *    PSB_GUARDED_BY that Mutex, a synchronization type itself
 *    (Mutex/CondVar/std::atomic), or carries an inline
 *    `// psb-analyze: allow(R8)` with the external-synchronization
 *    protocol that replaces the lock (e.g. slot ownership);
 *  - writable namespace-scope state in a sweep or logging object is
 *    an atomic, a namespace-scope Mutex, or data PSB_GUARDED_BY one,
 *    and each such symbol is an R6 allowlist entry in
 *    tests/symbol_bans/check_symbol_bans.py;
 *  - private `*Locked()` helpers that expect the lock held are
 *    annotated PSB_REQUIRES(mu) instead of re-acquiring.
 */

#ifndef PSB_UTIL_THREAD_ANNOTATIONS_HH
#define PSB_UTIL_THREAD_ANNOTATIONS_HH

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define PSB_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PSB_THREAD_ANNOTATION(x) // not clang: annotations are free
#endif

/** Marks a type as a lockable capability ("mutex"). */
#define PSB_CAPABILITY(x) PSB_THREAD_ANNOTATION(capability(x))

/** Marks an RAII type that acquires in its ctor, releases in its dtor. */
#define PSB_SCOPED_CAPABILITY PSB_THREAD_ANNOTATION(scoped_lockable)

/** The declared variable may only be accessed while holding @p x. */
#define PSB_GUARDED_BY(x) PSB_THREAD_ANNOTATION(guarded_by(x))

/** The pointee of the declared pointer is guarded by @p x. */
#define PSB_PT_GUARDED_BY(x) PSB_THREAD_ANNOTATION(pt_guarded_by(x))

/** The function may only be called while holding the capabilities. */
#define PSB_REQUIRES(...)                                                \
    PSB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** The function acquires the capability and does not release it. */
#define PSB_ACQUIRE(...)                                                 \
    PSB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** The function releases the (held-on-entry) capability. */
#define PSB_RELEASE(...)                                                 \
    PSB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** try_lock-style: acquires iff it returns @p __VA_ARGS__'s first arg. */
#define PSB_TRY_ACQUIRE(...)                                             \
    PSB_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** The function must NOT be called while holding the capabilities. */
#define PSB_EXCLUDES(...)                                                \
    PSB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Escape hatch; every use needs a comment justifying it. */
#define PSB_NO_THREAD_SAFETY_ANALYSIS                                    \
    PSB_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace psb
{

/**
 * Annotated std::mutex. Also a BasicLockable, so CondVar can wait on
 * it directly (via std::condition_variable_any).
 */
class PSB_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock() PSB_ACQUIRE()
    {
        _m.lock();
    }

    void
    unlock() PSB_RELEASE()
    {
        _m.unlock();
    }

    bool
    try_lock() PSB_TRY_ACQUIRE(true)
    {
        return _m.try_lock();
    }

  private:
    std::mutex _m;
};

/** Annotated RAII lock over a Mutex (std::lock_guard analog). */
class PSB_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) PSB_ACQUIRE(mu) : _mu(mu)
    {
        _mu.lock();
    }

    ~MutexLock() PSB_RELEASE() { _mu.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &_mu;
};

/**
 * Condition variable waiting on a Mutex. Built on
 * std::condition_variable_any, which accepts any BasicLockable — the
 * Mutex itself is passed as the lock, so no unannotated
 * std::unique_lock ever appears at a call site.
 */
class CondVar
{
  public:
    /** Atomically release @p mu, sleep, and re-acquire before return. */
    void
    wait(Mutex &mu) PSB_REQUIRES(mu)
    {
        _cv.wait(mu);
    }

    void notifyOne() { _cv.notify_one(); }

  private:
    std::condition_variable_any _cv;
};

} // namespace psb

#endif // PSB_UTIL_THREAD_ANNOTATIONS_HH
