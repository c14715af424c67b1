#include "util/alloc_guard.hh"

#include <atomic>

#ifdef PSB_ALLOC_GUARD
#include <cstdio>
#include <cstdlib>
#include <new>
#endif

namespace psb
{
namespace AllocGuard
{

namespace
{
// Process-wide arming flag. Relaxed is enough: arming happens once,
// before the audited region, on the thread that runs it.
std::atomic<bool> g_armed{false};
} // namespace

void
arm()
{
    g_armed.store(true, std::memory_order_relaxed);
}

bool
armed()
{
    return g_armed.load(std::memory_order_relaxed);
}

#ifdef PSB_ALLOC_GUARD

bool
compiledIn()
{
    return true;
}

namespace detail
{

State &
state()
{
    thread_local State s;
    return s;
}

} // namespace detail

NoAllocScope::NoAllocScope(const char *what)
{
    detail::State &s = detail::state();
    _prevWhat = s.what;
    s.what = what;
    ++s.depth;
}

NoAllocScope::~NoAllocScope()
{
    detail::State &s = detail::state();
    --s.depth;
    s.what = _prevWhat;
}

PauseScope::PauseScope()
{
    ++detail::state().pause;
}

PauseScope::~PauseScope()
{
    --detail::state().pause;
}

namespace
{

/**
 * The one checking hook every interposed operator funnels through.
 * No allocation and no iostreams in here: when armed, the report goes
 * straight to stderr with fprintf (unbuffered stream) and the process
 * aborts, so a debugger breakpoint on abort() lands on the offending
 * allocation's full stack.
 */
void
noteAllocation(std::size_t bytes)
{
    detail::State &s = detail::state();
    if (s.depth <= 0 || s.pause > 0)
        return;
    if (armed()) {
        std::fprintf(stderr,
                     "AllocGuard: heap allocation of %zu bytes inside "
                     "no-alloc scope '%s' — the per-cycle hot path "
                     "must not allocate (rule R10)\n",
                     bytes, s.what ? s.what : "?");
        std::abort();
    }
}

void *
guardedAlloc(std::size_t bytes)
{
    noteAllocation(bytes);
    if (bytes == 0)
        bytes = 1;
    void *p = std::malloc(bytes);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
guardedAllocAligned(std::size_t bytes, std::size_t align)
{
    noteAllocation(bytes);
    if (bytes == 0)
        bytes = align;
    void *p = std::aligned_alloc(align, (bytes + align - 1) / align * align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

} // namespace AllocGuard
} // namespace psb

// ---------------------------------------------------------------------
// Global operator new/delete replacement (checking interposers).
// Every form forwards to malloc/free; the replacement is legal per
// [replacement.functions] and process-global, but only allocations
// made inside an open NoAllocScope on the owning thread are checked.
// ---------------------------------------------------------------------

void *
operator new(std::size_t bytes)
{
    return psb::AllocGuard::guardedAlloc(bytes);
}

void *
operator new[](std::size_t bytes)
{
    return psb::AllocGuard::guardedAlloc(bytes);
}

void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    psb::AllocGuard::noteAllocation(bytes);
    return std::malloc(bytes ? bytes : 1);
}

void *
operator new[](std::size_t bytes, const std::nothrow_t &) noexcept
{
    psb::AllocGuard::noteAllocation(bytes);
    return std::malloc(bytes ? bytes : 1);
}

void *
operator new(std::size_t bytes, std::align_val_t align)
{
    return psb::AllocGuard::guardedAllocAligned(
        bytes, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t bytes, std::align_val_t align)
{
    return psb::AllocGuard::guardedAllocAligned(
        bytes, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

#else // !PSB_ALLOC_GUARD

bool
compiledIn()
{
    return false;
}

} // namespace AllocGuard
} // namespace psb

#endif // PSB_ALLOC_GUARD
