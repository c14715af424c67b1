/**
 * @file
 * Fixed-capacity FIFO ring over preallocated storage — the hot-path
 * replacement for std::deque in bounded hardware structures (ROB,
 * history rings). Capacity is set once (constructor or reset()); after
 * that no member function touches the heap, so rule R10 (no allocation
 * reachable from a PSB_HOT_PATH root, DESIGN.md §14) holds by
 * construction. push_back() on a full ring and pop_front()/front() on
 * an empty one are programming errors, asserted rather than grown —
 * the modelled structures are capacity-checked by their own occupancy
 * logic before insertion.
 */

#ifndef PSB_UTIL_FIXED_RING_HH
#define PSB_UTIL_FIXED_RING_HH

#include <cstddef>
#include <iterator>
#include <vector>

#include "util/logging.hh"

namespace psb
{

/** See file comment. */
template <typename T>
class FixedRing
{
  public:
    explicit FixedRing(std::size_t capacity = 0) : _slots(capacity) {}

    /** Re-size to @p capacity and clear; the one allocating call,
     *  construction-time only. */
    void
    reset(std::size_t capacity)
    {
        _slots.assign(capacity, T{});
        _head = 0;
        _count = 0;
    }

    bool empty() const { return _count == 0; }
    bool full() const { return _count == _slots.size(); }
    std::size_t size() const { return _count; }
    std::size_t capacity() const { return _slots.size(); }

    T &
    front()
    {
        psb_assert(_count > 0, "front() on empty FixedRing");
        return _slots[_head];
    }

    const T &
    front() const
    {
        psb_assert(_count > 0, "front() on empty FixedRing");
        return _slots[_head];
    }

    T &
    back()
    {
        psb_assert(_count > 0, "back() on empty FixedRing");
        return _slots[physical(_count - 1)];
    }

    const T &
    back() const
    {
        psb_assert(_count > 0, "back() on empty FixedRing");
        return _slots[physical(_count - 1)];
    }

    /** Logical index: 0 is the oldest element (FIFO order). */
    T &operator[](std::size_t i) { return _slots[physical(i)]; }
    const T &
    operator[](std::size_t i) const
    {
        return _slots[physical(i)];
    }

    void
    push_back(const T &v)
    {
        psb_assert(_count < _slots.size(), "FixedRing overflow");
        _slots[physical(_count)] = v;
        ++_count;
    }

    /** Append a value-initialized element and return it, to be filled
     *  in place. */
    T &
    emplace_back()
    {
        psb_assert(_count < _slots.size(), "FixedRing overflow");
        T &slot = _slots[physical(_count)];
        slot = T{};
        ++_count;
        return slot;
    }

    void
    pop_front()
    {
        psb_assert(_count > 0, "pop_front() on empty FixedRing");
        _head = next(_head);
        --_count;
    }

    void
    clear()
    {
        _head = 0;
        _count = 0;
    }

    /** Forward iterator in FIFO order (oldest first). */
    template <typename Ring, typename Value>
    class Iter
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = Value;
        using difference_type = std::ptrdiff_t;
        using pointer = Value *;
        using reference = Value &;

        Iter(Ring *ring, std::size_t i) : _ring(ring), _i(i) {}

        Value &operator*() const { return (*_ring)[_i]; }
        Value *operator->() const { return &(*_ring)[_i]; }

        Iter &
        operator++()
        {
            ++_i;
            return *this;
        }

        bool
        operator==(const Iter &o) const
        {
            return _ring == o._ring && _i == o._i;
        }

        bool operator!=(const Iter &o) const { return !(*this == o); }

      private:
        Ring *_ring;
        std::size_t _i;
    };

    using iterator = Iter<FixedRing, T>;
    using const_iterator = Iter<const FixedRing, const T>;

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, _count); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, _count); }

  private:
    std::size_t next(std::size_t i) const
    {
        return i + 1 == _slots.size() ? 0 : i + 1;
    }

    std::size_t
    physical(std::size_t logical) const
    {
        std::size_t i = _head + logical;
        if (i >= _slots.size())
            i -= _slots.size();
        return i;
    }

    std::vector<T> _slots;
    std::size_t _head = 0;
    std::size_t _count = 0;
};

} // namespace psb

#endif // PSB_UTIL_FIXED_RING_HH
