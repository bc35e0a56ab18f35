/**
 * @file
 * Growable power-of-two ring buffer (FIFO).
 *
 * Replaces `std::deque` on the simulator's fill and instruction
 * queues: both are drained in order and stay small, which a deque
 * punishes with 512-byte chunk allocations and per-push map
 * bookkeeping. The ring grows geometrically on the rare overflow and
 * never allocates otherwise; a high-water mark records the deepest
 * the queue ever got (MSHR/backpressure observability).
 */

#ifndef DOL_COMMON_RING_BUFFER_HPP
#define DOL_COMMON_RING_BUFFER_HPP

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <type_traits>
#include <vector>

namespace dol
{

template <typename T>
class RingBuffer
{
  public:
    explicit RingBuffer(std::size_t initial_capacity = 16)
        : _slots(std::bit_ceil(initial_capacity))
    {}

    bool empty() const { return _count == 0; }
    std::size_t size() const { return _count; }
    std::size_t capacity() const { return _slots.size(); }

    /** Deepest size() ever reached (not reset by clear()). */
    std::size_t highWaterMark() const { return _highWater; }

    T &front()
    {
        assert(_count > 0);
        return _slots[_head];
    }

    const T &front() const
    {
        assert(_count > 0);
        return _slots[_head];
    }

    /**
     * Always inlined, with the rare grow() kept out of line: a push
     * that stays a call makes every caller build its element in a
     * stack temporary and copy it in, and the copy's wide loads cannot
     * forward from the temporary's narrow stores. Inlined, the caller
     * writes the element straight into its slot.
     */
    [[gnu::always_inline]] void
    push_back(const T &value)
    {
        if (_count == _slots.size())
            grow();
        _slots[(_head + _count) & (_slots.size() - 1)] = value;
        ++_count;
        if (_count > _highWater)
            _highWater = _count;
    }

    void
    pop_front()
    {
        assert(_count > 0);
        _slots[_head] = T{};
        _head = (_head + 1) & (_slots.size() - 1);
        --_count;
    }

    /**
     * Pop up to @p max elements into @p out in FIFO order.
     *
     * Bulk drain for the batched step pipeline (PR 9): two copy_n
     * spans (head to end of the backing array, then the wrap) replace
     * per-element front()/pop_front() round trips.
     *
     * @return elements copied (min(max, size())).
     */
    std::size_t
    popBulk(T *out, std::size_t max)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "popBulk skips per-slot destruction");
        const std::size_t want = std::min(max, _count);
        const std::size_t mask = _slots.size() - 1;
        const std::size_t first =
            std::min(want, _slots.size() - _head);
        std::copy_n(_slots.data() + _head, first, out);
        std::copy_n(_slots.data(), want - first, out + first);
        _head = (_head + want) & mask;
        _count -= want;
        if (_count == 0)
            _head = 0;
        return want;
    }

    void
    clear()
    {
        while (_count > 0)
            pop_front();
        _head = 0;
    }

  private:
    [[gnu::noinline, gnu::cold]] void
    grow()
    {
        std::vector<T> bigger(_slots.size() * 2);
        for (std::size_t i = 0; i < _count; ++i)
            bigger[i] = std::move(_slots[(_head + i) &
                                         (_slots.size() - 1)]);
        _slots = std::move(bigger);
        _head = 0;
    }

    std::vector<T> _slots;
    std::size_t _head = 0;
    std::size_t _count = 0;
    std::size_t _highWater = 0;
};

} // namespace dol

#endif // DOL_COMMON_RING_BUFFER_HPP
