/**
 * @file
 * Workload kernels: deterministic trace generators that stand in for
 * the paper's SPEC 2006 / CRONO / STARBENCH / NPB workloads
 * (DESIGN.md section 2 documents the substitution).
 *
 * A kernel builds its data structures in a MemoryImage at construction
 * and then emits a dynamic instruction stream: loads/stores with
 * stable PCs and meaningful register dependences, loop back-branches,
 * and calls/returns — everything T2's loop hardware, P1's taint unit,
 * and C1's region monitor observe in real hardware. Streams are pure
 * functions of the seed, so a reset() replays the identical trace
 * (required by the offline stratifier).
 */

#ifndef DOL_WORKLOADS_KERNEL_HPP
#define DOL_WORKLOADS_KERNEL_HPP

#include <memory>
#include <string>

#include "common/ring_buffer.hpp"
#include "cpu/instr.hpp"
#include "mem/memory_image.hpp"

namespace dol
{

class Kernel
{
  public:
    explicit Kernel(std::string name, MemoryImage &memory)
        : _name(std::move(name)), _memory(&memory)
    {}

    virtual ~Kernel() = default;

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /**
     * Produce the next retired instruction.
     * @return false when the kernel has (rarely) nothing more to run.
     */
    bool
    next(Instr &out)
    {
        while (_queue.empty()) {
            if (!generate())
                return false;
        }
        out = _queue.front();
        _queue.pop_front();
        return true;
    }

    /**
     * Drain up to @p max already-generated instructions into @p out
     * (the batched decode of PR 9).
     *
     * Ordering contract: generate() runs only when the queue is
     * empty — exactly when the legacy next() loop would have run it.
     * This matters because kernels mutate the MemoryImage *during*
     * generation (shuflist relinks nodes as it walks), and P1/PChase
     * read image values at fill time: generating ahead of execution
     * would change the values in flight and break trace goldens.
     *
     * @return instructions written; 0 means the kernel is exhausted.
     */
    std::size_t
    nextBatch(Instr *out, std::size_t max)
    {
        while (_queue.empty()) {
            if (!generate())
                return 0;
        }
        return _queue.popBulk(out, max);
    }

    /** Restart the trace from the beginning, deterministically. */
    virtual void reset() = 0;

    const std::string &name() const { return _name; }
    MemoryImage &memory() { return *_memory; }
    const MemoryImage &memory() const { return *_memory; }

  protected:
    /** Emit one unit of work (an iteration) into the queue. */
    virtual bool generate() = 0;

    /** Inlined like RingBuffer::push_back, for the same reason. */
    [[gnu::always_inline]] void
    push(const Instr &instr)
    {
        _queue.push_back(instr);
    }

    void clearQueue() { _queue.clear(); }

  private:
    std::string _name;
    MemoryImage *_memory;
    RingBuffer<Instr> _queue;
};

} // namespace dol

#endif // DOL_WORKLOADS_KERNEL_HPP
