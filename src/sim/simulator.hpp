/**
 * @file
 * Single-core simulation driver: wires a workload kernel, the timing
 * core, the memory hierarchy and one prefetcher together, and runs
 * the instruction budget. A caller that measures attaches its own
 * metrics listener (setListener); a bare run carries none.
 *
 * Prefetch fill events are queued and drained between instructions
 * (never delivered re-entrantly), so a component chaining prefetches
 * off fills (P1) observes the same ordering the hardware would.
 *
 * The run loop is batched: decode drains the kernel's
 * already-generated queue in blocks of up to kBatchInstrs into a flat
 * buffer, then executes the block instruction by instruction. Kernel
 * generation still happens exactly when the queue is empty — never
 * ahead of execution — and fills still drain after every instruction,
 * so the observable event order is identical to a step() loop (the
 * test reference for stepBlock()).
 */

#ifndef DOL_SIM_SIMULATOR_HPP
#define DOL_SIM_SIMULATOR_HPP

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/ring_buffer.hpp"
#include "cpu/core.hpp"
#include "mem/memory_system.hpp"
#include "prefetch/prefetcher.hpp"
#include "workloads/kernel.hpp"

namespace dol
{

struct SimConfig
{
    CoreParams core{};
    MemParams mem{};
    std::uint64_t maxInstrs = 400000;
};

class Simulator
{
  public:
    /**
     * @param kernel     workload (borrowed; must outlive the sim)
     * @param prefetcher optional prefetcher (borrowed)
     * @param shared     shared L3/DRAM for multicore; nullptr builds
     *                   a private one
     */
    Simulator(const SimConfig &config, Kernel &kernel,
              Prefetcher *prefetcher,
              std::shared_ptr<SharedMemory> shared = nullptr);

    /**
     * Attach @p listener (borrowed; must outlive the sim) to the
     * memory events, ahead of the simulator's own fill queue; it
     * replaces any listener attached before. Call before run().
     * ExperimentRunner attaches its PrefetchAccounting here. Without
     * a listener, memory events go straight to the fill queue.
     */
    void setListener(MemListener *listener);

    PrefetchEmitter &emitter() { return _emitter; }

    /**
     * Run until the instruction budget is exhausted. A cancel token
     * (borrowed; may be null) is polled every few thousand
     * instructions: once it reports cancelled, run() throws
     * CancelledError, leaving the sim in a consistent but incomplete
     * state. This is the cooperative cancellation point the runner's
     * per-cell timeout relies on.
     */
    void run(const CancelToken *cancel = nullptr);

    /** Execute one instruction; false when the kernel is done. */
    bool step();

    /**
     * Execute up to @p max instructions from one decoded batch.
     * The batch never spans a kernel generate() call (see
     * Kernel::nextBatch), so event ordering matches step() exactly.
     *
     * @return instructions executed; 0 when the kernel is done.
     */
    std::size_t stepBlock(std::size_t max);

    const Core &core() const { return _core; }
    MemorySystem &mem() { return _mem; }
    const MemorySystem &mem() const { return _mem; }
    std::uint64_t instructions() const { return _instrs; }

    double
    ipc() const
    {
        const Cycle cycles = _core.stats().cycles;
        return cycles ? static_cast<double>(_instrs) / cycles : 0.0;
    }

    /** Interleaving key for the multicore driver. */
    Cycle currentCycle() const { return _core.finalCycle(); }

    /** Names of the allocated component ids (id -> name). */
    const std::vector<std::string> &componentNames() const
    {
        return _componentNames;
    }

    /**
     * Attach the observability event bus to every instrumented layer
     * (core, memory hierarchy, prefetcher tree). nullptr detaches.
     */
    void setTraceContext(TraceContext *trace);

    /**
     * Observe every demand access exactly as the prefetcher saw it,
     * immediately after the prefetcher trained on it and before the
     * queued prefetch fills drain. The differential checker
     * (src/check/) feeds this stream to its reference models and
     * compares post-train production state per access; the default
     * (empty) observer costs one branch per memory access.
     */
    using AccessObserver = std::function<void(const AccessInfo &)>;
    void setAccessObserver(AccessObserver observer)
    {
        _accessObserver = std::move(observer);
    }

    /**
     * Harvest end-of-run counters from every layer into @p registry:
     * component decision counters, per-level cache stats, per-component
     * prefetch outcomes (named), and core totals.
     */
    void exportCounters(CounterRegistry &registry) const;

    /**
     * Harvest perf-observability counters (fill-queue high-water mark,
     * resident page count). Kept out of exportCounters() because the
     * golden-trace snapshots freeze that counter set; the throughput
     * bench harvests these on top.
     */
    void exportPerfCounters(CounterRegistry &registry) const;

  private:
    struct FillEvent
    {
        ComponentId comp;
        Addr line;
        Cycle completion;
    };

    /** Queues fill events for post-instruction delivery. */
    class FillQueue : public MemListener
    {
      public:
        explicit FillQueue(RingBuffer<FillEvent> &queue)
            : _queue(&queue)
        {}

        void
        prefetchFill(ComponentId comp, Addr line,
                     Cycle completion) override
        {
            _queue->push_back({comp, line, completion});
        }

      private:
        RingBuffer<FillEvent> *_queue;
    };

    /** Instructions decoded per batch: big enough to amortise the
     *  loop overhead, small enough that a batch of Instr (32 B each)
     *  stays resident in L1 while it executes. */
    static constexpr std::size_t kBatchInstrs = 256;

    void drainFills();

    /** Execute one already-decoded instruction (the step() body). */
    void stepOne(const Instr &instr);

    SimConfig _config;
    Kernel *_kernel;
    Prefetcher *_prefetcher;

    MemorySystem _mem;
    Core _core;
    PrefetchEmitter _emitter;

    RingBuffer<FillEvent> _fills;
    FillQueue _fillQueue;
    /** The attached listener, then the fill queue. */
    ListenerChain _listeners;

    std::vector<std::string> _componentNames;
    AccessObserver _accessObserver;
    std::uint64_t _instrs = 0;
    /** Decode buffer for the batched pipeline. */
    std::array<Instr, kBatchInstrs> _batch;
};

} // namespace dol

#endif // DOL_SIM_SIMULATOR_HPP
