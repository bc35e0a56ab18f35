#include "traced.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <stdexcept>
#include <string_view>

#include <unistd.h>

#include "common/ring_buffer.hpp"
#include "core/registry.hpp"
#include "cpu/core.hpp"
#include "mem/memory_system.hpp"
#include "metrics/accounting.hpp"
#include "sim/contention.hpp"
#include "sim/multicore.hpp"
#include "trace/context.hpp"
#include "trace/counters.hpp"

namespace dolbench
{

using namespace dol;

namespace
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** The running job's tally; set for the duration of a job body. */
thread_local Tally *t_tally = nullptr;
/** Child-time accumulator of the innermost open span. */
thread_local std::uint64_t *t_childNs = nullptr;

/**
 * A timed call into one layer. Self time is the span's duration
 * minus the spans opened inside it, so nested layers (a listener
 * callback inside a demand access inside a prefetcher's issue) are
 * each charged only for their own work.
 */
class Span
{
  public:
    explicit Span(Layer layer)
        : _layer(static_cast<unsigned>(layer)), _parent(t_childNs),
          _start(nowNs())
    {
        t_childNs = &_childNs;
    }

    ~Span()
    {
        const std::uint64_t elapsed = nowNs() - _start;
        t_childNs = _parent;
        if (_parent)
            *_parent += elapsed;
        t_tally->totalNs[_layer] += elapsed;
        t_tally->selfNs[_layer] += elapsed - _childNs;
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    unsigned _layer;
    std::uint64_t *_parent;
    std::uint64_t _childNs = 0;
    std::uint64_t _start;
};

std::atomic<bool> g_probeArmed{false};
std::atomic<bool> g_probeFired{false};

[[noreturn]] void
reportFirstInstruction()
{
    if (g_probeFired.exchange(true)) {
        // Another worker is already reporting and ending the process.
        for (;;)
            pause();
    }
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    char line[64];
    const int len = std::snprintf(
        line, sizeof line, "first_instruction_ns %lld\n",
        static_cast<long long>(ts.tv_sec) * 1000000000LL + ts.tv_nsec);
    if (len > 0 && ::write(STDOUT_FILENO, line, static_cast<std::size_t>(
                                                    len)) != len)
        std::_Exit(3);
    std::_Exit(0);
}

/**
 * Times kernel generation. It draws from the wrapped kernel's
 * nextBatch only when its own queue is empty, so the wrapped kernel
 * still generates exactly when every instruction it produced has
 * executed (kernels mutate the MemoryImage while generating).
 */
class TimedKernel final : public Kernel
{
  public:
    explicit TimedKernel(std::unique_ptr<Kernel> inner)
        : Kernel(inner->name(), inner->memory()), _inner(std::move(inner))
    {}

    void
    reset() override
    {
        _inner->reset();
        clearQueue();
    }

  protected:
    bool
    generate() override
    {
        if (g_probeArmed.load(std::memory_order_relaxed))
            reportFirstInstruction();
        std::size_t got = 0;
        {
            Span span(Layer::kGen);
            got = _inner->nextBatch(_buffer.data(), _buffer.size());
        }
        t_tally->genInstrs += got;
        for (std::size_t i = 0; i < got; ++i)
            push(_buffer[i]);
        return got > 0;
    }

  private:
    std::unique_ptr<Kernel> _inner;
    std::array<Instr, 256> _buffer;
};

std::unique_ptr<Kernel>
buildKernel(const WorkloadSpec &spec, MemoryImage &image)
{
    std::unique_ptr<Kernel> inner;
    {
        Span span(Layer::kBuild);
        inner = spec.factory(image);
    }
    return std::make_unique<TimedKernel>(std::move(inner));
}

/** Times the core's demand accesses into the memory hierarchy. */
class TimedPort final : public DataPort
{
  public:
    explicit TimedPort(MemorySystem &mem) : _mem(&mem) {}

    Result
    demandLoad(Addr addr, Pc pc, Cycle when) override
    {
        ++t_tally->memAccesses;
        Span span(Layer::kMem);
        return _mem->demandLoad(addr, pc, when);
    }

    Result
    demandStore(Addr addr, Pc pc, Cycle when) override
    {
        ++t_tally->memAccesses;
        Span span(Layer::kMem);
        return _mem->demandStore(addr, pc, when);
    }

  private:
    MemorySystem *_mem;
};

/** Times every callback into the metrics listener. */
class TimedListener final : public MemListener
{
  public:
    explicit TimedListener(MemListener &inner) : _inner(&inner) {}

    void
    shadowMiss(unsigned level, Addr line, Pc pc) override
    {
        Span span(Layer::kListener);
        _inner->shadowMiss(level, line, pc);
    }

    void
    demandMiss(unsigned level, Addr line, Pc pc) override
    {
        Span span(Layer::kListener);
        _inner->demandMiss(level, line, pc);
    }

    void
    prefetchIssued(ComponentId comp, Addr line, unsigned dest,
                   Cycle when) override
    {
        Span span(Layer::kListener);
        _inner->prefetchIssued(comp, line, dest, when);
    }

    void
    prefetchFill(ComponentId comp, Addr line, Cycle completion) override
    {
        Span span(Layer::kListener);
        _inner->prefetchFill(comp, line, completion);
    }

    void
    prefetchUsed(ComponentId comp, unsigned level, Addr line) override
    {
        Span span(Layer::kListener);
        _inner->prefetchUsed(comp, level, line);
    }

    void
    inducedMiss(unsigned level, Addr line,
                std::span<const ComponentId> comps) override
    {
        Span span(Layer::kListener);
        _inner->inducedMiss(level, line, comps);
    }

    void
    prefetchDropped(ComponentId comp, Addr line) override
    {
        Span span(Layer::kListener);
        _inner->prefetchDropped(comp, line);
    }

    void
    prefetchEvictedUnused(ComponentId comp, unsigned level,
                          Addr line) override
    {
        Span span(Layer::kListener);
        _inner->prefetchEvictedUnused(comp, level, line);
    }

  private:
    MemListener *_inner;
};

/** Times a prefetcher's hooks; shares its name and component ids. */
class TimedPrefetcher final : public Prefetcher
{
  public:
    TimedPrefetcher(std::unique_ptr<Prefetcher> inner, Layer layer)
        : Prefetcher(inner->name()), _inner(std::move(inner)),
          _layer(layer)
    {}

    void
    train(const AccessInfo &access, PrefetchEmitter &emitter) override
    {
        Span span(_layer);
        _inner->train(access, emitter);
    }

    void
    onInstr(const Instr &instr, const RetireInfo &retire, Pc m_pc,
            PrefetchEmitter &emitter) override
    {
        Span span(_layer);
        _inner->onInstr(instr, retire, m_pc, emitter);
    }

    void
    onFill(ComponentId comp, Addr line, Cycle completion,
           PrefetchEmitter &emitter) override
    {
        Span span(_layer);
        _inner->onFill(comp, line, completion, emitter);
    }

    std::size_t
    storageBits() const override
    {
        return _inner->storageBits();
    }

    void
    assignIds(const IdAllocator &alloc) override
    {
        _inner->assignIds(alloc);
        setId(_inner->id());
    }

    void
    setTraceContext(TraceContext *trace) override
    {
        Prefetcher::setTraceContext(trace);
        _inner->setTraceContext(trace);
    }

    void
    exportCounters(CounterRegistry &registry) const override
    {
        _inner->exportCounters(registry);
    }

  private:
    std::unique_ptr<Prefetcher> _inner;
    Layer _layer;
};

Layer
extraLayer(const std::string &name)
{
    if (name == "SPP")
        return Layer::kSpp;
    if (name == "Triangel")
        return Layer::kTriangel;
    if (name == "PChase")
        return Layer::kPChase;
    throw std::runtime_error("no trace layer for prefetcher " + name);
}

/**
 * The registry's prefetcher, with the composite and each extra
 * wrapped before CompositePrefetcher::addComponent (the hardwired
 * coordinator, as makePrefetcher builds it).
 */
std::unique_ptr<Prefetcher>
makeTracedPrefetcher(const std::string &name, const ValueSource *memory)
{
    constexpr std::string_view kTpc = "TPC";
    if (name != kTpc && !name.starts_with("TPC+")) {
        return std::make_unique<TimedPrefetcher>(
            makePrefetcher(name, memory), extraLayer(name));
    }
    auto tpc = makeTpc(memory);
    std::size_t plus = kTpc.size();
    while (plus < name.size()) {
        const std::size_t next = name.find('+', plus + 1);
        const std::string extra =
            name.substr(plus + 1, next == std::string::npos
                                      ? std::string::npos
                                      : next - plus - 1);
        tpc->addComponent(std::make_unique<TimedPrefetcher>(
            makePrefetcher(extra, memory), extraLayer(extra)));
        plus = next == std::string::npos ? name.size() : next;
    }
    return std::make_unique<TimedPrefetcher>(std::move(tpc), Layer::kCore);
}

void
harvestDram(const SharedMemory &shared, Tally &tally)
{
    const DramStats &dram = shared.dram().stats();
    tally.dramLines += shared.dram().linesTransferred();
    tally.windowDeferrals += dram.windowDeferrals;
    tally.bandwidthStallCycles += dram.bandwidthStallCycles;
}

/**
 * Simulator, rebuilt from its public parts with the timing
 * decorators in the data port and listener slots. stepOne, run,
 * exportCounters and the constructor follow sim/simulator.cpp line
 * for line; the byte-equality check on every traced cell enforces it.
 */
class TracedSim
{
  public:
    TracedSim(const SimConfig &config, Kernel &kernel,
              Prefetcher *prefetcher,
              std::shared_ptr<SharedMemory> shared = nullptr)
        : _config(config), _kernel(&kernel), _prefetcher(prefetcher),
          _mem(config.mem, std::move(shared)), _core(config.core),
          _emitter(_mem), _port(_mem), _timedAccounting(_accounting),
          _fillQueue(_fills)
    {
        _componentNames.resize(kMaxComponents);
        _componentNames[kNoComponent] = "none";
        if (_prefetcher) {
            ComponentId next = 1;
            _prefetcher->assignIds([&](const std::string &name) {
                if (next >= kMaxComponents)
                    throw std::runtime_error(
                        "too many prefetcher components");
                _componentNames[next] = name;
                return next++;
            });
        }
        _listeners.add(&_timedAccounting);
        _listeners.add(&_fillQueue);
        _mem.setListener(&_listeners);
    }

    TracedSim(const TracedSim &) = delete;
    TracedSim &operator=(const TracedSim &) = delete;

    void
    setStratifier(const OfflineStratifier *stratifier)
    {
        _accounting.setStratifier(stratifier);
    }

    const PrefetchAccounting &accounting() const { return _accounting; }
    MemorySystem &mem() { return _mem; }
    const MemorySystem &mem() const { return _mem; }
    std::uint64_t instructions() const { return _instrs; }
    Cycle currentCycle() const { return _core.finalCycle(); }
    const std::vector<std::string> &componentNames() const
    {
        return _componentNames;
    }

    double
    ipc() const
    {
        const Cycle cycles = _core.stats().cycles;
        return cycles ? static_cast<double>(_instrs) / cycles : 0.0;
    }

    void
    setTraceContext(TraceContext *trace)
    {
        _mem.setTraceContext(trace);
        _core.setTraceContext(trace);
        if (_prefetcher)
            _prefetcher->setTraceContext(trace);
    }

    bool
    step()
    {
        Instr instr;
        if (!_kernel->next(instr))
            return false;
        stepOne(instr);
        return true;
    }

    std::size_t
    stepBlock(std::size_t max)
    {
        const std::size_t want = std::min(max, kBatchInstrs);
        const std::size_t got = _kernel->nextBatch(_batch.data(), want);
        for (std::size_t i = 0; i < got; ++i)
            stepOne(_batch[i]);
        return got;
    }

    void
    run()
    {
        while (_instrs < _config.maxInstrs) {
            const std::uint64_t budget = _config.maxInstrs - _instrs;
            const std::size_t got = stepBlock(static_cast<std::size_t>(
                std::min<std::uint64_t>(budget, kBatchInstrs)));
            if (got == 0)
                break;
        }
    }

    void
    exportCounters(CounterRegistry &registry) const
    {
        if (_prefetcher)
            _prefetcher->exportCounters(registry);
        _mem.exportCounters(registry);

        const CoreStats &cs = _core.stats();
        registry.set("core", "instructions", _instrs);
        registry.set("core", "loads", cs.loads);
        registry.set("core", "stores", cs.stores);
        registry.set("core", "branches", cs.branches);
        registry.set("core", "mispredicts", cs.mispredicts);
        registry.set("core", "cycles", _core.finalCycle());

        const MemStats &ms = _mem.stats();
        for (ComponentId comp = 1; comp < kMaxComponents; ++comp) {
            const ComponentStats &stats = ms.comp[comp];
            if (stats.issued == 0 && stats.filtered == 0 &&
                stats.droppedMshr == 0 && stats.droppedQueue == 0) {
                continue;
            }
            const std::string scope = "pf." + _componentNames[comp];
            registry.set(scope, "issued", stats.issued);
            registry.set(scope, "filled", stats.filled);
            registry.set(scope, "used", stats.used);
            registry.set(scope, "filtered", stats.filtered);
            registry.set(scope, "dropped_mshr", stats.droppedMshr);
            registry.set(scope, "dropped_queue", stats.droppedQueue);
        }
    }

    /** Add this run's simulated event counts to @p tally. */
    void
    harvest(Tally &tally) const
    {
        const MemStats &ms = _mem.stats();
        for (unsigned lv = 0; lv < kNumCacheLevels; ++lv) {
            tally.demandAccesses[lv] += ms.level[lv].demandAccesses;
            tally.primaryMisses[lv] += ms.level[lv].primaryMisses;
        }
        tally.shadowL1Misses += ms.level[kL1].shadowMisses;
        tally.l3MshrStalls += ms.level[kL3].mshrStalls;
        for (ComponentId comp = 1; comp < kMaxComponents; ++comp) {
            const ComponentStats &stats = ms.comp[comp];
            tally.pfIssued += stats.issued;
            tally.pfUsed += stats.used;
            tally.pfFilteredDropped +=
                stats.filtered + stats.droppedMshr + stats.droppedQueue;
        }
        tally.fillQueueHwm = std::max<std::uint64_t>(
            tally.fillQueueHwm, _fills.highWaterMark());
    }

  private:
    struct FillEvent
    {
        ComponentId comp;
        Addr line;
        Cycle completion;
    };

    class FillQueue : public MemListener
    {
      public:
        explicit FillQueue(RingBuffer<FillEvent> &queue) : _queue(&queue)
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

    static constexpr std::size_t kBatchInstrs = 256;

    void
    drainFills()
    {
        while (!_fills.empty()) {
            const FillEvent event = _fills.front();
            _fills.pop_front();
            _emitter.setContext(_prefetcher->id(), event.completion);
            _prefetcher->onFill(event.comp, event.line, event.completion,
                                _emitter);
        }
    }

    void
    stepOne(const Instr &instr)
    {
        const Pc m_pc = instr.pc ^ _core.ras().top();

        RetireInfo retire;
        {
            Span span(Layer::kCpu);
            retire = _core.step(instr, _port);
        }
        ++t_tally->cpuInstrs;

        if (_prefetcher) {
            _emitter.setContext(_prefetcher->id(), retire.issue);
            _prefetcher->onInstr(instr, retire, m_pc, _emitter);

            if (instr.isMem()) {
                AccessInfo access;
                access.pc = instr.pc;
                access.mPc = m_pc;
                access.addr = instr.addr;
                access.isLoad = instr.isLoad();
                access.l1Hit = retire.mem.l1Hit;
                access.l1PrimaryMiss = retire.mem.l1PrimaryMiss;
                access.l1HitPrefetched = retire.mem.l1HitPrefetched;
                access.l1HitComp = retire.mem.l1HitComp;
                access.l2Hit = retire.mem.l2Hit;
                access.l3Hit = retire.mem.l3Hit;
                access.value = instr.value;
                access.when = retire.issue;
                access.completion = retire.mem.completion;

                _emitter.setContext(_prefetcher->id(), retire.issue);
                _prefetcher->train(access, _emitter);
            }
            if (!_fills.empty())
                drainFills();
        }

        ++_instrs;
    }

    SimConfig _config;
    Kernel *_kernel;
    Prefetcher *_prefetcher;

    MemorySystem _mem;
    Core _core;
    PrefetchEmitter _emitter;
    TimedPort _port;

    PrefetchAccounting _accounting;
    TimedListener _timedAccounting;
    RingBuffer<FillEvent> _fills;
    FillQueue _fillQueue;
    ListenerChain _listeners;

    std::vector<std::string> _componentNames;
    std::uint64_t _instrs = 0;
    std::array<Instr, kBatchInstrs> _batch;
};

/** ExperimentRunner::computeBaseline through TracedSim. */
ExperimentRunner::Baseline
tracedBaseline(const SimConfig &config, const WorkloadSpec &spec)
{
    Span span(Layer::kBaseline);
    ExperimentRunner::Baseline base;
    base.stratifier = std::make_shared<OfflineStratifier>();

    MemoryImage image;
    auto kernel = buildKernel(spec, image);

    TracedSim sim(config, *kernel, nullptr);
    while (sim.instructions() < config.maxInstrs) {
        if (!sim.step())
            break;
    }
    base.ipc = sim.ipc();
    base.l1Misses = sim.mem().stats().level[kL1].primaryMisses;
    base.mpkiL1 = sim.instructions()
                      ? 1000.0 * static_cast<double>(base.l1Misses) /
                            static_cast<double>(sim.instructions())
                      : 0.0;
    sim.harvest(*t_tally);
    harvestDram(sim.mem().shared(), *t_tally);
    if (sim.instructions() != config.maxInstrs)
        ++t_tally->shortRuns;

    Span stratify(Layer::kStratify);
    kernel->reset();
    Instr instr;
    std::uint64_t seen = 0;
    while (seen < config.maxInstrs && kernel->next(instr)) {
        if (instr.isMem())
            base.stratifier->observe(instr.pc, instr.addr);
        ++seen;
    }
    return base;
}

/** ExperimentRunner::run (counters collected) through TracedSim. */
RunOutput
tracedRun(const SimConfig &config, const WorkloadSpec &spec,
          const std::string &prefetcher_name,
          const ExperimentRunner::Baseline &base)
{
    Span span(Layer::kMeasured);
    MemoryImage image;
    auto kernel = buildKernel(spec, image);
    auto prefetcher = makeTracedPrefetcher(prefetcher_name, &image);

    TracedSim sim(config, *kernel, prefetcher.get());
    sim.setStratifier(base.stratifier.get());
    TraceContext trace_ctx;
    sim.setTraceContext(&trace_ctx);
    sim.run();

    RunOutput out;
    sim.exportCounters(out.counters);
    trace_ctx.exportEventCounts(out.counters);
    out.workload = spec.name;
    out.prefetcher = prefetcher_name;
    out.ipc = sim.ipc();
    out.baselineIpc = base.ipc;
    out.instructions = sim.instructions();

    const MemStats &mem = sim.mem().stats();
    out.prefetchesIssued = mem.prefetchesIssued();
    out.l1ShadowMisses = mem.level[kL1].shadowMisses;
    out.l1Misses = mem.level[kL1].primaryMisses;
    out.baselineMpkiL1 = base.mpkiL1;

    const auto avoided = [](std::uint64_t shadow, std::uint64_t real) {
        return shadow > real ? static_cast<double>(shadow - real)
                             : -static_cast<double>(real - shadow);
    };
    const double avoided_l1 = avoided(mem.level[kL1].shadowMisses,
                                      mem.level[kL1].primaryMisses);
    const double avoided_l2 = avoided(mem.level[kL2].shadowMisses,
                                      mem.level[kL2].primaryMisses);
    const double issued = static_cast<double>(out.prefetchesIssued);
    out.effAccuracyL1 = out.prefetchesIssued ? avoided_l1 / issued : 0.0;
    out.effAccuracyL2 = out.prefetchesIssued ? avoided_l2 / issued : 0.0;
    out.effCoverageL1 =
        mem.level[kL1].shadowMisses
            ? avoided_l1 / static_cast<double>(mem.level[kL1].shadowMisses)
            : 0.0;
    out.effCoverageL2 =
        mem.level[kL2].shadowMisses
            ? avoided_l2 / static_cast<double>(mem.level[kL2].shadowMisses)
            : 0.0;

    const std::uint64_t baseline_lines =
        sim.mem().shared().baselineDramLines();
    out.trafficNormalized =
        baseline_lines ? static_cast<double>(sim.mem().dramLines()) /
                             static_cast<double>(baseline_lines)
                       : 1.0;

    const PrefetchAccounting &acct = sim.accounting();
    out.scope = acct.scope();
    for (unsigned f = 0; f < kNumFruit; ++f) {
        out.categories[f] = acct.category(static_cast<Fruit>(f));
        out.categoryScope[f] = acct.scopeInCategory(static_cast<Fruit>(f));
    }
    out.focus = acct.focus();
    out.focusScope = acct.focusScope();

    const auto &names = sim.componentNames();
    for (unsigned id = 1; id < kMaxComponents; ++id) {
        if (names[id].empty())
            continue;
        RunOutput::ComponentOutput comp;
        comp.name = names[id];
        comp.issued = mem.comp[id].issued;
        comp.used = mem.comp[id].used;
        comp.inducedCredit = mem.comp[id].inducedCredit;
        comp.scope = acct.scopeOf(static_cast<ComponentId>(id));
        out.components.push_back(std::move(comp));
    }

    sim.harvest(*t_tally);
    harvestDram(sim.mem().shared(), *t_tally);
    return out;
}

/** runContentionScenario's solo run through TracedSim. */
double
tracedSolo(const SimConfig &config, const CoreSpec &spec,
           unsigned num_cores)
{
    Span span(Layer::kSolo);
    const WorkloadSpec &workload = findWorkload(spec.workload);
    MemoryImage image;
    auto kernel = buildKernel(workload, image);
    auto prefetcher = spec.prefetcher.empty()
                          ? nullptr
                          : makeTracedPrefetcher(spec.prefetcher, &image);

    SimConfig solo = config;
    if (spec.maxInstrs)
        solo.maxInstrs = spec.maxInstrs;
    auto shared = std::make_shared<SharedMemory>(solo.mem, num_cores);
    TracedSim sim(solo, *kernel, prefetcher.get(), shared);
    sim.run();
    sim.harvest(*t_tally);
    harvestDram(*shared, *t_tally);
    if (sim.instructions() != solo.maxInstrs)
        ++t_tally->shortRuns;
    return sim.ipc();
}

/** MulticoreSimulator (heterogeneous form) over TracedSim cores;
 *  follows sim/multicore.cpp. */
class TracedMix
{
  public:
    TracedMix(const SimConfig &config, const std::vector<CoreSpec> &specs)
        : _config(config),
          _shared(std::make_shared<SharedMemory>(
              config.mem, static_cast<unsigned>(specs.size())))
    {
        for (const CoreSpec &spec : specs)
            addCore(spec);
    }

    MulticoreResult
    run()
    {
        std::vector<bool> active(_cores.size(), true);
        bool any_active = !_cores.empty();
        while (any_active) {
            std::size_t next = _cores.size();
            Cycle best = kNoCycle;
            for (std::size_t i = 0; i < _cores.size(); ++i) {
                if (!active[i])
                    continue;
                const Cycle cycle = _cores[i]->currentCycle();
                if (next == _cores.size() || cycle < best) {
                    next = i;
                    best = cycle;
                }
            }
            if (next == _cores.size())
                break;

            std::uint64_t left =
                _cores[next]->instructions() >= _budgets[next]
                    ? 0
                    : std::min<std::uint64_t>(
                          64, _budgets[next] - _cores[next]->instructions());
            if (left == 0)
                active[next] = false;
            while (left > 0) {
                const std::size_t got = _cores[next]->stepBlock(
                    static_cast<std::size_t>(left));
                if (got == 0) {
                    active[next] = false;
                    break;
                }
                left -= got;
            }
            if (_cores[next]->instructions() >= _budgets[next])
                active[next] = false;

            any_active = false;
            for (std::size_t i = 0; i < _cores.size(); ++i)
                any_active = any_active || active[i];
        }

        MulticoreResult result;
        for (std::size_t i = 0; i < _cores.size(); ++i) {
            const unsigned core_id = static_cast<unsigned>(i);
            result.ipc.push_back(_cores[i]->ipc());
            result.instructions.push_back(_cores[i]->instructions());
            result.coreDramLines.push_back(
                _shared->dram().coreLines(core_id));
            result.corePrefetchLines.push_back(
                _shared->dram().corePrefetchLines(core_id));
            const CoreShareStats &share = _shared->coreShare(core_id);
            result.coreL3Insertions.push_back(share.l3Insertions);
            result.coreL3EvictionsOfOthers.push_back(
                share.l3EvictionsOfOthers);
            result.coreL3MshrStalls.push_back(
                _cores[i]->mem().stats().level[kL3].mshrStalls);
        }
        const DramStats &dram = _shared->dram().stats();
        result.dramLines = _shared->dram().linesTransferred();
        result.baselineDramLines = _shared->baselineDramLines();
        result.droppedPrefetches = dram.droppedPrefetches;
        result.arbDelayCycles = dram.arbDelayCycles;
        result.demandsDelayedByPrefetch = dram.demandsDelayedByPrefetch;
        result.windowDeferrals = dram.windowDeferrals;
        return result;
    }

    void
    exportCounters(CounterRegistry &registry) const
    {
        for (std::size_t i = 0; i < _cores.size(); ++i) {
            const std::string prefix = "core" + std::to_string(i);

            CounterRegistry per_core;
            _cores[i]->exportCounters(per_core);
            for (const auto &[scope, name, value] : per_core.entries())
                registry.set(prefix + "." + scope, name, value);

            const unsigned core_id = static_cast<unsigned>(i);
            const CoreShareStats &share = _shared->coreShare(core_id);
            registry.set(prefix, "dram_lines",
                         _shared->dram().coreLines(core_id));
            registry.set(prefix, "prefetch_dram_lines",
                         _shared->dram().corePrefetchLines(core_id));
            registry.set(prefix, "l3_insertions", share.l3Insertions);
            registry.set(prefix, "l3_evictions_of_others",
                         share.l3EvictionsOfOthers);
            registry.set(prefix, "l3_mshr_stalls",
                         _cores[i]->mem().stats().level[kL3].mshrStalls);
            registry.set(prefix, "instructions",
                         _cores[i]->instructions());
        }

        const DramStats &dram = _shared->dram().stats();
        registry.set("dram", "lines", _shared->dram().linesTransferred());
        registry.set("dram", "reads", dram.reads);
        registry.set("dram", "writes", dram.writes);
        registry.set("dram", "row_hits", dram.rowHits);
        registry.set("dram", "row_misses", dram.rowMisses);
        registry.set("dram", "dropped_prefetches", dram.droppedPrefetches);
        registry.set("dram", "queue_full_demand_stalls",
                     dram.queueFullDemandStalls);
        registry.set("dram", "arb_delay_cycles", dram.arbDelayCycles);
        registry.set("dram", "arb_delayed_requests",
                     dram.arbDelayedRequests);
        registry.set("dram", "demands_delayed_by_prefetch",
                     dram.demandsDelayedByPrefetch);
        registry.set("dram", "window_deferrals", dram.windowDeferrals);
        registry.set("dram", "bandwidth_stall_cycles",
                     dram.bandwidthStallCycles);
        registry.set("dram", "baseline_lines",
                     _shared->baselineDramLines());
    }

    void
    harvest(Tally &tally) const
    {
        for (const auto &core : _cores)
            core->harvest(tally);
        harvestDram(*_shared, tally);
    }

  private:
    void
    addCore(const CoreSpec &spec)
    {
        const WorkloadSpec &workload = findWorkload(spec.workload);
        auto image = std::make_unique<MemoryImage>();
        auto kernel = buildKernel(workload, *image);

        Prefetcher *prefetcher = nullptr;
        if (!spec.prefetcher.empty()) {
            _prefetchers.push_back(
                makeTracedPrefetcher(spec.prefetcher, image.get()));
            prefetcher = _prefetchers.back().get();
        }

        _cores.push_back(std::make_unique<TracedSim>(_config, *kernel,
                                                     prefetcher, _shared));
        _cores.back()->mem().setCoreId(
            static_cast<unsigned>(_cores.size() - 1));
        _budgets.push_back(spec.maxInstrs ? spec.maxInstrs
                                          : _config.maxInstrs);
        _images.push_back(std::move(image));
        _kernels.push_back(std::move(kernel));
    }

    SimConfig _config;
    std::shared_ptr<SharedMemory> _shared;
    std::vector<std::unique_ptr<MemoryImage>> _images;
    std::vector<std::unique_ptr<Kernel>> _kernels;
    std::vector<std::unique_ptr<Prefetcher>> _prefetchers;
    std::vector<std::unique_ptr<TracedSim>> _cores;
    std::vector<std::uint64_t> _budgets;
};

std::uint64_t
toMilli(double value)
{
    return value > 0.0 ? static_cast<std::uint64_t>(value * 1000.0 + 0.5)
                       : 0;
}

/** runContentionScenario + contentionRunOutput through TracedSim. */
RunOutput
tracedContention(const SimConfig &config, const ContentionMix &mix)
{
    ContentionOutcome outcome;
    outcome.mixName = mix.name;

    const unsigned num_cores = static_cast<unsigned>(mix.cores.size());
    for (const CoreSpec &spec : mix.cores)
        outcome.soloIpc.push_back(tracedSolo(config, spec, num_cores));

    {
        Span span(Layer::kMix);
        TracedMix mc(config, mix.cores);
        outcome.result = mc.run();
        mc.exportCounters(outcome.counters);
        mc.harvest(*t_tally);
    }
    outcome.fairness =
        computeFairness(outcome.soloIpc, outcome.result.ipc);

    for (std::size_t i = 0; i < mix.cores.size(); ++i) {
        const std::string scope = "core" + std::to_string(i);
        outcome.counters.set(scope, "ipc_milli",
                             toMilli(outcome.result.ipc[i]));
        outcome.counters.set(scope, "solo_ipc_milli",
                             toMilli(outcome.soloIpc[i]));
        outcome.counters.set(scope, "slowdown_milli",
                             toMilli(outcome.fairness.slowdown[i]));
    }
    outcome.counters.set("fairness", "weighted_speedup_milli",
                         toMilli(outcome.fairness.weightedSpeedup));
    outcome.counters.set("fairness", "harmonic_speedup_milli",
                         toMilli(outcome.fairness.harmonicSpeedup));
    outcome.counters.set("fairness", "unfairness_milli",
                         toMilli(outcome.fairness.unfairness));
    outcome.counters.set(
        "fairness", "arbitration",
        static_cast<std::uint64_t>(config.mem.dram.arbitration));
    return contentionRunOutput(outcome, mix);
}

/** Installs a job's tally for the body's thread; reports on finish. */
class JobScope
{
  public:
    explicit JobScope(TraceCollector &collector) : _collector(&collector)
    {
        times.startNs = collector.sinceStartNs();
        t_tally = &tally;
        t_childNs = nullptr;
    }

    ~JobScope() { t_tally = nullptr; }

    JobScope(const JobScope &) = delete;
    JobScope &operator=(const JobScope &) = delete;

    void
    finish()
    {
        times.endNs = _collector->sinceStartNs();
        _collector->add(tally, times);
    }

    Tally tally;
    TraceCollector::JobTimes times;

  private:
    TraceCollector *_collector;
};

} // namespace

void
Tally::merge(const Tally &other)
{
    for (std::size_t i = 0; i < selfNs.size(); ++i) {
        selfNs[i] += other.selfNs[i];
        totalNs[i] += other.totalNs[i];
    }
    genInstrs += other.genInstrs;
    cpuInstrs += other.cpuInstrs;
    memAccesses += other.memAccesses;
    for (std::size_t lv = 0; lv < demandAccesses.size(); ++lv) {
        demandAccesses[lv] += other.demandAccesses[lv];
        primaryMisses[lv] += other.primaryMisses[lv];
    }
    shadowL1Misses += other.shadowL1Misses;
    l3MshrStalls += other.l3MshrStalls;
    dramLines += other.dramLines;
    pfIssued += other.pfIssued;
    pfUsed += other.pfUsed;
    pfFilteredDropped += other.pfFilteredDropped;
    fillQueueHwm = std::max(fillQueueHwm, other.fillQueueHwm);
    windowDeferrals += other.windowDeferrals;
    bandwidthStallCycles += other.bandwidthStallCycles;
    shortRuns += other.shortRuns;
}

void
TraceCollector::start()
{
    _startNs = nowNs();
}

std::uint64_t
TraceCollector::sinceStartNs() const
{
    return nowNs() - _startNs;
}

void
TraceCollector::add(const Tally &tally, const JobTimes &times)
{
    std::lock_guard lock(_mutex);
    _tally.merge(tally);
    _jobs.push_back(times);
}

Tally
TraceCollector::tally() const
{
    std::lock_guard lock(_mutex);
    return _tally;
}

std::vector<TraceCollector::JobTimes>
TraceCollector::jobTimes() const
{
    std::lock_guard lock(_mutex);
    return _jobs;
}

void
addTracedJobs(runner::SweepRunner &sweep, const Plan &plan,
              const std::shared_ptr<TraceCollector> &collector)
{
    // One baseline per workload per sweep, shared by the jobs as the
    // production sweep shares its BaselineCache.
    auto cache = std::make_shared<BaselineCache>();
    for (const Cell &cell : plan.cells) {
        if (cell.mix) {
            const ContentionMix *mix = cell.mix;
            const ArbitrationPolicy policy = cell.arbitration;
            sweep.addJob(
                cell.label(),
                [mix, policy, collector](ExperimentRunner &runner) {
                    JobScope scope(*collector);
                    SimConfig config = runner.config();
                    config.mem.dram.arbitration = policy;
                    std::vector<RunOutput> outs{
                        tracedContention(config, *mix)};
                    scope.finish();
                    return outs;
                },
                cell.variant);
            continue;
        }
        const WorkloadSpec *spec = cell.spec;
        const std::string prefetcher = cell.prefetcher;
        // addJob derives its seed from the label alone; restore the
        // seed addCell gives this cell so the drop RNG matches.
        const std::uint64_t seed = cell.seed();
        sweep.addJob(
            cell.label(),
            [spec, prefetcher, seed, cache,
             collector](ExperimentRunner &runner) {
                JobScope scope(*collector);
                SimConfig config = runner.config();
                config.mem.dram.rngSeed = seed;
                std::uint64_t compute_ns = 0;
                const std::uint64_t asked = nowNs();
                const ExperimentRunner::Baseline &base =
                    cache->get(spec->name, [&] {
                        const std::uint64_t begin = nowNs();
                        ExperimentRunner::Baseline computed =
                            tracedBaseline(config, *spec);
                        compute_ns = nowNs() - begin;
                        return computed;
                    });
                scope.times.baselineWaitNs = nowNs() - asked - compute_ns;
                std::vector<RunOutput> outs{
                    tracedRun(config, *spec, prefetcher, base)};
                scope.finish();
                return outs;
            },
            cell.variant);
    }
}

void
armSetupProbe()
{
    g_probeArmed.store(true);
}

} // namespace dolbench
