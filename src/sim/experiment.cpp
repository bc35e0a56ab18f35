#include "sim/experiment.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <stdexcept>

#include "core/registry.hpp"
#include "trace/context.hpp"
#include "trace/trace_io.hpp"

namespace dol
{

const ExperimentRunner::Baseline &
ExperimentRunner::baseline(const WorkloadSpec &spec)
{
    if (_shared) {
        return _shared->get(spec.name,
                            [&] { return computeBaseline(spec); });
    }
    auto it = _baselines.find(spec.name);
    if (it != _baselines.end())
        return it->second;
    return _baselines.emplace(spec.name, computeBaseline(spec))
        .first->second;
}

ExperimentRunner::Baseline
ExperimentRunner::computeBaseline(const WorkloadSpec &spec)
{
    Baseline base;
    base.stratifier = std::make_shared<OfflineStratifier>();
    auto shadow = std::make_shared<ShadowRecord>();

    MemoryImage image;
    auto kernel = spec.factory(image);

    // One batched pass of Simulator::run with no prefetcher and no
    // accounting: the core and hierarchy give the baseline IPC, the
    // live shadow walk is recorded for the measured runs, and the
    // demand stream feeds the ground-truth classifier on the way.
    MemorySystem mem(_config.mem);
    mem.recordShadow(shadow.get());
    Core core(_config.core);
    std::array<Instr, 256> batch;
    std::uint64_t instrs = 0;
    while (instrs < _config.maxInstrs) {
        const std::size_t got = kernel->nextBatch(
            batch.data(), static_cast<std::size_t>(std::min<std::uint64_t>(
                              _config.maxInstrs - instrs, batch.size())));
        if (got == 0)
            break;
        for (std::size_t i = 0; i < got; ++i) {
            const Instr &instr = batch[i];
            if (instr.isMem())
                base.stratifier->observe(instr.pc, instr.addr);
            core.step(instr, mem);
        }
        instrs += got;
    }
    shadow->close(mem.shared().baselineDramLines());

    const Cycle cycles = core.stats().cycles;
    base.ipc = cycles ? static_cast<double>(instrs) / cycles : 0.0;
    base.l1Misses = mem.stats().level[kL1].primaryMisses;
    base.mpkiL1 = instrs ? 1000.0 * static_cast<double>(base.l1Misses) /
                               static_cast<double>(instrs)
                         : 0.0;
    base.shadow = std::move(shadow);
    return base;
}

const ExperimentRunner::Baseline &
BaselineCache::get(
    const std::string &key,
    const std::function<ExperimentRunner::Baseline()> &compute)
{
    std::promise<ExperimentRunner::Baseline> promise;
    std::shared_future<ExperimentRunner::Baseline> future;
    bool owner = false;
    {
        std::lock_guard lock(_mutex);
        auto it = _futures.find(key);
        if (it == _futures.end()) {
            future = promise.get_future().share();
            _futures.emplace(key, future);
            owner = true;
        } else {
            future = it->second;
        }
    }
    if (owner) {
        try {
            promise.set_value(compute());
        } catch (...) {
            // Don't memoize the failure: evict the entry (it is ours —
            // only the owner inserts, nothing else erases) so a retry
            // of the job recomputes instead of replaying the cached
            // exception forever. Waiters already holding copies of
            // the shared future still observe this exception once.
            {
                std::lock_guard lock(_mutex);
                _futures.erase(key);
            }
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

std::size_t
BaselineCache::size() const
{
    std::lock_guard lock(_mutex);
    return _futures.size();
}

RunOutput
ExperimentRunner::run(const WorkloadSpec &spec,
                      const std::string &prefetcher_name,
                      const RunOptions &options)
{
    const Baseline &base = baseline(spec);

    MemoryImage image;
    auto kernel = spec.factory(image);
    auto prefetcher =
        options.factory
            ? options.factory(&image)
            : makePrefetcher(prefetcher_name, &image,
                             options.adaptiveCoordinator);

    // The paper's scope and accuracy bookkeeping, owned here because
    // this run's report is its only reader.
    PrefetchAccounting acct;
    acct.setStratifier(base.stratifier.get());
    if (options.exclude)
        acct.setExcludeSet(options.exclude);

    Simulator sim(_config, *kernel, prefetcher.get());
    sim.setListener(&acct);
    if (base.shadow)
        sim.mem().replayShadow(base.shadow.get());
    if (options.adaptiveCoordinator) {
        // Feed the degree schedule's pressure signal from the shared
        // DRAM controller. The probe only fires inside sim.run(), so
        // the captured reference never outlives the simulator.
        if (auto *composite =
                dynamic_cast<CompositePrefetcher *>(prefetcher.get())) {
            MemorySystem &mem = sim.mem();
            composite->setPressureProbe([&mem] {
                return mem.shared().dram().stats().windowDeferrals;
            });
        }
    }
    if (options.forceDest)
        sim.emitter().forceDestLevel(options.forceDest);
    if (options.oracleDest) {
        const OfflineStratifier *strat = base.stratifier.get();
        sim.emitter().setDestOracle([strat](Addr addr, unsigned) {
            return strat->classify(addr) == Fruit::kLHF ? kL1 : kL2;
        });
    }

    // Observability: a trace path attaches a binary sink; counters
    // alone attach a sink-less context (tallies only). Neither touches
    // the defaults, so untraced runs keep the null-pointer fast path.
    const bool tracing = !options.tracePath.empty();
    const bool counting = options.collectCounters || tracing;
    TraceContext trace_ctx;
    TraceWriter trace_writer;
    std::optional<WriterTraceSink> trace_sink;
    if (tracing) {
        if (!trace_writer.open(options.tracePath)) {
            throw std::runtime_error("trace: " + trace_writer.error());
        }
        trace_sink.emplace(trace_writer);
        trace_ctx.setSink(&*trace_sink);
    }
    if (counting)
        sim.setTraceContext(&trace_ctx);

    sim.run(_cancel);
    sim.mem().finishShadowReplay();

    RunOutput out;
    if (counting) {
        sim.exportCounters(out.counters);
        trace_ctx.exportEventCounts(out.counters);
    }
    if (tracing) {
        if (!trace_writer.close()) {
            throw std::runtime_error("trace: " + trace_writer.error());
        }
        out.counters.set("trace", "events", trace_writer.eventCount());
        out.counters.set("trace", "bytes_fnv64", trace_writer.digest());
    }
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
        return shadow > real
                   ? static_cast<double>(shadow - real)
                   : -static_cast<double>(real - shadow);
    };
    const double avoided_l1 =
        avoided(mem.level[kL1].shadowMisses,
                mem.level[kL1].primaryMisses);
    const double avoided_l2 =
        avoided(mem.level[kL2].shadowMisses,
                mem.level[kL2].primaryMisses);

    out.effAccuracyL1 =
        out.prefetchesIssued
            ? avoided_l1 / static_cast<double>(out.prefetchesIssued)
            : 0.0;
    out.effAccuracyL2 =
        out.prefetchesIssued
            ? avoided_l2 / static_cast<double>(out.prefetchesIssued)
            : 0.0;
    out.effCoverageL1 =
        mem.level[kL1].shadowMisses
            ? avoided_l1 /
                  static_cast<double>(mem.level[kL1].shadowMisses)
            : 0.0;
    out.effCoverageL2 =
        mem.level[kL2].shadowMisses
            ? avoided_l2 /
                  static_cast<double>(mem.level[kL2].shadowMisses)
            : 0.0;

    const std::uint64_t baseline_lines =
        sim.mem().shared().baselineDramLines();
    out.trafficNormalized =
        baseline_lines
            ? static_cast<double>(sim.mem().dramLines()) /
                  static_cast<double>(baseline_lines)
            : 1.0;

    out.scope = acct.scope();
    for (unsigned f = 0; f < kNumFruit; ++f) {
        out.categories[f] = acct.category(static_cast<Fruit>(f));
        out.categoryScope[f] =
            acct.scopeInCategory(static_cast<Fruit>(f));
    }
    out.focus = acct.focus();
    out.focusScope = acct.focusScope();

    // Per-component outputs.
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

    out.pfp = acct.takePfp();
    return out;
}

SimConfig
makeBenchConfig(std::uint64_t max_instrs)
{
    SimConfig config;
    config.maxInstrs = max_instrs;
    if (const char *quick = std::getenv("DOL_QUICK");
        quick && quick[0] == '1') {
        config.maxInstrs = std::min<std::uint64_t>(max_instrs, 60000);
    }
    return config;
}

} // namespace dol
