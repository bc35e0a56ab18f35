#include "sim/contention.hpp"

#include <numeric>

#include "core/registry.hpp"

namespace dol
{

namespace
{

/** Milli-scaled registry encoding of a non-negative fraction. */
std::uint64_t
toMilli(double value)
{
    return value > 0.0
               ? static_cast<std::uint64_t>(value * 1000.0 + 0.5)
               : 0;
}

/**
 * One core's workload alone on the machine, with the L3 scaled to
 * the mix's core count so solo and mix runs see the same capacity —
 * the slowdown then isolates contention, not cache size. Only the
 * IPC is read, so the run is timing-only: no shadow world and no
 * accounting.
 */
double
runSolo(const SimConfig &config, const CoreSpec &spec,
        unsigned num_cores)
{
    const WorkloadSpec &workload = findWorkload(spec.workload);
    MemoryImage image;
    auto kernel = workload.factory(image);
    auto prefetcher = spec.prefetcher.empty()
                          ? nullptr
                          : makePrefetcher(spec.prefetcher, &image);

    SimConfig solo = config;
    if (spec.maxInstrs)
        solo.maxInstrs = spec.maxInstrs;
    auto shared = std::make_shared<SharedMemory>(solo.mem, num_cores);
    Simulator sim(solo, *kernel, prefetcher.get(), shared);
    sim.mem().skipShadow();
    sim.run();
    return sim.ipc();
}

} // namespace

ContentionOutcome
runContentionScenario(const SimConfig &config, const ContentionMix &mix)
{
    ContentionOutcome outcome;
    outcome.mixName = mix.name;

    const unsigned num_cores =
        static_cast<unsigned>(mix.cores.size());
    for (const CoreSpec &spec : mix.cores)
        outcome.soloIpc.push_back(runSolo(config, spec, num_cores));

    MulticoreSimulator mc(config, mix.cores);
    outcome.result = mc.run();
    outcome.fairness =
        computeFairness(outcome.soloIpc, outcome.result.ipc);

    mc.exportCounters(outcome.counters);
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
    return outcome;
}

RunOutput
contentionRunOutput(const ContentionOutcome &outcome,
                    const ContentionMix &mix)
{
    RunOutput out;
    out.workload = "mix:" + mix.name;
    out.prefetcher = mixPrefetcherLabel(mix);
    out.ipc = std::accumulate(outcome.result.ipc.begin(),
                              outcome.result.ipc.end(), 0.0);
    out.baselineIpc = std::accumulate(outcome.soloIpc.begin(),
                                      outcome.soloIpc.end(), 0.0);
    out.instructions =
        std::accumulate(outcome.result.instructions.begin(),
                        outcome.result.instructions.end(),
                        std::uint64_t{0});
    out.counters = outcome.counters;
    return out;
}

} // namespace dol
