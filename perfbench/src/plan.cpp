#include "plan.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include "runner/thread_pool.hpp"
#include "sim/contention.hpp"

namespace dolbench
{

using namespace dol;

namespace
{

/** Host workers of suite_tpc: dolsim's default on a 4-thread host,
 *  capped so larger hosts run the same schedule shape. */
constexpr unsigned kMaxSuiteJobs = 4;

/** Instruction budgets: long enough that each sweep runs for seconds
 *  on one host core, so per-sweep timings repeat. */
constexpr std::uint64_t kSingleCoreInstrs = 1000000;
constexpr std::uint64_t kMixInstrsPerCore = 300000;

std::string
seedVariant(std::uint64_t seed)
{
    return ":s" + std::to_string(seed);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double value : values)
        log_sum += std::log(value);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/** Flattened "scope.name" → value view of a counter snapshot. */
std::map<std::string, std::uint64_t>
counterMap(const CounterRegistry &counters)
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[key, value] : counters.sorted())
        out.emplace(key, value);
    return out;
}

std::uint64_t
mixBudget(const SimConfig &config, const ContentionMix &mix)
{
    std::uint64_t total = 0;
    for (const CoreSpec &core : mix.cores)
        total += core.maxInstrs ? core.maxInstrs : config.maxInstrs;
    return total;
}

void
appendDouble(std::string &out, const char *key, double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%s=%.17g\n", key, value);
    out += buffer;
}

void
appendCount(std::string &out, const char *key, std::uint64_t value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%s=%" PRIu64 "\n", key, value);
    out += buffer;
}

bool
finite(std::initializer_list<double> values)
{
    for (const double value : values) {
        if (!std::isfinite(value))
            return false;
    }
    return true;
}

} // namespace

std::string
Cell::label() const
{
    if (mix)
        return "mix:" + mix->name;
    return prefetcher + "/" + spec->name + variant;
}

std::uint64_t
Cell::seed() const
{
    if (mix)
        return runner::cellSeed(label(), "", variant);
    return runner::cellSeed(spec->name, prefetcher, variant);
}

std::uint64_t
Plan::sweepInstructions() const
{
    std::uint64_t total = 0;
    std::set<std::string> baselines;
    for (const Cell &cell : cells) {
        if (cell.mix) {
            // Solo runs plus the contended run, each core to budget.
            total += 2 * mixBudget(config, *cell.mix);
            continue;
        }
        total += config.maxInstrs;
        if (baselines.insert(cell.spec->name).second)
            total += config.maxInstrs;
    }
    return total;
}

bool
makePlan(const std::string &name, std::uint64_t seed, Plan &out)
{
    out = Plan{};
    const std::string variant = seedVariant(seed);

    if (name == "suite_tpc") {
        // The paper's headline sweep (Fig. 8/10/11) as users run it:
        // `dolsim --suite all --prefetcher TPC`.
        out.jobs = std::min(runner::hardwareJobs(), kMaxSuiteJobs);
        out.config.maxInstrs = kSingleCoreInstrs;
        for (const WorkloadSpec &spec : allWorkloads())
            out.cells.push_back({&spec, "TPC", nullptr, {}, variant});
        return true;
    }
    if (name == "composite_grid") {
        // One workload per access pattern × the composite and
        // monolithic configurations, so prefetcher training and issue
        // dominate: the baseline is one run in five.
        static const char *const kWorkloads[] = {
            "libquantum.syn", "lbm.syn",        "mcf.syn",
            "milc.syn",       "omnetpp.syn",    "tempstream.syn",
            "shuflist.syn"};
        static const char *const kPrefetchers[] = {
            "TPC", "SPP", "TPC+SPP", "TPC+SPP+Triangel+PChase"};
        out.jobs = 1;
        out.config.maxInstrs = kSingleCoreInstrs;
        for (const char *workload : kWorkloads) {
            const WorkloadSpec &spec = findWorkload(workload);
            for (const char *prefetcher : kPrefetchers)
                out.cells.push_back(
                    {&spec, prefetcher, nullptr, {}, variant});
        }
        return true;
    }
    if (name == "contention_mixes") {
        // Every named mix under every arbitration policy: the only
        // workload on the shared L3 and DRAM-arbitration path.
        static const char *const kArbitrations[] = {"demand-first",
                                                    "fifo", "rr"};
        out.jobs = 1;
        out.config.maxInstrs = kMixInstrsPerCore;
        for (const ContentionMix &mix : contentionMixes()) {
            for (const char *arb_name : kArbitrations) {
                Cell cell;
                cell.mix = &mix;
                if (!arbitrationFromName(arb_name, cell.arbitration))
                    return false;
                cell.variant =
                    std::string(":arb=") + arb_name + variant;
                out.cells.push_back(std::move(cell));
            }
        }
        return true;
    }
    return false;
}

runner::SweepOptions
sweepOptions(unsigned jobs)
{
    runner::SweepOptions options;
    options.jobs = jobs;
    options.progress = false;
    options.onError = runner::SweepOptions::OnError::kQuarantine;
    return options;
}

void
addProductionJobs(runner::SweepRunner &sweep, const Plan &plan,
                  bool collect_counters)
{
    RunOptions run_options;
    run_options.collectCounters = collect_counters;
    for (const Cell &cell : plan.cells) {
        if (!cell.mix) {
            sweep.addCell(*cell.spec, cell.prefetcher, run_options,
                          cell.variant);
            continue;
        }
        // dolsim's --mix job body.
        const ContentionMix *mix = cell.mix;
        const ArbitrationPolicy policy = cell.arbitration;
        sweep.addJob(
            cell.label(),
            [mix, policy](ExperimentRunner &runner) {
                SimConfig job_config = runner.config();
                job_config.mem.dram.arbitration = policy;
                const ContentionOutcome outcome =
                    runContentionScenario(job_config, *mix);
                return std::vector<RunOutput>{
                    contentionRunOutput(outcome, *mix)};
            },
            cell.variant);
    }
}

std::string
canonicalText(const RunOutput &out, bool with_counters)
{
    std::string text = out.workload + "|" + out.prefetcher + "\n";
    appendDouble(text, "ipc", out.ipc);
    appendDouble(text, "baseline_ipc", out.baselineIpc);
    appendCount(text, "instructions", out.instructions);
    appendCount(text, "prefetches_issued", out.prefetchesIssued);
    appendCount(text, "l1_shadow_misses", out.l1ShadowMisses);
    appendCount(text, "l1_misses", out.l1Misses);
    appendDouble(text, "baseline_mpki_l1", out.baselineMpkiL1);
    appendDouble(text, "scope", out.scope);
    appendDouble(text, "eff_accuracy_l1", out.effAccuracyL1);
    appendDouble(text, "eff_coverage_l1", out.effCoverageL1);
    appendDouble(text, "eff_accuracy_l2", out.effAccuracyL2);
    appendDouble(text, "eff_coverage_l2", out.effCoverageL2);
    appendDouble(text, "traffic_normalized", out.trafficNormalized);
    for (unsigned f = 0; f < kNumFruit; ++f) {
        appendCount(text, "category.issued", out.categories[f].issued);
        appendCount(text, "category.used", out.categories[f].used);
        appendDouble(text, "category.induced",
                     out.categories[f].inducedCredit);
        appendDouble(text, "category.scope", out.categoryScope[f]);
    }
    for (const RunOutput::ComponentOutput &comp : out.components) {
        text += "component=" + comp.name + "\n";
        appendCount(text, "component.issued", comp.issued);
        appendCount(text, "component.used", comp.used);
        appendDouble(text, "component.induced", comp.inducedCredit);
        appendDouble(text, "component.scope", comp.scope);
    }
    appendCount(text, "focus.issued", out.focus.issued);
    appendCount(text, "focus.used", out.focus.used);
    appendDouble(text, "focus.induced", out.focus.inducedCredit);
    appendDouble(text, "focus.scope", out.focusScope);
    if (with_counters)
        text += out.counters.toText();
    return text;
}

std::vector<std::string>
checkOutputs(const Plan &plan, const std::vector<RunOutput> &outs)
{
    std::vector<std::string> failures;
    const auto fail = [&](std::size_t i, const std::string &what) {
        failures.push_back("cell " + std::to_string(i) + " (" +
                           plan.cells[i].label() + "): " + what);
    };
    if (outs.size() != plan.cells.size()) {
        failures.push_back("sweep returned " +
                           std::to_string(outs.size()) +
                           " outputs for " +
                           std::to_string(plan.cells.size()) + " cells");
        return failures;
    }

    const double width = plan.config.core.width;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        const Cell &cell = plan.cells[i];
        const RunOutput &out = outs[i];
        if (!finite({out.ipc, out.baselineIpc, out.speedup(), out.scope,
                     out.effAccuracyL1, out.effCoverageL1,
                     out.effAccuracyL2, out.effCoverageL2,
                     out.trafficNormalized, out.baselineMpkiL1})) {
            fail(i, "non-finite result");
            continue;
        }
        if (cell.mix) {
            const std::uint64_t budget = mixBudget(plan.config, *cell.mix);
            const double cores = static_cast<double>(cell.mix->cores.size());
            const auto counters = counterMap(out.counters);
            const auto ws = counters.find("fairness.weighted_speedup_milli");
            const auto unfair = counters.find("fairness.unfairness_milli");
            if (out.workload != cell.label())
                fail(i, "output for " + out.workload);
            else if (out.instructions != budget)
                fail(i, "ran " + std::to_string(out.instructions) +
                            " of " + std::to_string(budget) +
                            " instructions");
            else if (!(out.ipc > 0.0 && out.ipc <= width * cores &&
                       out.baselineIpc > 0.0 &&
                       out.baselineIpc <= width * cores))
                fail(i, "IPC out of range");
            else if (ws == counters.end() || ws->second == 0 ||
                     unfair == counters.end() || unfair->second < 1000)
                fail(i, "fairness counters missing or out of range");
            continue;
        }
        if (out.workload != cell.spec->name ||
            out.prefetcher != cell.prefetcher)
            fail(i, "output for " + out.prefetcher + "/" + out.workload);
        else if (out.instructions != plan.config.maxInstrs)
            fail(i, "ran " + std::to_string(out.instructions) + " of " +
                        std::to_string(plan.config.maxInstrs) +
                        " instructions");
        else if (!(out.ipc > 0.0 && out.ipc <= width &&
                   out.baselineIpc > 0.0 && out.baselineIpc <= width))
            fail(i, "IPC out of range");
        else if (!(out.effCoverageL1 <= 1.0 && out.effCoverageL2 <= 1.0 &&
                   out.scope >= 0.0 && out.scope <= 1.0))
            fail(i, "coverage or scope out of range");
        else if (!(out.trafficNormalized > 0.0))
            fail(i, "normalized traffic not positive");
    }
    return failures;
}

SimulatedMetrics
simulatedMetrics(const Plan &plan, const std::vector<RunOutput> &outs)
{
    SimulatedMetrics metrics;
    std::vector<double> speedups;
    std::vector<double> traffic;
    std::vector<double> coverage;
    std::vector<double> weighted;
    std::vector<double> unfairness;
    double avoided_sum = 0.0;
    double issued_sum = 0.0;

    for (std::size_t i = 0; i < outs.size() && i < plan.cells.size(); ++i) {
        const RunOutput &out = outs[i];
        speedups.push_back(out.speedup());
        const ContentionMix *mix = plan.cells[i].mix;
        if (!mix) {
            traffic.push_back(out.trafficNormalized);
            coverage.push_back(out.effCoverageL1);
            avoided_sum += out.effAccuracyL1 *
                           static_cast<double>(out.prefetchesIssued);
            issued_sum += static_cast<double>(out.prefetchesIssued);
            continue;
        }

        // Mix rows carry no per-row accuracy: derive the same
        // quantities per core from the merged counter snapshot.
        const auto counters = counterMap(out.counters);
        const auto get = [&](const std::string &key) {
            const auto it = counters.find(key);
            return it == counters.end() ? std::uint64_t{0} : it->second;
        };
        for (std::size_t core = 0; core < mix->cores.size(); ++core) {
            const std::string prefix = "core" + std::to_string(core);
            const double shadow =
                static_cast<double>(get(prefix + ".L1.shadow_misses"));
            const double avoided =
                shadow -
                static_cast<double>(get(prefix + ".L1.primary_misses"));
            const std::string pf_prefix = prefix + ".pf.";
            for (const auto &[key, value] : counters) {
                if (key.starts_with(pf_prefix) &&
                    key.ends_with(".issued"))
                    issued_sum += static_cast<double>(value);
            }
            avoided_sum += avoided;
            if (shadow > 0.0)
                coverage.push_back(avoided / shadow);
        }
        const double baseline_lines =
            static_cast<double>(get("dram.baseline_lines"));
        traffic.push_back(
            baseline_lines > 0.0
                ? static_cast<double>(get("dram.lines")) / baseline_lines
                : 1.0);
        weighted.push_back(
            static_cast<double>(get("fairness.weighted_speedup_milli")) /
            1000.0);
        unfairness.push_back(
            static_cast<double>(get("fairness.unfairness_milli")) / 1000.0);
    }

    metrics.speedupGeomean = geomean(speedups);
    metrics.effAccuracyL1 = issued_sum > 0.0 ? avoided_sum / issued_sum : 0.0;
    double coverage_sum = 0.0;
    for (const double value : coverage)
        coverage_sum += value;
    metrics.effCoverageL1 =
        coverage.empty() ? 0.0
                         : coverage_sum / static_cast<double>(coverage.size());
    metrics.trafficNorm = geomean(traffic);
    // A single core has no co-runner: its mix IPC is its solo IPC, so
    // weighted speedup and unfairness are exactly 1 by definition.
    metrics.weightedSpeedup = weighted.empty() ? 1.0 : geomean(weighted);
    metrics.unfairness = unfairness.empty() ? 1.0 : geomean(unfairness);
    return metrics;
}

} // namespace dolbench
