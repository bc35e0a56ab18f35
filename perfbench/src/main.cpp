/**
 * @file
 * dolbench: runs one benchmark workload as a sweep through the
 * production path (runner::SweepRunner → ExperimentRunner →
 * Simulator / MulticoreSimulator), checks its outputs and prints its
 * metrics as the last line of stdout. perfbench/run.py builds it,
 * adds the set-up time and is the command to use; see README.md.
 *
 *   dolbench --workload W --seed N --seconds S --trace 0|1
 *   dolbench --workload W --seed N --probe-setup
 *
 * --trace 0 repeats the untraced sweep for S seconds and prints the
 * end-to-end metrics (all but setup_s, which run.py measures).
 * --trace 1 runs the untraced sweep, a counter-collecting reference
 * at one worker, and the traced sweep, checks all three agree, and
 * prints the per-layer metrics. --probe-setup prints the monotonic
 * time of the first simulated instruction and exits.
 * The exit code is 1 when an output check failed, 2 on a usage or
 * internal error (no result printed then).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "plan.hpp"
#include "runner/sweep.hpp"
#include "runner/thread_pool.hpp"
#include "traced.hpp"

namespace
{

using namespace dol;
using namespace dolbench;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool probeSetup = false;
};

bool
parseUnsigned(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-')
        return false;
    out = value;
    return true;
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--probe-setup") {
            args.probeSetup = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const char *value = argv[++i];
        std::uint64_t number = 0;
        if (arg == "--workload") {
            args.workload = value;
        } else if (arg == "--seed" && parseUnsigned(value, number)) {
            args.seed = number;
        } else if (arg == "--seconds" && parseUnsigned(value, number) &&
                   number > 0 && number <= 3600) {
            args.seconds = static_cast<double>(number);
        } else if (arg == "--trace" && parseUnsigned(value, number) &&
                   number <= 1) {
            args.trace = number == 1;
        } else {
            return false;
        }
    }
    return !args.workload.empty();
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** User plus system CPU time of the whole process (getrusage). */
double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB → MiB
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

/** Build facts a comparison between two results must state. */
void
printProvenance(const Plan &plan)
{
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    std::printf("provenance {\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"optimize\": %s, \"ndebug\": %s, \"lto\": %s, "
                "\"hardware_threads\": %u, \"jobs\": %u, "
                "\"instrs_per_run\": %llu}\n",
                __VERSION__, DOL_BENCH_BUILD_TYPE,
                optimized ? "true" : "false", ndebug ? "true" : "false",
                DOL_BENCH_LTO ? "true" : "false", runner::hardwareJobs(),
                plan.jobs,
                static_cast<unsigned long long>(plan.config.maxInstrs));
    if (!optimized) {
        std::fprintf(stderr, "dolbench: WARNING: unoptimized build; host "
                             "timings are not comparable\n");
    }
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        if (i)
            line += ", ";
        line += "\"" + metrics[i].name + "\": {\"value\": " + value +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

struct SweepRun
{
    std::vector<RunOutput> outputs;
    std::uint64_t quarantined = 0;
    double wallS = 0.0;
    /** CPU time of every thread of the process during the sweep. */
    double cpuS = 0.0;
};

SweepRun
runProduction(const Plan &plan, unsigned jobs, bool collect_counters)
{
    runner::SweepRunner sweep(plan.config, sweepOptions(jobs));
    addProductionJobs(sweep, plan, collect_counters);
    SweepRun run;
    const double wall0 = wallSeconds();
    const double cpu0 = processCpuSeconds();
    runner::SweepRunner::Report report = sweep.run();
    run.cpuS = processCpuSeconds() - cpu0;
    run.wallS = wallSeconds() - wall0;
    run.outputs = std::move(report.outputs);
    run.quarantined = report.meta.failedCells.size();
    for (const runner::FailedCell &cell : report.meta.failedCells) {
        std::fprintf(stderr, "dolbench: cell %s%s failed: %s\n",
                     cell.label.c_str(), cell.variant.c_str(),
                     cell.error.c_str());
    }
    return run;
}

std::vector<std::string>
texts(const std::vector<RunOutput> &outs, bool with_counters)
{
    std::vector<std::string> out;
    for (const RunOutput &run : outs)
        out.push_back(canonicalText(run, with_counters));
    return out;
}

/** Cells whose texts differ (a length mismatch counts every cell). */
std::uint64_t
mismatches(const Plan &plan, const std::vector<std::string> &a,
           const std::vector<std::string> &b, const char *what)
{
    if (a.size() != b.size()) {
        std::fprintf(stderr, "dolbench: %s: %zu vs %zu outputs\n", what,
                     a.size(), b.size());
        return plan.cells.size();
    }
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i]) {
            std::fprintf(stderr, "dolbench: %s: cell %s differs\n", what,
                         plan.cells[i].label().c_str());
            ++count;
        }
    }
    return count;
}

std::uint64_t
reportFailures(const std::vector<std::string> &failures)
{
    for (const std::string &failure : failures)
        std::fprintf(stderr, "dolbench: check failed: %s\n", failure.c_str());
    return failures.size();
}

std::vector<Metric>
simulatedMetricList(const Plan &plan, const std::vector<RunOutput> &outs)
{
    const SimulatedMetrics sim = simulatedMetrics(plan, outs);
    return {
        {"speedup_geomean", sim.speedupGeomean, "x"},
        {"eff_accuracy_l1", sim.effAccuracyL1, "ratio"},
        {"eff_coverage_l1", sim.effCoverageL1, "ratio"},
        {"traffic_norm", sim.trafficNorm, "x"},
        {"weighted_speedup", sim.weightedSpeedup, "x"},
        {"unfairness", sim.unfairness, "x"},
    };
}

bool
allFinite(const std::vector<Metric> &metrics)
{
    for (const Metric &metric : metrics) {
        if (!std::isfinite(metric.value)) {
            std::fprintf(stderr, "dolbench: metric %s is not finite\n",
                         metric.name.c_str());
            return false;
        }
    }
    return true;
}

/**
 * --trace 0: repeat the untraced sweep for the run's seconds and
 * report the median sweep's wall and CPU time.
 */
int
runTimed(const Plan &plan, double seconds)
{
    const double instrs = static_cast<double>(plan.sweepInstructions());
    std::vector<double> wall_s;
    std::vector<double> cpu_s;
    std::vector<std::string> reference;
    std::vector<RunOutput> first;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    // Sweeps repeat while another one still fits in the run's
    // seconds. The first one's outputs are checked; every later one
    // must reproduce them byte for byte.
    const double start = wallSeconds();
    for (unsigned rep = 0;; ++rep) {
        SweepRun run = runProduction(plan, plan.jobs, false);
        attempted += plan.cells.size();
        failed += run.quarantined;
        std::vector<std::string> now = texts(run.outputs, false);
        if (rep == 0) {
            failed += reportFailures(checkOutputs(plan, run.outputs));
            reference = std::move(now);
            first = std::move(run.outputs);
        } else {
            failed += mismatches(plan, reference, now, "repeat sweep");
        }
        wall_s.push_back(run.wallS);
        cpu_s.push_back(run.cpuS);
        std::fprintf(stderr, "dolbench: sweep %u: %.3f s wall, %.3f s cpu\n",
                     rep, run.wallS, run.cpuS);
        if (wallSeconds() - start + run.wallS > seconds)
            break;
    }

    std::vector<Metric> metrics = {
        {"minstr_per_s", instrs / median(wall_s) / 1e6, "Minstr/s"},
        {"minstr_per_cpu_s", instrs / median(cpu_s) / 1e6, "Minstr/CPU-s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"cells_ok_frac",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
         "ratio"},
    };
    for (Metric &metric : simulatedMetricList(plan, first))
        metrics.push_back(std::move(metric));
    if (!allFinite(metrics))
        ++failed;
    printResult(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
}

/** --trace 1: the traced sweep, checked against two production runs. */
int
runTraced(const Plan &plan)
{
    std::uint64_t failed = 0;
    const std::uint64_t attempted = 3 * plan.cells.size();

    // The untraced sweep as --trace 0 times it.
    const SweepRun untraced = runProduction(plan, plan.jobs, false);
    failed += untraced.quarantined;
    failed += reportFailures(checkOutputs(plan, untraced.outputs));

    // Reference: one worker, counters collected. Its results must
    // equal the untraced sweep's (worker count and counter collection
    // change no simulated result) and the traced sweep's, counters
    // included.
    const SweepRun reference = runProduction(plan, 1, true);
    failed += reference.quarantined;
    failed += mismatches(plan, texts(untraced.outputs, false),
                         texts(reference.outputs, false),
                         "untraced sweep vs one-worker sweep");

    auto collector = std::make_shared<TraceCollector>();
    runner::SweepRunner sweep(plan.config, sweepOptions(plan.jobs));
    addTracedJobs(sweep, plan, collector);
    const double wall0 = wallSeconds();
    collector->start();
    runner::SweepRunner::Report report = sweep.run();
    const double traced_s = wallSeconds() - wall0;
    failed += report.meta.failedCells.size();
    for (const runner::FailedCell &cell : report.meta.failedCells) {
        std::fprintf(stderr, "dolbench: traced cell %s%s failed: %s\n",
                     cell.label.c_str(), cell.variant.c_str(),
                     cell.error.c_str());
    }
    failed += mismatches(plan, texts(reference.outputs, true),
                         texts(report.outputs, true),
                         "traced sweep vs production sweep");

    const Tally t = collector->tally();
    if (t.shortRuns) {
        std::fprintf(stderr, "dolbench: %llu baseline/solo runs stopped "
                             "short of their budget\n",
                     static_cast<unsigned long long>(t.shortRuns));
        failed += t.shortRuns;
    }

    const auto self_ms = [&](Layer layer) {
        return static_cast<double>(t.selfNs[static_cast<unsigned>(layer)]) /
               1e6;
    };
    const auto total_ms = [&](Layer layer) {
        return static_cast<double>(t.totalNs[static_cast<unsigned>(layer)]) /
               1e6;
    };
    const auto ratio = [](std::uint64_t num, std::uint64_t den) {
        return den ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
    };

    // Runner view: every job's body span, relative to the sweep start.
    const std::vector<TraceCollector::JobTimes> jobs = collector->jobTimes();
    std::uint64_t queue_wait = 0;
    std::uint64_t baseline_wait = 0;
    std::uint64_t busy = 0;
    std::uint64_t makespan = 0;
    std::uint64_t last_start = 0;
    for (const TraceCollector::JobTimes &job : jobs) {
        queue_wait += job.startNs;
        baseline_wait += job.baselineWaitNs;
        busy += job.endNs - job.startNs;
        makespan = std::max(makespan, job.endNs);
        last_start = std::max(last_start, job.startNs);
    }
    // The pool stops being full at the first job end after the last
    // job started: from then on a worker idles until the sweep ends.
    std::uint64_t not_full = makespan;
    for (const TraceCollector::JobTimes &job : jobs) {
        if (job.endNs >= last_start)
            not_full = std::min(not_full, job.endNs);
    }
    const unsigned workers = std::max(1u, plan.jobs);

    const std::uint64_t attempts = t.pfIssued + t.pfFilteredDropped;
    const std::vector<Metric> metrics = {
        {"sim.baseline_ms", total_ms(Layer::kBaseline), "ms"},
        {"sim.baseline_frac",
         busy ? total_ms(Layer::kBaseline) * 1e6 / static_cast<double>(busy)
              : 0.0,
         "ratio"},
        {"sim.measured_ms", total_ms(Layer::kMeasured), "ms"},
        {"sim.solo_ms", total_ms(Layer::kSolo), "ms"},
        {"sim.mix_ms", total_ms(Layer::kMix), "ms"},
        {"workloads.build_ms", total_ms(Layer::kBuild), "ms"},
        {"workloads.gen_ns_per_instr",
         ratio(t.selfNs[static_cast<unsigned>(Layer::kGen)], t.genInstrs),
         "ns/instr"},
        {"cpu.step_ns_per_instr",
         ratio(t.selfNs[static_cast<unsigned>(Layer::kCpu)], t.cpuInstrs),
         "ns/instr"},
        {"mem.demand_ns_per_access",
         ratio(t.selfNs[static_cast<unsigned>(Layer::kMem)], t.memAccesses),
         "ns/access"},
        {"metrics.listener_ms", self_ms(Layer::kListener), "ms"},
        {"metrics.stratify_ms", self_ms(Layer::kStratify), "ms"},
        {"core.tpc_ms", self_ms(Layer::kCore), "ms"},
        {"prefetch.spp_ms", self_ms(Layer::kSpp), "ms"},
        {"prefetch.triangel_ms", self_ms(Layer::kTriangel), "ms"},
        {"prefetch.pchase_ms", self_ms(Layer::kPChase), "ms"},
        {"runner.queue_wait_ms", static_cast<double>(queue_wait) / 1e6, "ms"},
        {"runner.baseline_wait_ms", static_cast<double>(baseline_wait) / 1e6,
         "ms"},
        {"runner.busy_frac",
         makespan ? static_cast<double>(busy) /
                        (static_cast<double>(workers) *
                         static_cast<double>(makespan))
                  : 0.0,
         "ratio"},
        {"runner.tail_ms", static_cast<double>(makespan - not_full) / 1e6,
         "ms"},
        {"mem.demand_accesses", static_cast<double>(t.demandAccesses[kL1]),
         "count"},
        {"mem.l1_miss_rate", ratio(t.primaryMisses[kL1], t.demandAccesses[kL1]),
         "ratio"},
        {"mem.l2_miss_rate", ratio(t.primaryMisses[kL2], t.demandAccesses[kL2]),
         "ratio"},
        {"mem.l3_miss_rate", ratio(t.primaryMisses[kL3], t.demandAccesses[kL3]),
         "ratio"},
        {"mem.shadow_l1_misses", static_cast<double>(t.shadowL1Misses),
         "count"},
        {"mem.dram_lines", static_cast<double>(t.dramLines), "count"},
        {"prefetch.issued", static_cast<double>(t.pfIssued), "count"},
        {"prefetch.useful_frac", ratio(t.pfUsed, t.pfIssued), "ratio"},
        {"prefetch.dropped_frac", ratio(t.pfFilteredDropped, attempts),
         "ratio"},
        {"sim.fill_queue_hwm", static_cast<double>(t.fillQueueHwm), "count"},
        {"dram.window_deferrals", static_cast<double>(t.windowDeferrals),
         "count"},
        {"dram.bandwidth_stall_cycles",
         static_cast<double>(t.bandwidthStallCycles), "count"},
        {"mem.l3_mshr_stalls", static_cast<double>(t.l3MshrStalls), "count"},
        {"trace.overhead_frac", traced_s / untraced.wallS - 1.0, "ratio"},
    };
    if (t.memAccesses != t.demandAccesses[kL1]) {
        std::fprintf(stderr, "dolbench: port saw %llu accesses, L1 counted "
                             "%llu\n",
                     static_cast<unsigned long long>(t.memAccesses),
                     static_cast<unsigned long long>(t.demandAccesses[kL1]));
        ++failed;
    }
    if (!allFinite(metrics))
        ++failed;
    std::fprintf(stderr, "dolbench: untraced %.3f s, one-worker reference "
                         "%.3f s, traced %.3f s\n",
                 untraced.wallS, reference.wallS, traced_s);
    printResult(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
}

/** --probe-setup: run the traced sweep until its first instruction. */
int
runProbe(const Plan &plan)
{
    armSetupProbe();
    auto collector = std::make_shared<TraceCollector>();
    runner::SweepRunner sweep(plan.config, sweepOptions(plan.jobs));
    addTracedJobs(sweep, plan, collector);
    collector->start();
    sweep.run();
    std::fprintf(stderr, "dolbench: probe reached no instruction\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: dolbench --workload NAME --seed N "
                     "[--seconds S] [--trace 0|1] [--probe-setup]\n");
        return 2;
    }
    try {
        Plan plan;
        if (!makePlan(args.workload, args.seed, plan)) {
            std::fprintf(stderr, "dolbench: unknown workload %s\n",
                         args.workload.c_str());
            return 2;
        }
        if (args.probeSetup)
            return runProbe(plan);
        printProvenance(plan);
        std::fflush(stdout);
        return args.trace ? runTraced(plan) : runTimed(plan, args.seconds);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dolbench: %s\n", e.what());
        return 2;
    }
}
