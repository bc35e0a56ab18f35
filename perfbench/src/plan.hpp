/**
 * @file
 * The benchmark's workloads: each one is a sweep grid queued on a
 * runner::SweepRunner exactly as dolsim queues it, plus the checks and
 * the simulated end-to-end metrics computed from the sweep's outputs.
 */

#ifndef DOL_PERFBENCH_PLAN_HPP
#define DOL_PERFBENCH_PLAN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "mem/dram.hpp"
#include "runner/sweep.hpp"
#include "sim/experiment.hpp"
#include "workloads/contention.hpp"
#include "workloads/suite.hpp"

namespace dolbench
{

/** One sweep job: a single-core cell or a contention mix. */
struct Cell
{
    /** Single-core cell (mix == nullptr): workload × prefetcher. */
    const dol::WorkloadSpec *spec = nullptr;
    std::string prefetcher;

    /** Contention cell: a named mix under one arbitration policy. */
    const dol::ContentionMix *mix = nullptr;
    dol::ArbitrationPolicy arbitration = dol::ArbitrationPolicy::kDemandFirst;

    /** Sweep variant; the benchmark seed enters here as ":s<seed>". */
    std::string variant;

    /** The job label dolsim gives this cell. */
    std::string label() const;

    /** The per-cell seed the production sweep derives (it becomes
     *  the DRAM drop-RNG seed). */
    std::uint64_t seed() const;
};

struct Plan
{
    unsigned jobs = 1;
    dol::SimConfig config;
    std::vector<Cell> cells;

    /** Simulated instructions of one full sweep: every measured,
     *  baseline, solo and mix run. */
    std::uint64_t sweepInstructions() const;
};

/** Build the grid of workload @p name; false on an unknown name. */
bool makePlan(const std::string &name, std::uint64_t seed, Plan &out);

/** Sweep options the benchmark runs with: @p jobs workers, no
 *  progress line, failed cells quarantined as dolsim does. */
dol::runner::SweepOptions sweepOptions(unsigned jobs);

/** Queue @p plan on @p sweep through the production job bodies. */
void addProductionJobs(dol::runner::SweepRunner &sweep, const Plan &plan,
                       bool collect_counters);

/**
 * Exact text of one run's simulated results: every scalar at full
 * precision, per category and per component, and (optionally) the
 * counter snapshot. Two runs agree iff their texts are byte-equal.
 */
std::string canonicalText(const dol::RunOutput &out, bool with_counters);

/**
 * Output checks on one sweep: one output per cell, in cell order,
 * each with its full instruction budget and finite, in-range results.
 * Returns one message per failed cell (index-tagged); empty = clean.
 */
std::vector<std::string> checkOutputs(const Plan &plan,
                                      const std::vector<dol::RunOutput> &outs);

/** The simulated end-to-end metrics of one sweep. */
struct SimulatedMetrics
{
    double speedupGeomean = 0.0;
    double effAccuracyL1 = 0.0;
    double effCoverageL1 = 0.0;
    double trafficNorm = 0.0;
    double weightedSpeedup = 0.0;
    double unfairness = 0.0;
};

SimulatedMetrics simulatedMetrics(const Plan &plan,
                                  const std::vector<dol::RunOutput> &outs);

} // namespace dolbench

#endif // DOL_PERFBENCH_PLAN_HPP
