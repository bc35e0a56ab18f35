/**
 * @file
 * The traced sweep: the same grid as the production sweep, run
 * through job bodies that drive the simulator's public calls from the
 * benchmark's own loop, with a span around each call into a layer.
 *
 * Simulator and MulticoreSimulator keep the core → memory → listener
 * boundaries private, so the traced loop rebuilds them from the
 * public parts (Core, MemorySystem, PrefetchEmitter,
 * PrefetchAccounting, ListenerChain) and interposes timing
 * decorators: a DataPort in front of MemorySystem, a MemListener in
 * front of PrefetchAccounting, a Kernel in front of each workload
 * kernel and a Prefetcher around each composite and extra. The
 * results are checked byte for byte against the production sweep, so
 * the loop cannot drift from the code it times.
 */

#ifndef DOL_PERFBENCH_TRACED_HPP
#define DOL_PERFBENCH_TRACED_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "plan.hpp"

namespace dolbench
{

/** Layers the spans attribute host time to. */
enum class Layer : unsigned
{
    kBuild,    ///< WorkloadSpec::factory (MemoryImage build)
    kGen,      ///< kernel generation (wrapped Kernel::nextBatch)
    kCpu,      ///< Core::step, excluding the data port
    kMem,      ///< MemorySystem::demandLoad/demandStore
    kListener, ///< PrefetchAccounting callbacks
    kStratify, ///< OfflineStratifier pass of a baseline
    kCore,     ///< TPC composite: T2/P1/C1 + coordinator + issue
    kSpp,      ///< SPP, monolithic or as a composite extra
    kTriangel, ///< Triangel
    kPChase,   ///< PChase
    kBaseline, ///< ExperimentRunner::baseline computation
    kMeasured, ///< measured single-core run
    kSolo,     ///< a mix core's solo baseline run
    kMix,      ///< the contended multicore run
    kCount
};

/** Host time and simulated-event counts one job (or sweep) saw. */
struct Tally
{
    std::array<std::uint64_t, static_cast<unsigned>(Layer::kCount)>
        selfNs{};
    std::array<std::uint64_t, static_cast<unsigned>(Layer::kCount)>
        totalNs{};

    std::uint64_t genInstrs = 0;   ///< instructions pulled from kernels
    std::uint64_t cpuInstrs = 0;   ///< Core::step calls
    std::uint64_t memAccesses = 0; ///< demand accesses through the port

    // Simulated counts, summed over every run of the sweep.
    std::array<std::uint64_t, 3> demandAccesses{};
    std::array<std::uint64_t, 3> primaryMisses{};
    std::uint64_t shadowL1Misses = 0;
    std::uint64_t l3MshrStalls = 0;
    std::uint64_t dramLines = 0;
    std::uint64_t pfIssued = 0;
    std::uint64_t pfUsed = 0;
    std::uint64_t pfFilteredDropped = 0;
    std::uint64_t fillQueueHwm = 0;
    std::uint64_t windowDeferrals = 0;
    std::uint64_t bandwidthStallCycles = 0;

    /** Baseline and solo runs that stopped short of their budget. */
    std::uint64_t shortRuns = 0;

    void merge(const Tally &other);
};

/** What the traced sweep measured, gathered from every job. */
class TraceCollector
{
  public:
    struct JobTimes
    {
        std::uint64_t startNs = 0; ///< body start, from sweep start
        std::uint64_t endNs = 0;
        std::uint64_t baselineWaitNs = 0;
    };

    /** Mark the sweep start; job times are relative to it. */
    void start();

    std::uint64_t sinceStartNs() const;

    void add(const Tally &tally, const JobTimes &times);

    Tally tally() const;
    std::vector<JobTimes> jobTimes() const;

  private:
    std::uint64_t _startNs = 0;
    mutable std::mutex _mutex;
    Tally _tally;
    std::vector<JobTimes> _jobs;
};

/**
 * Queue @p plan on @p sweep through the traced job bodies. Each body
 * returns the same RunOutput the production body would, counters
 * included (collected as `dolsim --counters` does).
 */
void addTracedJobs(dol::runner::SweepRunner &sweep, const Plan &plan,
                   const std::shared_ptr<TraceCollector> &collector);

/**
 * Setup probe: when armed, the first instruction any traced kernel
 * is asked for prints the CLOCK_MONOTONIC time in nanoseconds on
 * stdout as "first_instruction_ns <t>" and ends the process.
 */
void armSetupProbe();

} // namespace dolbench

#endif // DOL_PERFBENCH_TRACED_HPP
