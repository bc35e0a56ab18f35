/**
 * @file
 * End-to-end simulator tests: baseline sanity, prefetcher speedups on
 * targeted kernels, and metric plumbing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.hpp"
#include "core/registry.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "trace/counters.hpp"
#include "workloads/pointer_kernels.hpp"
#include "workloads/stream_kernels.hpp"
#include "workloads/suite.hpp"

namespace dol
{
namespace
{

SimConfig
testConfig(std::uint64_t instrs = 120000)
{
    SimConfig config;
    config.maxInstrs = instrs;
    return config;
}

TEST(Simulator, BaselineRunsAndReportsIpc)
{
    MemoryImage image;
    StreamKernel kernel(image, {.streams = 1,
                                .strideBytes = 64,
                                .footprintBytes = 8ull << 20,
                                .seed = 3});
    Simulator sim(testConfig(), kernel, nullptr);
    sim.run();

    EXPECT_EQ(sim.instructions(), 120000u);
    EXPECT_GT(sim.ipc(), 0.05);
    EXPECT_LT(sim.ipc(), 4.0);
    // A memory-bound stream over 8 MB must miss in L1.
    EXPECT_GT(sim.mem().stats().level[kL1].primaryMisses, 1000u);
}

TEST(Simulator, ShadowHierarchyMatchesRealWithoutPrefetcher)
{
    MemoryImage image;
    StreamKernel kernel(image, {.streams = 2,
                                .strideBytes = 64,
                                .footprintBytes = 4ull << 20,
                                .seed = 4});
    Simulator sim(testConfig(), kernel, nullptr);
    sim.run();

    const MemStats &stats = sim.mem().stats();
    // With no prefetches, the alternate reality is this reality.
    for (unsigned lv = 0; lv < kNumCacheLevels; ++lv) {
        EXPECT_EQ(stats.level[lv].shadowMisses,
                  stats.level[lv].primaryMisses)
            << "level " << lv;
        EXPECT_EQ(stats.level[lv].inducedMisses, 0u) << "level " << lv;
    }
}

TEST(Simulator, T2AcceleratesStridedStream)
{
    ExperimentRunner runner(testConfig());
    const WorkloadSpec spec{
        "stream.test", "test", [](MemoryImage &image) {
            return std::make_unique<StreamKernel>(
                image, StreamKernel::Params{.streams = 1,
                                            .strideBytes = 16,
                                            .footprintBytes = 16ull
                                                              << 20,
                                            .aluPerIter = 6,
                                            .seed = 5});
        }};

    const RunOutput out = runner.run(spec, "T2");
    EXPECT_GT(out.speedup(), 1.2) << "T2 must hide stream misses";
    EXPECT_GT(out.effCoverageL1, 0.5);
    EXPECT_GT(out.effAccuracyL1, 0.5);
    EXPECT_GT(out.scope, 0.5);
}

TEST(Simulator, P1AcceleratesArrayOfPointers)
{
    ExperimentRunner runner(testConfig());
    const WorkloadSpec spec{
        "parr.test", "test", [](MemoryImage &image) {
            return std::make_unique<PointerArrayKernel>(
                image, PointerArrayKernel::Params{.entries = 1u << 16,
                                                  .objectBytes = 256,
                                                  .fieldOffset = 24,
                                                  .aluPerIter = 28,
                                                  .seed = 6});
        }};

    const RunOutput base_t2 = runner.run(spec, "T2");
    const RunOutput with_p1 = runner.run(spec, "T2P1");
    EXPECT_GT(with_p1.speedup(), base_t2.speedup() + 0.08)
        << "P1 must add speedup on an array-of-pointers workload";
    EXPECT_GT(with_p1.effCoverageL1, 0.9);
}

TEST(Simulator, P1CoversPointerChain)
{
    // A serial chain cannot run faster than one node per memory round
    // trip — prefetching it earns coverage and accuracy, not IPC.
    ExperimentRunner runner(testConfig());
    const WorkloadSpec spec{
        "chase.test", "test", [](MemoryImage &image) {
            return std::make_unique<ListChaseKernel>(
                image, ListChaseKernel::Params{.nodes = 1u << 15,
                                               .nodeBytes = 128,
                                               .seed = 6});
        }};

    const RunOutput with_p1 = runner.run(spec, "T2P1");
    EXPECT_GT(with_p1.effCoverageL1, 0.8)
        << "the chain FSM must stay on the list";
    EXPECT_GT(with_p1.speedup(), 0.97) << "and must never hurt";
}

TEST(Simulator, TrafficIsTrackedAgainstBaseline)
{
    ExperimentRunner runner(testConfig());
    const WorkloadSpec spec{
        "stream.traffic", "test", [](MemoryImage &image) {
            return std::make_unique<StreamKernel>(
                image, StreamKernel::Params{.streams = 1,
                                            .strideBytes = 16,
                                            .footprintBytes = 16ull
                                                              << 20,
                                            .aluPerIter = 6,
                                            .seed = 7});
        }};

    const RunOutput out = runner.run(spec, "T2");
    // An accurate stream prefetcher moves the same lines, so
    // normalized traffic stays close to 1.
    EXPECT_GT(out.trafficNormalized, 0.85);
    EXPECT_LT(out.trafficNormalized, 1.3);
}

TEST(Simulator, ComponentNamesAreAssigned)
{
    MemoryImage image;
    StreamKernel kernel(image, {.seed = 8});
    auto tpc = makePrefetcher("TPC", &image);
    Simulator sim(testConfig(1000), kernel, tpc.get());

    const auto &names = sim.componentNames();
    EXPECT_EQ(names[1], "T2");
    EXPECT_EQ(names[2], "P1");
    EXPECT_EQ(names[3], "C1");
}

TEST(Simulator, RunsAreDeterministic)
{
    const WorkloadSpec &spec = findWorkload("gcc.syn");
    auto run_once = [&spec]() {
        MemoryImage image;
        auto kernel = spec.factory(image);
        auto pf = makePrefetcher("TPC", &image);
        Simulator sim(testConfig(60000), *kernel, pf.get());
        sim.run();
        return std::make_tuple(
            sim.core().stats().cycles,
            sim.mem().stats().level[kL1].primaryMisses,
            sim.mem().stats().prefetchesIssued());
    };
    EXPECT_EQ(run_once(), run_once());
}

struct CellRun
{
    std::uint64_t instructions = 0;
    double ipc = 0.0;
    std::string counters;
};

/** How runCell() drives the simulator through its budget. */
enum class Drive
{
    kRun,          ///< the batched run() loop
    kStep,         ///< one step() per instruction (the reference)
    kRandomBlocks, ///< stepBlock() calls of random size
};

CellRun
runCell(const std::string &workload, const std::string &prefetcher_name,
        Drive drive)
{
    MemoryImage image;
    const WorkloadSpec &spec = findWorkload(workload);
    auto kernel = spec.factory(image);
    auto prefetcher = prefetcher_name == "none"
                          ? nullptr
                          : makePrefetcher(prefetcher_name, &image);

    const SimConfig config = testConfig(60000);
    Simulator sim(config, *kernel, prefetcher.get());
    switch (drive) {
    case Drive::kRun:
        sim.run();
        break;
    case Drive::kStep:
        while (sim.instructions() < config.maxInstrs && sim.step()) {
        }
        break;
    case Drive::kRandomBlocks: {
        // Sizes from 1 to past kBatchInstrs, so blocks straddle the
        // kernel's generate() calls.
        Rng rng(0xFA57003);
        while (sim.instructions() < config.maxInstrs) {
            const std::uint64_t max = 1 + rng.below(300);
            const std::uint64_t left = config.maxInstrs - sim.instructions();
            if (sim.stepBlock(static_cast<std::size_t>(
                    std::min(max, left))) == 0)
                break;
        }
        break;
    }
    }

    CellRun out;
    out.instructions = sim.instructions();
    out.ipc = sim.ipc();
    CounterRegistry registry;
    sim.exportCounters(registry);
    out.counters = registry.toText();
    return out;
}

// libquantum/none is idle-heavy (the MSHR file and DRAM queues drain
// between miss bursts); the composite cell keeps them busy with chained
// prefetch fills; shuflist generates mid-stream, which the batched
// decode must never run ahead of.
const std::pair<const char *, const char *> kEquivalenceCells[] = {
    {"libquantum.syn", "none"},
    {"libquantum.syn", "TPC"},
    {"mcf.syn", "SPP"},
    {"shuflist.syn", "TPC+SPP+Triangel+PChase"},
};

/** Check that @p drive ends every equivalence cell where step() does. */
void
expectMatchesStep(Drive drive)
{
    for (const auto &[workload, prefetcher] : kEquivalenceCells) {
        const CellRun ref = runCell(workload, prefetcher, Drive::kStep);
        const CellRun got = runCell(workload, prefetcher, drive);
        EXPECT_EQ(got.instructions, ref.instructions)
            << workload << "/" << prefetcher;
        EXPECT_EQ(got.ipc, ref.ipc) << workload << "/" << prefetcher;
        EXPECT_EQ(got.counters, ref.counters)
            << workload << "/" << prefetcher;
    }
}

// The batched run() loop and stepBlock() are the simulator's fast
// path; one step() per instruction is the reference they must match.
TEST(FastPath, SimulatorEquivalenceAcrossCells)
{
    expectMatchesStep(Drive::kRun);
}

TEST(FastPath, StepBlockMatchesStepSequence)
{
    expectMatchesStep(Drive::kRandomBlocks);
}

TEST(Simulator, QuickEnvShrinksBudget)
{
    setenv("DOL_QUICK", "1", 1);
    EXPECT_EQ(makeBenchConfig(400000).maxInstrs, 60000u);
    unsetenv("DOL_QUICK");
    EXPECT_EQ(makeBenchConfig(400000).maxInstrs, 400000u);
}

} // namespace
} // namespace dol
