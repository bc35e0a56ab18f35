/**
 * @file
 * Adaptive-coordinator tests: the degree ramp's slow-start schedule
 * under synthetic feedback feeds, the demotion/readmission boundary
 * (K-1 bad windows must NOT demote), the observer-side-only contract
 * (adaptive and hardwired runs observe byte-identical demand streams
 * on every composite golden cell), the emission-budget throttle, and
 * double-run byte determinism of the `adapt.` counter scope.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive.hpp"
#include "core/composite.hpp"
#include "common/rng.hpp"
#include "core/registry.hpp"
#include "mem/memory_image.hpp"
#include "mem/memory_system.hpp"
#include "prefetch/next_line.hpp"
#include "runner/cli.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "trace/counters.hpp"
#include "workloads/suite.hpp"

namespace
{

using namespace dol;

AdaptiveParams
testParams()
{
    AdaptiveParams params;
    params.windowAccesses = 16;
    params.minWindowIssued = 4;
    params.maxDegree = 16;
    return params;
}

/** Feed one slot's (issued, used) tallies and close exactly one
 *  window. */
void
closeWindow(AdaptiveCoordinator &coord, const AdaptiveParams &params,
            std::size_t slot, std::uint64_t issued, std::uint64_t used)
{
    coord.recordIssued(slot, issued);
    for (std::uint64_t i = 0; i < used; ++i)
        coord.recordUsed(slot);
    for (std::uint64_t i = 0; i < params.windowAccesses; ++i)
        coord.onAccess(i);
}

TEST(AdaptiveRamp, DoublesMonotonicallyUnderSustainedAccuracy)
{
    const AdaptiveParams params = testParams();
    AdaptiveCoordinator coord(params);
    coord.addExtra();
    const std::size_t slot = AdaptiveCoordinator::kFirstExtraSlot;
    ASSERT_EQ(coord.degree(slot), params.startDegree);

    std::uint32_t previous = coord.degree(slot);
    for (int window = 0; window < 10; ++window) {
        closeWindow(coord, params, slot, 8, 8); // accuracy 1000
        const std::uint32_t degree = coord.degree(slot);
        EXPECT_GE(degree, previous) << "ramp regressed in window "
                                    << window;
        if (previous < params.maxDegree) {
            EXPECT_EQ(degree, previous * 2)
                << "slow-start must double in window " << window;
        }
        previous = degree;
    }
    EXPECT_EQ(previous, params.maxDegree);

    // Another perfect window must hold (never exceed) the ceiling.
    closeWindow(coord, params, slot, 8, 8);
    EXPECT_EQ(coord.degree(slot), params.maxDegree);
}

TEST(AdaptiveRamp, HalvesOnPlantedInaccuracy)
{
    const AdaptiveParams params = testParams();
    AdaptiveCoordinator coord(params);
    coord.addExtra();
    const std::size_t slot = AdaptiveCoordinator::kFirstExtraSlot;

    for (int window = 0; window < 4; ++window)
        closeWindow(coord, params, slot, 8, 8);
    ASSERT_EQ(coord.degree(slot), params.maxDegree);

    // Issue plenty, use nothing: the accuracy EWMA collapses and the
    // degree halves each window until it floors at 1.
    std::uint32_t previous = coord.degree(slot);
    int halvings_until_floor = 0;
    while (coord.degree(slot) > 1 && halvings_until_floor < 32) {
        closeWindow(coord, params, slot, 8, 0);
        EXPECT_LE(coord.degree(slot), previous);
        previous = coord.degree(slot);
        ++halvings_until_floor;
    }
    EXPECT_EQ(coord.degree(slot), 1u);
    // ...and stays there (never reaches zero).
    closeWindow(coord, params, slot, 8, 0);
    EXPECT_EQ(coord.degree(slot), 1u);
}

TEST(AdaptiveRamp, PressureHalvingTrumpsAccuracy)
{
    const AdaptiveParams params = testParams();
    AdaptiveCoordinator coord(params);
    coord.addExtra();
    const std::size_t slot = AdaptiveCoordinator::kFirstExtraSlot;

    for (int window = 0; window < 4; ++window)
        closeWindow(coord, params, slot, 8, 8);
    ASSERT_EQ(coord.degree(slot), params.maxDegree);

    // A monotonically-rising deferral counter signals congestion in
    // every subsequent window; accuracy stays perfect, yet the degree
    // must halve.
    std::uint64_t deferrals = 0;
    coord.setPressureProbe([&deferrals] { return deferrals; });
    closeWindow(coord, params, slot, 8, 8); // primes the probe
    const std::uint32_t primed = coord.degree(slot);
    deferrals += 5;
    closeWindow(coord, params, slot, 8, 8);
    EXPECT_EQ(coord.degree(slot), primed / 2);
}

TEST(AdaptiveRebind, KMinusOneBadWindowsDoNotDemote)
{
    AdaptiveParams params = testParams();
    params.demoteWindows = 4;
    AdaptiveCoordinator coord(params);
    coord.addExtra();
    const std::size_t t2 = AdaptiveCoordinator::kSlotT2;

    for (unsigned window = 0; window + 1 < params.demoteWindows;
         ++window) {
        closeWindow(coord, params, t2, 8, 0); // accuracy 0 < floor
        EXPECT_FALSE(coord.demoted(t2))
            << "demoted after only " << (window + 1) << " windows";
    }
    EXPECT_EQ(coord.slotState(t2).belowStreak, params.demoteWindows - 1);

    // Window K crosses the threshold.
    closeWindow(coord, params, t2, 8, 0);
    EXPECT_TRUE(coord.demoted(t2));
    EXPECT_EQ(coord.budgetFor(t2), 0u);
}

TEST(AdaptiveRebind, GoodWindowResetsTheStreak)
{
    AdaptiveParams params = testParams();
    params.demoteWindows = 3;
    AdaptiveCoordinator coord(params);
    coord.addExtra();
    const std::size_t t2 = AdaptiveCoordinator::kSlotT2;

    closeWindow(coord, params, t2, 8, 0);
    closeWindow(coord, params, t2, 8, 0);
    ASSERT_EQ(coord.slotState(t2).belowStreak, 2u);
    // One accurate window wipes the streak: demotion needs K
    // *consecutive* bad windows.
    closeWindow(coord, params, t2, 8, 8);
    EXPECT_EQ(coord.slotState(t2).belowStreak, 0u);
    closeWindow(coord, params, t2, 8, 0);
    closeWindow(coord, params, t2, 8, 0);
    EXPECT_FALSE(coord.demoted(t2));
}

TEST(AdaptiveRebind, ProbationEndsInReadmissionWithCleanSlate)
{
    AdaptiveParams params = testParams();
    params.demoteWindows = 2;
    params.probationWindows = 3;
    AdaptiveCoordinator coord(params);
    coord.addExtra();
    const std::size_t t2 = AdaptiveCoordinator::kSlotT2;

    closeWindow(coord, params, t2, 8, 0);
    closeWindow(coord, params, t2, 8, 0);
    ASSERT_TRUE(coord.demoted(t2));

    for (unsigned window = 0; window + 1 < params.probationWindows;
         ++window) {
        closeWindow(coord, params, t2, 0, 0);
        EXPECT_TRUE(coord.demoted(t2));
    }
    closeWindow(coord, params, t2, 0, 0);
    EXPECT_FALSE(coord.demoted(t2));
    EXPECT_EQ(coord.budgetFor(t2), AdaptiveCoordinator::kUnlimited);
    // Re-admission forgets the pre-demotion accuracy history.
    EXPECT_FALSE(coord.slotState(t2).ewmaValid);
    EXPECT_EQ(coord.slotState(t2).belowStreak, 0u);
}

TEST(AdaptiveEmitter, ZeroBudgetThrottlesInsteadOfEmitting)
{
    MemoryImage image;
    CompositePrefetcher::Config cfg;
    cfg.adaptive = true;
    cfg.adapt = testParams();
    CompositePrefetcher tpc(&image, cfg);
    tpc.addComponent(std::make_unique<NextLinePrefetcher>(4));

    SimConfig config;
    config.maxInstrs = 4000;
    // is.syn (integer-sort random keys) leaves a healthy unclaimed
    // stream for the extra; a pure stream workload would be fully
    // claimed by T2 and never exercise the budget.
    const WorkloadSpec &spec = findWorkload("is.syn");
    MemoryImage kernel_image;
    auto kernel = spec.factory(kernel_image);
    Simulator sim(config, *kernel, &tpc);
    sim.run();

    // Slow start begins at degree 1 while the extra's NextLine degree
    // is 4: the budget must have blocked emissions, and every block
    // is visible both on the emitter and in the adapt counters.
    CounterRegistry registry;
    sim.exportCounters(registry);
    const std::string text = registry.toText();
    EXPECT_NE(text.find("adapt.windows"), std::string::npos);
    EXPECT_GT(sim.emitter().throttledCount(), 0u);
}

/**
 * Prefetches issued by a composite's single NextLine(4) extra over
 * random, never-reused accesses from one unclaimed instruction:
 * @p warmup accesses first, then the count over @p measured more.
 */
std::uint64_t
inaccurateExtraIssues(bool adaptive, int warmup, int measured)
{
    MemoryImage image;
    MemorySystem mem;
    PrefetchEmitter emitter(mem);
    CompositePrefetcher::Config config;
    config.adaptive = adaptive;
    CompositePrefetcher tpc(&image, config);
    tpc.addComponent(std::make_unique<NextLinePrefetcher>(4));
    ComponentId next = 1;
    tpc.assignIds([&](const std::string &) { return next++; });

    Rng rng(23);
    Cycle now = 0;
    std::uint64_t before = 0;
    for (int i = 0; i < warmup + measured; ++i) {
        if (i == warmup)
            before = mem.stats().comp[4].issued;
        AccessInfo info;
        info.pc = 0x100;
        info.mPc = 0x100;
        info.addr = 0x10000000 + lineAddr(rng.below(1ull << 28));
        info.isLoad = true;
        info.l1PrimaryMiss = true;
        info.when = now += 50;
        emitter.setContext(tpc.id(), info.when);
        tpc.train(info, emitter);
    }
    if (adaptive) {
        // Never useful, so the degree schedule never ramps it.
        EXPECT_EQ(tpc.adaptive()->degree(
                      AdaptiveCoordinator::kFirstExtraSlot),
                  1u);
    }
    return mem.stats().comp[4].issued - before;
}

TEST(AdaptiveCoordinator, HoldsAnInaccurateExtraAtTheFloorDegree)
{
    // The hardwired coordinator lets a useless extra issue its full
    // degree on every access; the adaptive one caps it at one
    // prefetch per access once its accuracy verdicts come in.
    const int warmup = 4000;
    const int measured = 500;
    const std::uint64_t hardwired =
        inaccurateExtraIssues(false, warmup, measured);
    const std::uint64_t adaptive =
        inaccurateExtraIssues(true, warmup, measured);
    EXPECT_GE(hardwired, 3u * measured);
    EXPECT_LE(adaptive, static_cast<std::uint64_t>(measured));
    EXPECT_GT(adaptive, 0u) << "held at degree 1, not suspended";
}

/** The five composite golden cells (the SPP cell has no coordinator,
 *  so adaptive mode is a documented no-op there). */
struct DemandCell
{
    const char *workload;
    const char *prefetcher;
};

constexpr DemandCell kDemandCells[] = {
    {"libquantum.syn", "TPC"},
    {"mcf.syn", "TPC"},
    {"omnetpp.syn", "TPC"},
    {"bfs.syn", "TPC"},
    {"tempstream.syn", "TPC+SPP+Triangel+PChase"},
};

struct DemandSample
{
    Pc pc;
    Pc mPc;
    Addr addr;
    bool isLoad;
    std::uint64_t value;

    bool
    operator==(const DemandSample &other) const
    {
        return pc == other.pc && mPc == other.mPc &&
               addr == other.addr && isLoad == other.isLoad &&
               value == other.value;
    }
};

std::vector<DemandSample>
demandStream(const DemandCell &cell, bool adaptive)
{
    SimConfig config;
    config.maxInstrs = 8000;
    const WorkloadSpec &spec = findWorkload(cell.workload);
    MemoryImage image;
    auto kernel = spec.factory(image);
    auto prefetcher = makePrefetcher(cell.prefetcher, &image, adaptive);
    Simulator sim(config, *kernel, prefetcher.get());
    if (adaptive) {
        if (auto *composite =
                dynamic_cast<CompositePrefetcher *>(prefetcher.get())) {
            MemorySystem &mem = sim.mem();
            composite->setPressureProbe([&mem] {
                return mem.shared().dram().stats().windowDeferrals;
            });
        }
    }
    std::vector<DemandSample> stream;
    sim.setAccessObserver([&](const AccessInfo &access) {
        stream.push_back({access.pc, access.mPc, access.addr,
                          access.isLoad, access.value});
    });
    sim.run();
    return stream;
}

TEST(AdaptiveDemandStream, IdenticalToHardwiredOnAllCompositeCells)
{
    for (const DemandCell &cell : kDemandCells) {
        SCOPED_TRACE(std::string(cell.workload) + "/" +
                     cell.prefetcher);
        const std::vector<DemandSample> hardwired =
            demandStream(cell, false);
        const std::vector<DemandSample> adaptive =
            demandStream(cell, true);
        ASSERT_EQ(hardwired.size(), adaptive.size());
        ASSERT_FALSE(hardwired.empty());
        for (std::size_t i = 0; i < hardwired.size(); ++i) {
            ASSERT_TRUE(hardwired[i] == adaptive[i])
                << "demand access " << i << " diverged";
        }
    }
}

std::string
adaptiveCountersText(const DemandCell &cell)
{
    SimConfig config;
    config.maxInstrs = 8000;
    ExperimentRunner runner(config);
    RunOptions options;
    options.collectCounters = true;
    options.adaptiveCoordinator = true;
    const RunOutput out =
        runner.run(findWorkload(cell.workload), cell.prefetcher,
                   options);
    return out.counters.toText();
}

TEST(AdaptiveDeterminism, DoubleRunAdaptCountersAreByteIdentical)
{
    // TPC+SPP so the counter text carries an extra slot (deg_extra0);
    // plain TPC has claimants only.
    const DemandCell cell{"libquantum.syn", "TPC+SPP"};
    const std::string first = adaptiveCountersText(cell);
    const std::string second = adaptiveCountersText(cell);
    EXPECT_NE(first.find("adapt.windows"), std::string::npos);
    EXPECT_NE(first.find("adapt.deg_extra0"), std::string::npos);
    EXPECT_EQ(first, second);
}

TEST(AdaptiveCli, CoordinatorModeParsesStrictly)
{
    bool adaptive = false;
    EXPECT_TRUE(runner::parseCoordinatorMode("hardwired", adaptive));
    EXPECT_FALSE(adaptive);
    EXPECT_TRUE(runner::parseCoordinatorMode("adaptive", adaptive));
    EXPECT_TRUE(adaptive);

    bool untouched = true;
    EXPECT_FALSE(runner::parseCoordinatorMode("", untouched));
    EXPECT_FALSE(runner::parseCoordinatorMode("Adaptive", untouched));
    EXPECT_FALSE(runner::parseCoordinatorMode("auto", untouched));
    EXPECT_TRUE(untouched);
}

} // namespace
