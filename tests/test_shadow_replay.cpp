/**
 * @file
 * Record-once / replay shadow tags: a measured run that replays the
 * baseline's recorded shadow outcomes must report exactly what a run
 * walking the shadow tags live reports; the baseline's single pass
 * must build the same stratifier the old separate pass built (kept
 * here as the reference); and a
 * replay against a different demand stream must throw instead of
 * reporting numbers.
 */

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mem/memory_system.hpp"
#include "sim/experiment.hpp"
#include "workloads/suite.hpp"

namespace dol
{
namespace
{

SimConfig
replayConfig(std::uint64_t instrs)
{
    SimConfig config;
    config.maxInstrs = instrs;
    return config;
}

/** A hierarchy an eighth of Table I's: short runs already evict dirty
 *  shadow L3 lines (baseline DRAM writebacks) and prefetches pollute
 *  every level (induced misses at L1 and L2). */
MemParams
smallHierarchy()
{
    MemParams params;
    params.l1.sizeBytes /= 8;
    params.l2.sizeBytes /= 8;
    params.l3.sizeBytes /= 8;
    return params;
}

void
expectSameCategory(const PrefetchAccounting::CategoryCounters &a,
                   const PrefetchAccounting::CategoryCounters &b)
{
    EXPECT_EQ(a.issued, b.issued);
    EXPECT_EQ(a.used, b.used);
    EXPECT_EQ(a.inducedCredit, b.inducedCredit);
}

void
expectSameOutput(const RunOutput &a, const RunOutput &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.prefetcher, b.prefetcher);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.baselineIpc, b.baselineIpc);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.prefetchesIssued, b.prefetchesIssued);
    EXPECT_EQ(a.l1ShadowMisses, b.l1ShadowMisses);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.baselineMpkiL1, b.baselineMpkiL1);
    EXPECT_EQ(a.scope, b.scope);
    EXPECT_EQ(a.effAccuracyL1, b.effAccuracyL1);
    EXPECT_EQ(a.effCoverageL1, b.effCoverageL1);
    EXPECT_EQ(a.effAccuracyL2, b.effAccuracyL2);
    EXPECT_EQ(a.effCoverageL2, b.effCoverageL2);
    EXPECT_EQ(a.trafficNormalized, b.trafficNormalized);
    for (unsigned f = 0; f < kNumFruit; ++f) {
        expectSameCategory(a.categories[f], b.categories[f]);
        EXPECT_EQ(a.categoryScope[f], b.categoryScope[f]);
    }
    ASSERT_EQ(a.components.size(), b.components.size());
    for (std::size_t i = 0; i < a.components.size(); ++i) {
        EXPECT_EQ(a.components[i].name, b.components[i].name);
        EXPECT_EQ(a.components[i].issued, b.components[i].issued);
        EXPECT_EQ(a.components[i].used, b.components[i].used);
        EXPECT_EQ(a.components[i].inducedCredit,
                  b.components[i].inducedCredit);
        EXPECT_EQ(a.components[i].scope, b.components[i].scope);
    }
    expectSameCategory(a.focus, b.focus);
    EXPECT_EQ(a.focusScope, b.focusScope);
    ASSERT_NE(a.pfp, nullptr);
    ASSERT_NE(b.pfp, nullptr);
    EXPECT_EQ(a.pfp->size(), b.pfp->size());
    a.pfp->forEach([&](Addr line) { EXPECT_TRUE(b.pfp->contains(line)); });
    EXPECT_EQ(a.counters.toText(), b.counters.toText());
}

class ReplayEquivalence : public ::testing::TestWithParam<const char *>
{
};

void
expectReplayEqualsLiveWalk(const SimConfig &config, const char *workload)
{
    ExperimentRunner runner(config);
    const WorkloadSpec &spec = findWorkload(workload);
    ASSERT_NE(runner.baseline(spec).shadow, nullptr);

    // The same baseline without its record: runs walk the shadow tags.
    ExperimentRunner::Baseline unrecorded = runner.baseline(spec);
    unrecorded.shadow = nullptr;
    auto cache = std::make_shared<BaselineCache>();
    cache->get(spec.name, [&] { return unrecorded; });
    ExperimentRunner live_runner(config, cache);

    for (const char *prefetcher :
         {"none", "TPC", "SPP", "TPC+SPP+Triangel+PChase"}) {
        SCOPED_TRACE(prefetcher);
        RunOptions options;
        options.collectCounters = true;
        if (std::string(prefetcher) == "none") {
            options.factory = [](const ValueSource *) {
                return std::unique_ptr<Prefetcher>();
            };
        }
        const RunOutput a = runner.run(spec, prefetcher, options);
        const RunOutput b = live_runner.run(spec, prefetcher, options);
        EXPECT_GT(a.l1ShadowMisses, 0u);
        expectSameOutput(a, b);
    }
}

TEST_P(ReplayEquivalence, ReplayedRunEqualsLiveWalk)
{
    expectReplayEqualsLiveWalk(replayConfig(100000), GetParam());
}

TEST_P(ReplayEquivalence, ReplayedRunEqualsLiveWalkInSmallHierarchy)
{
    SimConfig config = replayConfig(100000);
    config.mem = smallHierarchy();
    expectReplayEqualsLiveWalk(config, GetParam());
}

// Stream, pointer chase, graph, temporal, ALU-only, bucket sort and
// a store-heavy stencil. bfs, histwalk and is take prefetch-induced
// misses at L1 and L2; lbm evicts dirty shadow L3 lines (baseline
// DRAM writebacks) in the small hierarchy.
INSTANTIATE_TEST_SUITE_P(Workloads, ReplayEquivalence,
                         ::testing::Values("libquantum.syn", "mcf.syn",
                                           "bfs.syn", "histwalk.syn",
                                           "ep.syn", "is.syn", "lbm.syn"),
                         [](const auto &info) {
                             std::string name = info.param;
                             name.resize(name.find('.'));
                             return name;
                         });

/**
 * The stratifier as the separate second pass ran it before the
 * single-pass baseline: node-based tables, one insert per marked line.
 */
class TwoPassStratifier
{
  public:
    void
    observe(Pc pc, Addr addr)
    {
        const Addr line = lineAddr(addr);
        PcState &state = _pcs[pc];
        const std::int64_t delta =
            static_cast<std::int64_t>(addr) -
            static_cast<std::int64_t>(state.lastAddr);
        if (state.seen && delta == state.delta && delta != 0) {
            if (state.runLength < 0xff)
                ++state.runLength;
            if (state.runLength + 1u >= _params.strideRun) {
                _lhfLines.insert(line);
                _lhfLines.insert(lineAddr(state.lastAddr));
                _lhfLines.insert(lineAddr(static_cast<Addr>(
                    static_cast<std::int64_t>(addr) + delta)));
            }
        } else {
            state.delta = delta;
            state.runLength = 0;
        }
        state.lastAddr = addr;
        state.seen = true;
        _regionLines[regionNum(addr)] |=
            static_cast<std::uint16_t>(1u << lineInRegion(addr));
    }

    Fruit
    classify(Addr line_addr) const
    {
        const Addr line = lineAddr(line_addr);
        if (_lhfLines.count(line))
            return Fruit::kLHF;
        const auto it = _regionLines.find(regionNum(line));
        if (it != _regionLines.end() &&
            static_cast<unsigned>(std::popcount(it->second)) >
                _params.denseLines) {
            return Fruit::kMHF;
        }
        return Fruit::kHHF;
    }

    std::size_t lhfLineCount() const { return _lhfLines.size(); }
    std::size_t regionCount() const { return _regionLines.size(); }

  private:
    struct PcState
    {
        Addr lastAddr = 0;
        std::int64_t delta = 0;
        std::uint8_t runLength = 0;
        bool seen = false;
    };

    OfflineStratifier::Params _params{};
    std::unordered_map<Pc, PcState> _pcs;
    std::unordered_set<Addr> _lhfLines;
    std::unordered_map<std::uint64_t, std::uint16_t> _regionLines;
};

TEST(ShadowReplay, SinglePassStratifierEqualsTwoPass)
{
    const SimConfig config = replayConfig(20000);
    for (const WorkloadSpec &spec : allWorkloads()) {
        SCOPED_TRACE(spec.name);
        ExperimentRunner runner(config);
        const OfflineStratifier &single =
            *runner.baseline(spec).stratifier;

        // The former second pass: regenerate the demand stream after
        // the timing run and classify it on its own.
        MemoryImage image;
        auto kernel = spec.factory(image);
        kernel->reset();
        TwoPassStratifier two_pass;
        std::vector<Addr> lines;
        Instr instr;
        for (std::uint64_t seen = 0;
             seen < config.maxInstrs && kernel->next(instr); ++seen) {
            if (!instr.isMem())
                continue;
            two_pass.observe(instr.pc, instr.addr);
            lines.push_back(lineAddr(instr.addr));
        }

        EXPECT_EQ(single.lhfLineCount(), two_pass.lhfLineCount());
        EXPECT_EQ(single.regionCount(), two_pass.regionCount());
        // Every demand line and its neighbours: the footprint plus
        // the lines prefetches ahead of or behind it would target.
        std::size_t differ = 0;
        for (const Addr line : lines) {
            for (const Addr probe : {line - kLineBytes, line,
                                     line + kLineBytes}) {
                differ +=
                    single.classify(probe) != two_pass.classify(probe);
            }
        }
        EXPECT_EQ(differ, 0u);
    }
}

TEST(ShadowReplay, ForeignBaselineThrows)
{
    const SimConfig config = replayConfig(20000);
    ExperimentRunner source(config);
    for (const auto &[from, to] :
         {std::pair{"libquantum.syn", "mcf.syn"},
          std::pair{"mcf.syn", "libquantum.syn"}}) {
        SCOPED_TRACE(std::string(from) + " -> " + to);
        const ExperimentRunner::Baseline &foreign =
            source.baseline(findWorkload(from));
        auto cache = std::make_shared<BaselineCache>();
        cache->get(to, [&] { return foreign; });
        ExperimentRunner runner(config, cache);
        EXPECT_THROW(runner.run(findWorkload(to), "TPC"),
                     std::runtime_error);
    }
}

/** Drive @p mem through a short fixed demand stream: 8192 lines,
 *  twice the small hierarchy's L3, a fifth of them stored to. */
void
demandStream(MemorySystem &mem, Addr perturbed_at = ~Addr{0})
{
    Cycle when = 0;
    for (Addr i = 0; i < 12000; ++i) {
        const Addr addr =
            i == perturbed_at ? 0x7770000 : ((i * 7919) % 8192) * 64;
        if (i % 5 == 0)
            mem.demandStore(addr, 0x40, when);
        else
            mem.demandLoad(addr, 0x44, when);
        when += 10;
    }
}

TEST(ShadowReplay, ReplayReproducesLiveShadowStats)
{
    ShadowRecord record;
    MemorySystem recorder(smallHierarchy());
    recorder.recordShadow(&record);
    demandStream(recorder);
    record.close(recorder.shared().baselineDramLines());
    EXPECT_EQ(record.accesses(), 12000u);

    MemorySystem replayer(smallHierarchy());
    replayer.replayShadow(&record);
    demandStream(replayer);
    replayer.finishShadowReplay();
    for (unsigned lv = 0; lv < kNumCacheLevels; ++lv) {
        EXPECT_EQ(replayer.stats().level[lv].shadowMisses,
                  recorder.stats().level[lv].shadowMisses);
    }
    EXPECT_GT(recorder.stats().level[kL3].shadowMisses, 0u);
    // Dirty shadow L3 evictions: baseline DRAM writebacks.
    EXPECT_GT(recorder.shared().baselineDramLines(),
              recorder.shared().shadowDramReads());
    EXPECT_EQ(replayer.shared().baselineDramLines(),
              recorder.shared().baselineDramLines());
    EXPECT_EQ(replayer.shared().shadowDramReads(),
              recorder.shared().shadowDramReads());
}

TEST(ShadowReplay, DivergentStreamOfEqualLengthThrowsAtFinish)
{
    ShadowRecord record;
    MemorySystem recorder(smallHierarchy());
    recorder.recordShadow(&record);
    demandStream(recorder);
    record.close(recorder.shared().baselineDramLines());

    MemorySystem replayer(smallHierarchy());
    replayer.replayShadow(&record);
    demandStream(replayer, 1234);
    EXPECT_THROW(replayer.finishShadowReplay(), std::runtime_error);
}

TEST(ShadowReplay, OverrunningTheRecordThrows)
{
    ShadowRecord record;
    MemorySystem recorder(smallHierarchy());
    recorder.recordShadow(&record);
    demandStream(recorder);
    record.close(recorder.shared().baselineDramLines());

    MemorySystem replayer(smallHierarchy());
    replayer.replayShadow(&record);
    demandStream(replayer);
    EXPECT_THROW(replayer.demandLoad(0x1000, 0x44, 100000),
                 std::runtime_error);
}

TEST(ShadowReplay, ShortRunThrowsAtFinish)
{
    ShadowRecord record;
    MemorySystem recorder(smallHierarchy());
    recorder.recordShadow(&record);
    demandStream(recorder);
    record.close(recorder.shared().baselineDramLines());

    MemorySystem replayer(smallHierarchy());
    replayer.replayShadow(&record);
    replayer.demandLoad(0, 0x44, 0);
    EXPECT_THROW(replayer.finishShadowReplay(), std::runtime_error);
}

} // namespace
} // namespace dol
