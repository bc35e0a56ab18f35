/**
 * @file
 * Tests for the synthetic workload generators: determinism under
 * reset (the stratifier contract), data-structure coherence, suite
 * composition, mix construction, and the instruction-trace format
 * (round trips, and rejection of the other on-disk formats).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "runner/checkpoint.hpp"
#include "trace/trace_io.hpp"
#include "workloads/irregular_kernels.hpp"
#include "workloads/mixed_kernels.hpp"
#include "workloads/pointer_kernels.hpp"
#include "workloads/stream_kernels.hpp"
#include "workloads/suite.hpp"
#include "workloads/trace_file.hpp"

namespace dol
{
namespace
{

bool
sameInstr(const Instr &a, const Instr &b)
{
    return a.pc == b.pc && a.op == b.op && a.addr == b.addr &&
           a.value == b.value && a.dst == b.dst && a.src1 == b.src1 &&
           a.target == b.target && a.taken == b.taken;
}

/** Every field equal, not just the ones the generators vary. */
bool
identicalInstr(const Instr &a, const Instr &b)
{
    return sameInstr(a, b) && a.size == b.size &&
           a.mispredicted == b.mispredicted && a.src2 == b.src2 &&
           a.latency == b.latency;
}

/** A file name unique to the running test, in the test temp dir. */
std::string
testPath(const std::string &suffix)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "dol_" + info->test_suite_name() +
           "_" + info->name() + suffix;
}

/** Determinism is required by the offline stratifier. */
class SuiteDeterminism
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SuiteDeterminism, ResetReplaysIdenticalTrace)
{
    const WorkloadSpec &spec = findWorkload(GetParam());
    MemoryImage image;
    auto kernel = spec.factory(image);

    std::vector<Instr> first;
    Instr instr;
    for (int i = 0; i < 3000 && kernel->next(instr); ++i)
        first.push_back(instr);

    kernel->reset();
    for (std::size_t i = 0; i < first.size(); ++i) {
        ASSERT_TRUE(kernel->next(instr)) << i;
        ASSERT_TRUE(sameInstr(first[i], instr))
            << GetParam() << " diverged at " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, SuiteDeterminism,
    ::testing::Values("libquantum.syn", "mcf.syn", "gcc.syn", "lbm.syn",
                      "omnetpp.syn", "soplex.syn", "bfs.syn", "is.syn",
                      "rotate.syn", "perlbench.syn"));

/** Every workload generates a sane instruction mix. */
class SuiteSanity : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SuiteSanity, MixContainsMemoryAndControl)
{
    const WorkloadSpec &spec = findWorkload(GetParam());
    MemoryImage image;
    auto kernel = spec.factory(image);

    unsigned mem_ops = 0, branches = 0, total = 0;
    Instr instr;
    for (int i = 0; i < 5000 && kernel->next(instr); ++i) {
        ++total;
        mem_ops += instr.isMem();
        branches += instr.isControl();
        if (instr.isMem()) {
            ASSERT_NE(instr.addr, 0u);
            ASSERT_NE(instr.pc, 0u);
        }
    }
    EXPECT_EQ(total, 5000u);
    EXPECT_GT(mem_ops, 100u);
    EXPECT_GT(branches, 50u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSuites, SuiteSanity,
    ::testing::Values("milc.syn", "xalancbmk.syn", "h264ref.syn",
                      "pagerank.syn", "kmeans.syn", "cg.syn", "ft.syn",
                      "bt.syn", "streamcluster.syn", "astar.syn"));

TEST(Suites, HaveTheExpectedShape)
{
    EXPECT_EQ(speclikeSuite().size(), 21u) << "Figure 8 has 21 apps";
    EXPECT_GE(cronoSuite().size(), 4u);
    EXPECT_GE(starbenchSuite().size(), 5u);
    EXPECT_GE(npbSuite().size(), 7u);
    EXPECT_GE(temporalSuite().size(), 4u);
    EXPECT_EQ(allWorkloads().size(),
              speclikeSuite().size() + cronoSuite().size() +
                  starbenchSuite().size() + npbSuite().size() +
                  temporalSuite().size());

    std::set<std::string> names;
    for (const auto &spec : allWorkloads()) {
        EXPECT_TRUE(names.insert(spec.name).second)
            << "duplicate workload " << spec.name;
        EXPECT_FALSE(spec.suite.empty());
    }
}

TEST(Suites, MixesAreSeededAndFourWide)
{
    const auto mixes_a = makeMixes(17, 99);
    const auto mixes_b = makeMixes(17, 99);
    ASSERT_EQ(mixes_a.size(), 17u);
    for (std::size_t m = 0; m < mixes_a.size(); ++m) {
        ASSERT_EQ(mixes_a[m].size(), 4u);
        for (int c = 0; c < 4; ++c)
            EXPECT_EQ(mixes_a[m][c].name, mixes_b[m][c].name);
    }
    // A different seed draws a different mix somewhere.
    const auto mixes_c = makeMixes(17, 100);
    bool any_diff = false;
    for (std::size_t m = 0; m < mixes_a.size(); ++m)
        for (int c = 0; c < 4; ++c)
            any_diff |= mixes_a[m][c].name != mixes_c[m][c].name;
    EXPECT_TRUE(any_diff);
}

TEST(ListChase, LinksAreCoherent)
{
    MemoryImage image;
    ListChaseKernel kernel(image, {.nodes = 1024, .nodeBytes = 128,
                                   .seed = 5});
    // Walk the list through the image: after `nodes` hops we are back
    // at the head (circular), and every hop lands on a node boundary.
    Addr current = kernel.headNode();
    std::set<Addr> visited;
    for (unsigned i = 0; i < 1024; ++i) {
        EXPECT_TRUE(visited.insert(current).second)
            << "premature cycle at hop " << i;
        current = image.read64(current);
        ASSERT_NE(current, 0u);
    }
    EXPECT_EQ(current, kernel.headNode());
}

TEST(ListChase, TraceMatchesImage)
{
    MemoryImage image;
    ListChaseKernel kernel(image, {.nodes = 256, .seed = 9});
    Instr instr;
    Addr expected = kernel.headNode();
    unsigned checked = 0;
    for (int i = 0; i < 3000 && kernel.next(instr); ++i) {
        if (instr.isLoad() && instr.src1 == 10 && instr.dst == 10) {
            ASSERT_EQ(instr.addr, expected);
            expected = instr.value;
            ++checked;
        }
    }
    EXPECT_GT(checked, 200u);
}

TEST(PointerArray, ObjectsMatchArraySlots)
{
    MemoryImage image;
    PointerArrayKernel kernel(image, {.entries = 512, .seed = 4});
    Instr instr;
    std::uint64_t producer_value = 0;
    unsigned checked = 0;
    for (int i = 0; i < 4000 && kernel.next(instr); ++i) {
        if (instr.isLoad() && instr.dst == 10) {
            producer_value = instr.value;
            ASSERT_EQ(image.read64(instr.addr), instr.value);
        } else if (instr.isLoad() && instr.dst == 12) {
            // The dependent's address is a fixed offset off the
            // producer's value.
            ASSERT_EQ(instr.addr - producer_value, 16u);
            ++checked;
        }
    }
    EXPECT_GT(checked, 100u);
}

TEST(PhasedKernel, RespectsPerPhaseLengths)
{
    MemoryImage image;
    auto phase_a = std::make_unique<AluKernel>(
        image, AluKernel::Params{.seed = 1});
    auto phase_b = std::make_unique<RandomKernel>(
        image, RandomKernel::Params{.seed = 2});
    PhasedKernel phased("test", image, 100);
    phased.addPhase(std::move(phase_a), 300);
    phased.addPhase(std::move(phase_b), 100);

    // Count phase-A (working-set loads near its arena) vs phase-B
    // instructions by PC base: A uses 0x490000.., B uses 0x460000..
    unsigned a_instrs = 0, b_instrs = 0;
    Instr instr;
    for (int i = 0; i < 4000; ++i) {
        ASSERT_TRUE(phased.next(instr));
        if ((instr.pc & 0xff0000) == 0x490000)
            ++a_instrs;
        else if ((instr.pc & 0xff0000) == 0x460000)
            ++b_instrs;
    }
    // 3:1 phase ratio.
    EXPECT_NEAR(static_cast<double>(a_instrs) / (b_instrs + 1), 3.0,
                0.5);
}

/**
 * PhasedKernel as it once was: one next() per instruction, a phase
 * counter, and a skip over exhausted phases. Returns up to @p limit
 * instructions, fewer only when every phase has run out.
 */
std::vector<Instr>
onePerCallReference(std::vector<std::unique_ptr<Kernel>> &phases,
                    const std::vector<std::uint64_t> &lengths,
                    std::size_t limit)
{
    std::vector<Instr> out;
    std::size_t current = 0;
    std::uint64_t count = 0;
    Instr instr;
    while (out.size() < limit) {
        bool produced = false;
        for (std::size_t tries = 0; tries <= phases.size(); ++tries) {
            if (phases[current]->next(instr)) {
                out.push_back(instr);
                if (++count >= lengths[current]) {
                    count = 0;
                    current = (current + 1) % phases.size();
                }
                produced = true;
                break;
            }
            current = (current + 1) % phases.size();
            count = 0;
        }
        if (!produced)
            break;
    }
    return out;
}

TEST(PhasedKernel, ForwardedRunsMatchOnePerCallReference)
{
    static_assert(std::is_trivially_copyable_v<Instr>,
                  "the queues copy Instr in bulk");
    // Two finite DOLINS01 traces: phases that run out.
    const std::string long_trace = testPath("_long.bin");
    const std::string short_trace = testPath("_short.bin");
    {
        MemoryImage image;
        AluKernel source(image, {.seed = 9});
        ASSERT_EQ(recordTrace(source, long_trace, 700), 700u);
        ASSERT_EQ(recordTrace(source, short_trace, 130), 130u);
    }

    // Each case: the phase kernels (built into the given image),
    // their lengths, and how many instructions the kernel yields in
    // all (kLimit when it does not run out). No length is a multiple
    // of an iteration: 15 instructions for the default AluKernel and
    // RandomKernel, 303 (more than one staged run) for the wide one.
    constexpr std::size_t kLimit = 5000;
    struct Case
    {
        const char *name;
        std::vector<std::uint64_t> lengths;
        std::size_t total;
        std::function<std::vector<std::unique_ptr<Kernel>>(
            MemoryImage &)>
            build;
    };
    const std::vector<Case> cases = {
        {"alu+random+finite trace+wide alu", {301, 97, 250, 700},
         kLimit,
         [&](MemoryImage &image) {
             std::vector<std::unique_ptr<Kernel>> k;
             k.push_back(std::make_unique<AluKernel>(
                 image, AluKernel::Params{.seed = 1}));
             k.push_back(std::make_unique<RandomKernel>(
                 image, RandomKernel::Params{.seed = 2}));
             k.push_back(std::make_unique<TraceKernel>(
                 image, long_trace, /*loop=*/false));
             k.push_back(std::make_unique<AluKernel>(
                 image,
                 AluKernel::Params{.aluPerIter = 300, .seed = 5}));
             return k;
         }},
        {"zero-length phases", {0, 0}, kLimit,
         [&](MemoryImage &image) {
             std::vector<std::unique_ptr<Kernel>> k;
             k.push_back(std::make_unique<AluKernel>(
                 image, AluKernel::Params{.seed = 3}));
             k.push_back(std::make_unique<RandomKernel>(
                 image, RandomKernel::Params{.seed = 4}));
             return k;
         }},
        {"every phase runs out", {41, 1000}, 830,
         [&](MemoryImage &image) {
             std::vector<std::unique_ptr<Kernel>> k;
             k.push_back(std::make_unique<TraceKernel>(
                 image, short_trace, /*loop=*/false));
             k.push_back(std::make_unique<TraceKernel>(
                 image, long_trace, /*loop=*/false));
             return k;
         }},
    };

    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        MemoryImage ref_image;
        auto ref_phases = c.build(ref_image);
        const std::vector<Instr> expected =
            onePerCallReference(ref_phases, c.lengths, kLimit);

        // Drain in odd-sized batches so runs also split at the
        // consumer's end.
        MemoryImage image;
        PhasedKernel phased("test", image, 0);
        auto phases = c.build(image);
        for (std::size_t i = 0; i < phases.size(); ++i)
            phased.addPhase(std::move(phases[i]), c.lengths[i]);
        std::vector<Instr> got;
        std::array<Instr, 37> batch;
        while (got.size() < kLimit) {
            const std::size_t n = phased.nextBatch(
                batch.data(), std::min(batch.size(), kLimit - got.size()));
            if (n == 0)
                break;
            got.insert(got.end(), batch.begin(), batch.begin() + n);
        }

        ASSERT_EQ(expected.size(), c.total);
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_TRUE(identicalInstr(got[i], expected[i])) << "at " << i;
        if (c.total < kLimit) {
            // An exhausted kernel stays exhausted.
            EXPECT_EQ(phased.nextBatch(batch.data(), batch.size()), 0u);
        }
    }
    std::remove(long_trace.c_str());
    std::remove(short_trace.c_str());
}

TEST(TraceFile, RecordAndReplayRoundTrips)
{
    const std::string path = testPath(".bin");
    MemoryImage image;
    const WorkloadSpec &spec = findWorkload("mcf.syn");
    auto kernel = spec.factory(image);
    const std::uint64_t written = recordTrace(*kernel, path, 2000);
    EXPECT_EQ(written, 2000u);

    MemoryImage replay_image;
    TraceKernel replay(replay_image, path, /*loop=*/false);
    EXPECT_EQ(replay.traceLength(), 2000u);

    kernel->reset();
    Instr original, replayed;
    for (int i = 0; i < 2000; ++i) {
        ASSERT_TRUE(kernel->next(original));
        ASSERT_TRUE(replay.next(replayed));
        ASSERT_TRUE(sameInstr(original, replayed)) << "at " << i;
        ASSERT_EQ(original.mispredicted, replayed.mispredicted);
        ASSERT_EQ(original.latency, replayed.latency);
    }
    // Non-looping replay ends exactly at the recorded length.
    EXPECT_FALSE(replay.next(replayed));
    std::remove(path.c_str());
}

TEST(TraceFile, LoopingReplayWraps)
{
    const std::string path = testPath(".bin");
    MemoryImage image;
    AluKernel source(image, {.seed = 3});
    recordTrace(source, path, 100);

    MemoryImage replay_image;
    TraceKernel replay(replay_image, path, /*loop=*/true);
    Instr first, instr;
    ASSERT_TRUE(replay.next(first));
    for (int i = 1; i < 100; ++i)
        ASSERT_TRUE(replay.next(instr));
    // Wrapped: the 101st instruction is the first again.
    ASSERT_TRUE(replay.next(instr));
    EXPECT_TRUE(sameInstr(first, instr));
    std::remove(path.c_str());
}

/**
 * One small file of each on-disk format: a DOLINS01 instruction
 * trace, a DOLTRC01 event trace, and a DOLCKPT1 journal. The paths are
 * per test, since ctest runs tests as parallel processes.
 */
struct FormatFiles
{
    std::string instr = testPath("_instr.bin");
    std::string event = testPath("_event.trc");
    std::string journal = testPath("_journal.ckpt");

    FormatFiles()
    {
        MemoryImage image;
        AluKernel source(image, {.seed = 5});
        recordTrace(source, instr, 50);
        TraceWriter writer(event);
        for (std::uint64_t i = 0; i < 4; ++i)
            writer.append(TraceEvent{});
        writer.close();
        runner::CheckpointJournal ckpt;
        ckpt.create(journal, runner::JournalPlan{});
    }

    ~FormatFiles()
    {
        for (const std::string &path : {instr, event, journal})
            std::remove(path.c_str());
    }
};

TEST(TraceFile, EveryReaderRejectsTheOtherFormats)
{
    const FormatFiles files;
    std::vector<TraceRecord> records;
    std::string error;
    ASSERT_TRUE(readTraceRecords(files.instr, records, &error)) << error;

    EXPECT_FALSE(readTraceRecords(files.event, records, &error));
    EXPECT_NE(error.find("DOLTRC01 event trace"), std::string::npos)
        << error;
    EXPECT_FALSE(readTraceRecords(files.journal, records, &error));
    EXPECT_NE(error.find("not a DOLINS01"), std::string::npos) << error;
    EXPECT_TRUE(records.empty());

    std::vector<TraceEvent> events;
    ASSERT_TRUE(readTraceFile(files.event, events, &error)) << error;
    for (const std::string &path : {files.instr, files.journal}) {
        EXPECT_FALSE(readTraceFile(path, events, &error)) << path;
        EXPECT_NE(error.find("not a DOLTRC01"), std::string::npos)
            << error;
    }

    ASSERT_TRUE(runner::CheckpointJournal::load(files.journal).valid);
    for (const std::string &path : {files.instr, files.event}) {
        const auto loaded = runner::CheckpointJournal::load(path);
        EXPECT_FALSE(loaded.valid) << path;
        EXPECT_NE(loaded.error.find("not a DOLCKPT1"),
                  std::string::npos)
            << loaded.error;
    }

    // Replaying an event trace as a workload fails loudly instead of
    // simulating whatever its bytes decode to.
    MemoryImage image;
    EXPECT_EXIT(TraceKernel(image, files.event),
                ::testing::ExitedWithCode(1), "DOLTRC01 event trace");
}

TEST(TraceFile, HeaderCountIsBoundedByTheFileSize)
{
    const FormatFiles files;
    // Claim 2^60 records in a 50-record file: rejected before any
    // allocation of that size.
    std::string bytes;
    {
        std::ifstream in(files.instr, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    const std::uint64_t claimed = 1ull << 60;
    std::memcpy(bytes.data() + 8, &claimed, sizeof claimed);
    {
        std::ofstream out(files.instr,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    std::vector<TraceRecord> records;
    std::string error;
    EXPECT_FALSE(readTraceRecords(files.instr, records, &error));
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
    EXPECT_TRUE(records.empty());
}

TEST(MemoryImageTest, ReadbackAndDefaultZero)
{
    MemoryImage image;
    EXPECT_EQ(image.read64(0x123456), 0u);
    image.write64(0x123456, 0xdeadbeefcafef00dull);
    EXPECT_EQ(image.read64(0x123456), 0xdeadbeefcafef00dull);
    // Unaligned overlap reads compose bytes.
    EXPECT_EQ(image.read64(0x123457) & 0xff,
              (0xdeadbeefcafef00dull >> 8) & 0xff);
}

} // namespace
} // namespace dol
