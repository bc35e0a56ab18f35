/**
 * @file
 * Simulator-throughput benchmark suite (accesses per wall second).
 *
 * Unlike the figure/table binaries, which measure the *simulated*
 * machine, this one measures the *simulator*: how many demand
 * accesses per second the per-access hot loop (Simulator::access →
 * cache lookup → T2/P1/C1/composite train) sustains on the host.
 * Every cell runs the full production path — kernel generation,
 * timing core, cache hierarchy, prefetcher training, accounting —
 * exactly as a sweep job would.
 *
 * Two measurement modes, both reported:
 *  - single-job: each (workload, prefetcher) cell runs alone, best
 *    of N repetitions (rep noise is the dominant error source);
 *  - multi-job: the whole grid runs once through the SweepRunner at
 *    --jobs N, reporting aggregate instructions per second.
 *
 * Output is a dol-sweep-v1 document (BENCH_throughput.json by
 * default) so the perf trajectory rides the same tooling as every
 * other sweep artifact. Wall-clock numbers are inherently
 * nondeterministic; consumers must treat every metric here the way
 * they treat the "timing" section of a sweep document.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "runner/json_writer.hpp"
#include "runner/sweep.hpp"
#include "sim/experiment.hpp"
#include "sim/multicore.hpp"
#include "sim/simulator.hpp"
#include "workloads/contention.hpp"
#include "workloads/suite.hpp"

namespace
{

using namespace dol;

struct CellResult
{
    std::string workload;
    std::string prefetcher;
    std::uint64_t instructions = 0;
    std::uint64_t accesses = 0;
    double wallSeconds = 0.0;

    double
    accessesPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(accesses) / wallSeconds
                   : 0.0;
    }

    double
    instrsPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(instructions) / wallSeconds
                   : 0.0;
    }
};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * One timed end-to-end run of a cell; returns wall seconds.
 * The first @p warmup repetitions are discarded: they fault in code
 * pages, warm the branch predictors, and let the allocator reach
 * steady state, so the recorded best-of is not polluted by one cold
 * outlier (noise hygiene, PR 9).
 */
CellResult
runCell(const SimConfig &config, const WorkloadSpec &spec,
        const std::string &prefetcher_name, unsigned reps,
        unsigned warmup)
{
    CellResult result;
    result.workload = spec.name;
    result.prefetcher = prefetcher_name;
    result.wallSeconds = -1.0;

    for (unsigned rep = 0; rep < warmup + reps; ++rep) {
        MemoryImage image;
        auto kernel = spec.factory(image);
        auto prefetcher =
            prefetcher_name == "none"
                ? nullptr
                : makePrefetcher(prefetcher_name, &image);

        Simulator sim(config, *kernel, prefetcher.get());
        const double start = now();
        sim.run();
        const double elapsed = now() - start;
        if (rep < warmup)
            continue;

        const CoreStats &stats = sim.core().stats();
        result.instructions = sim.instructions();
        result.accesses = stats.loads + stats.stores;
        if (result.wallSeconds < 0.0 || elapsed < result.wallSeconds)
            result.wallSeconds = elapsed;
    }
    return result;
}

/**
 * One timed run of a heterogeneous contention mix: the full
 * multicore interleave — shared L3/DRAM, per-core prefetchers,
 * arbitration — measured the same way as a single-core cell.
 * Instruction and access counts are summed over the cores.
 */
CellResult
runMixCell(const SimConfig &config, const ContentionMix &mix,
           unsigned reps, unsigned warmup)
{
    CellResult result;
    result.workload = "mix:" + mix.name;
    result.prefetcher = mixPrefetcherLabel(mix);
    result.wallSeconds = -1.0;

    for (unsigned rep = 0; rep < warmup + reps; ++rep) {
        MulticoreSimulator sim(config, mix.cores);
        const double start = now();
        sim.run();
        const double elapsed = now() - start;
        if (rep < warmup)
            continue;

        result.instructions = 0;
        result.accesses = 0;
        for (std::size_t i = 0; i < sim.numCores(); ++i) {
            const CoreStats &stats = sim.core(i).core().stats();
            result.instructions += sim.core(i).instructions();
            result.accesses += stats.loads + stats.stores;
        }
        if (result.wallSeconds < 0.0 || elapsed < result.wallSeconds)
            result.wallSeconds = elapsed;
    }
    return result;
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--cells N] [--reps N] [--warmup N] [--instrs N]\n"
        "          [--jobs N] [--json FILE] [--quiet]\n"
        "  --cells N   limit the grid to the first N cells\n"
        "  --reps N    repetitions per cell, best-of (default 3)\n"
        "  --warmup N  discarded warmup reps per cell (default 1)\n"
        "  --instrs N  instruction budget per run (default 400000)\n"
        "  --jobs N    worker count of the multi-job pass (default 4;\n"
        "              0 disables the multi-job pass)\n"
        "  --json FILE output path (default BENCH_throughput.json)\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t max_cells = SIZE_MAX;
    unsigned reps = 3;
    unsigned warmup = 1;
    std::uint64_t max_instrs = 400000;
    unsigned jobs = 4;
    std::string json_path = "BENCH_throughput.json";
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--cells" && i + 1 < argc) {
            max_cells = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--reps" && i + 1 < argc) {
            reps = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--warmup" && i + 1 < argc) {
            warmup = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--instrs" && i + 1 < argc) {
            max_instrs = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--jobs" && i + 1 < argc) {
            jobs = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            usage(argv[0]);
            return 1;
        }
    }
    if (reps == 0)
        reps = 1;

    // The tab/fig workload cells the acceptance numbers quote: one
    // workload per dominant access pattern (stream, stencil, pointer
    // chase, region-dense, mixed, temporal recurrence, shuffled
    // lists), crossed with the headline prefetcher configs including
    // the enlarged three-extra composite.
    const std::vector<std::string> workloads{
        "libquantum.syn", "lbm.syn",       "mcf.syn",
        "milc.syn",       "omnetpp.syn",   "tempstream.syn",
        "shuflist.syn",
    };
    const std::vector<std::string> prefetchers{
        "none", "TPC", "SPP", "TPC+SPP", "TPC+SPP+Triangel+PChase"};

    SimConfig config = makeBenchConfig(max_instrs);
    config.maxInstrs = max_instrs;

    std::vector<CellResult> cells;
    for (const std::string &workload : workloads) {
        for (const std::string &prefetcher : prefetchers) {
            if (cells.size() >= max_cells)
                break;
            const WorkloadSpec &spec = findWorkload(workload);
            cells.push_back(
                runCell(config, spec, prefetcher, reps, warmup));
            if (!quiet) {
                const CellResult &cell = cells.back();
                std::fprintf(stderr,
                             "%-16s %-8s %9.0f kacc/s  %9.0f kinstr/s\n",
                             cell.workload.c_str(),
                             cell.prefetcher.c_str(),
                             cell.accessesPerSec() / 1e3,
                             cell.instrsPerSec() / 1e3);
            }
        }
    }

    // Contention mix cells: the multicore interleave's throughput,
    // per named mix (heterogeneous per-core prefetchers).
    for (const ContentionMix &mix : contentionMixes()) {
        if (cells.size() >= max_cells)
            break;
        cells.push_back(runMixCell(config, mix, reps, warmup));
        if (!quiet) {
            const CellResult &cell = cells.back();
            std::fprintf(stderr,
                         "%-16s %-8s %9.0f kacc/s  %9.0f kinstr/s\n",
                         cell.workload.c_str(),
                         cell.prefetcher.c_str(),
                         cell.accessesPerSec() / 1e3,
                         cell.instrsPerSec() / 1e3);
        }
    }

    // Multi-job pass: the same grid through the production sweep
    // machinery (baseline runs included, as a real sweep pays them).
    double sweep_wall = 0.0;
    std::uint64_t sweep_instrs = 0;
    if (jobs > 0) {
        runner::SweepOptions options;
        options.jobs = jobs;
        options.progress = false;
        runner::SweepRunner sweep(config, options);
        for (const CellResult &cell : cells) {
            // Mix cells run the multicore path, not a sweep cell.
            if (cell.prefetcher == "none" ||
                cell.workload.rfind("mix:", 0) == 0)
                continue;
            sweep.addCell(findWorkload(cell.workload), cell.prefetcher);
        }
        if (sweep.pendingJobs() > 0) {
            const double start = now();
            runner::SweepRunner::Report report = sweep.run();
            sweep_wall = now() - start;
            for (const RunOutput &out : report.outputs)
                sweep_instrs += out.instructions;
            if (!quiet) {
                std::fprintf(stderr,
                             "sweep --jobs %u: %9.0f kinstr/s "
                             "(%zu cells, %.2fs)\n",
                             jobs, sweep_wall > 0.0
                                       ? sweep_instrs / sweep_wall / 1e3
                                       : 0.0,
                             report.outputs.size(), sweep_wall);
            }
        }
    }

    runner::JsonWriter json;
    json.beginObject();
    json.field("schema", "dol-sweep-v1");
    json.field("generator", "perf_throughput");
    json.key("config").beginObject();
    json.field("max_instrs", max_instrs);
    json.field("reps", reps);
    json.field("warmup", warmup);
    json.endObject();

    json.key("results").beginArray();
    for (const CellResult &cell : cells) {
        json.beginObject();
        json.field("workload", cell.workload);
        json.field("prefetcher", cell.prefetcher);
        json.field("variant", "");
        json.field("seed", std::uint64_t{0});
        json.key("metrics").beginObject();
        json.field("instructions", cell.instructions);
        json.field("accesses", cell.accesses);
        json.field("wall_seconds", cell.wallSeconds);
        json.field("accesses_per_sec", cell.accessesPerSec());
        json.field("instrs_per_sec", cell.instrsPerSec());
        json.endObject();
        json.endObject();
    }
    json.endArray();

    json.key("timing").beginObject();
    json.field("jobs", jobs);
    json.field("elapsed_seconds", sweep_wall);
    json.field("sweep_instructions", sweep_instrs);
    json.field("sweep_instrs_per_sec",
               sweep_wall > 0.0 ? sweep_instrs / sweep_wall : 0.0);
    json.endObject();
    json.endObject();

    std::string text = json.take();
    text.push_back('\n');
    if (std::FILE *file = std::fopen(json_path.c_str(), "wb")) {
        std::fwrite(text.data(), 1, text.size(), file);
        std::fclose(file);
    } else {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    return 0;
}
