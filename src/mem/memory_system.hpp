/**
 * @file
 * The three-level memory hierarchy of Table I, glued to the DRAM model
 * and instrumented with alternate-reality (shadow) tags.
 *
 * Each core owns a private L1D and L2 plus shadow replicas of both; a
 * SharedMemory object holds the shared L3, its shadow, and the DRAM
 * controller. The shadow hierarchy processes only demand accesses, so
 * its miss stream *is* the baseline (no-prefetch) miss stream — it
 * supplies the footprint FP for the scope metric, the denominator of
 * effective coverage, and the oracle for prefetch-induced misses
 * (paper sections III and V-C.1).
 *
 * Because that stream depends only on the workload, a single-core
 * hierarchy can replay the outcomes a baseline pass recorded
 * (shadow_record.hpp) instead of walking the shadow tags; the tag
 * replicas are allocated on the first live walk only. A run that
 * reports timing alone skips the shadow world altogether: the shadow
 * only measures, it never feeds timing.
 */

#ifndef DOL_MEM_MEMORY_SYSTEM_HPP
#define DOL_MEM_MEMORY_SYSTEM_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "cpu/core.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/listener.hpp"
#include "mem/shadow_record.hpp"

namespace dol
{

class TraceContext;
class CounterRegistry;

/** Full hierarchy configuration; defaults reproduce Table I. */
struct MemParams
{
    Cache::Params l1{"L1D", 64 * 1024, 4, nsToCycles(1.0), 32};
    Cache::Params l2{"L2", 256 * 1024, 8, nsToCycles(3.0), 32};
    /** Per-core share; the constructor scales by core count. */
    Cache::Params l3{"L3", 2 * 1024 * 1024, 16, nsToCycles(12.0), 64};
    DramParams dram{};
};

/** Counters kept per cache level. */
struct LevelStats
{
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandHits = 0;
    std::uint64_t primaryMisses = 0;
    std::uint64_t secondaryMisses = 0; ///< merged with in-flight fetch
    std::uint64_t latePrefetchHits = 0;
    std::uint64_t inducedMisses = 0;
    std::uint64_t prefetchFills = 0;
    std::uint64_t mshrStalls = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t unusedPrefetchEvictions = 0;
    std::uint64_t shadowMisses = 0; ///< baseline primary misses
};

/** Counters kept per prefetcher component. */
struct ComponentStats
{
    std::uint64_t issued = 0;
    std::uint64_t filled = 0;
    std::uint64_t used = 0;
    std::uint64_t filtered = 0;
    std::uint64_t droppedMshr = 0;
    std::uint64_t droppedQueue = 0;
    /** Fractional negative credits from induced misses. */
    double inducedCredit = 0.0;
};

struct MemStats
{
    std::array<LevelStats, kNumCacheLevels> level{};
    std::array<ComponentStats, kMaxComponents> comp{};

    /** Sum of issued prefetches over all components. */
    std::uint64_t
    prefetchesIssued() const
    {
        std::uint64_t total = 0;
        for (const auto &c : comp)
            total += c.issued;
        return total;
    }

    std::uint64_t
    prefetchesUsed() const
    {
        std::uint64_t total = 0;
        for (const auto &c : comp)
            total += c.used;
        return total;
    }
};

class MemorySystem;

/** Per-core footprint in the shared levels (contention attribution). */
struct CoreShareStats
{
    /** Lines this core installed into the shared L3. */
    std::uint64_t l3Insertions = 0;
    /** Valid L3 lines this core displaced that another core owned. */
    std::uint64_t l3EvictionsOfOthers = 0;
};

/** State shared by all cores: L3, its shadow, and the DRAM channel. */
class SharedMemory
{
  public:
    SharedMemory(const MemParams &params, unsigned num_cores = 1);

    Cache &l3() { return _l3; }
    Dram &dram() { return _dram; }
    const Dram &dram() const { return _dram; }

    /** Shared-L3 attribution for @p core (zeroes when untracked). */
    const CoreShareStats &coreShare(unsigned core) const
    {
        static const CoreShareStats kEmpty{};
        return core < _coreShare.size() ? _coreShare[core] : kEmpty;
    }

    /** Baseline DRAM traffic, in lines (shadow L3 misses + WBs). */
    std::uint64_t
    baselineDramLines() const
    {
        return _shadowDramReads + _shadowDramWrites;
    }

    std::uint64_t shadowDramReads() const { return _shadowDramReads; }

    void registerCore(MemorySystem *core);

  private:
    friend class MemorySystem;

    CoreShareStats &shareStatsFor(unsigned core)
    {
        if (core >= _coreShare.size())
            _coreShare.resize(core + 1);
        return _coreShare[core];
    }

    /** The shadow L3, built on the first live shadow walk. */
    Cache &shadowL3();

    Cache _l3;
    std::unique_ptr<Cache> _shadowL3;
    Dram _dram;
    std::uint64_t _shadowDramReads = 0;
    std::uint64_t _shadowDramWrites = 0;
    std::vector<MemorySystem *> _cores;
    std::vector<CoreShareStats> _coreShare;
};

/** Outcome of a prefetch request. */
enum class PrefetchOutcome : std::uint8_t
{
    kIssued,
    kFilteredPresent, ///< line already cached at/above the target
    kFilteredPending, ///< fetch already outstanding
    kDroppedMshr,     ///< no MSHR available at the target level
    kDroppedQueue,    ///< shed by the memory controller
    kDroppedThrottle, ///< blocked by the adaptive emission budget
};

class MemorySystem : public DataPort
{
  public:
    /**
     * Build a per-core hierarchy.
     *
     * @param params  cache/DRAM configuration
     * @param shared  shared L3+DRAM; nullptr builds a private one
     *                (the common single-core case)
     */
    explicit MemorySystem(const MemParams &params = {},
                          std::shared_ptr<SharedMemory> shared = nullptr);

    // DataPort
    Result demandLoad(Addr addr, Pc pc, Cycle when) override;
    Result demandStore(Addr addr, Pc pc, Cycle when) override;

    /**
     * Issue a prefetch of @p addr into @p dest_level.
     *
     * @param priority drop priority at the memory controller; higher
     *                 values survive longer (T2/P1 > C1).
     */
    PrefetchOutcome prefetch(Addr addr, unsigned dest_level,
                             ComponentId comp, Cycle when,
                             std::uint8_t priority = 1);

    void setListener(MemListener *listener) { _listener = listener; }

    /**
     * Append the live shadow walk's outcome for every demand access to
     * @p record (borrowed; nullptr stops). The baseline pass records;
     * the caller closes the record with baselineDramLines().
     */
    void recordShadow(ShadowRecord *record) { _record = record; }

    /**
     * Replay @p record (borrowed) instead of walking the shadow tags:
     * shadow-miss counts, shadowMiss() callbacks, induced-miss flags
     * and shadow DRAM reads come out as the live walk would produce
     * them. Call before the first demand access, on a private
     * (single-core) hierarchy only — a shared shadow L3 depends on
     * the interleaving of cores. A demand access past the end of the
     * record throws std::runtime_error.
     */
    void replayShadow(const ShadowRecord *record);

    /**
     * Run without a shadow world: no shadow tags are built or walked,
     * so shadow misses, induced misses and baseline DRAM lines stay
     * zero and no shadowMiss() or inducedMiss() event fires. Timing is
     * identical to a live walk. For runs whose caller reads timing
     * only (contention solo baselines). Call before the first demand
     * access, on a hierarchy that neither records nor replays.
     */
    void skipShadow();

    /**
     * End a replay: throws std::runtime_error unless this run's demand
     * stream matched the record access for access (count and digest);
     * then settles baselineDramLines() to the recorded total.
     */
    void finishShadowReplay();

    /** Attach the observability event bus (nullptr = tracing off). */
    void setTraceContext(TraceContext *trace) { _trace = trace; }

    /**
     * Identify this hierarchy's core for shared-resource attribution
     * (DRAM lines, L3 insertions/evictions). Defaults to 0, so the
     * single-core path is unchanged.
     */
    void setCoreId(unsigned id)
    {
        _coreId = static_cast<std::uint8_t>(id);
    }
    unsigned coreId() const { return _coreId; }

    /** Fold the per-level stats into @p registry (end of run). */
    void exportCounters(CounterRegistry &registry) const;

    const MemStats &stats() const { return _stats; }
    SharedMemory &shared() { return *_shared; }
    const SharedMemory &shared() const { return *_shared; }

    Cache &cacheAt(unsigned level);

    /** DRAM lines moved for this run (all cores, incl. writebacks). */
    std::uint64_t
    dramLines() const
    {
        return _shared->dram().linesTransferred();
    }

    /**
     * Invalidate an unused prefetched copy of @p line_addr in the
     * private levels (memory-controller cancellation).
     */
    void cancelPrefetchLine(Addr line_addr);

  private:
    Result demandAccess(Addr addr, Pc pc, Cycle when, bool is_store);

    /** Walk the shadow tags; @return the level the baseline hit at,
     *  kNumCacheLevels for a miss to DRAM. */
    unsigned shadowWalk(Addr line, Pc pc, bool is_store);
    /** shadowWalk's result and side effects, read from _replay. */
    unsigned shadowReplay(Addr line, Pc pc, bool is_store);
    void shadowMissAt(unsigned level, Addr line, Pc pc);
    void shadowFill(unsigned level, Addr line, bool dirty);

    /** Install @p line at @p level; handles eviction/writeback. */
    void fillLine(unsigned level, Addr line, Cycle completion,
                  bool prefetched, ComponentId comp, bool dirty,
                  Cycle now);
    void handleVictim(unsigned level, const Cache::Victim &victim,
                      Cycle now);

    Cache *levelCache(unsigned level);
    Cache *shadowCache(unsigned level);

    std::shared_ptr<SharedMemory> _shared;
    Cache _l1;
    Cache _l2;
    /** Shadow replicas, built on the first live shadow walk. */
    std::unique_ptr<Cache> _shadowL1;
    std::unique_ptr<Cache> _shadowL2;

    ShadowRecord *_record = nullptr;
    const ShadowRecord *_replay = nullptr;
    bool _skipShadow = false;
    std::uint64_t _replayNext = 0;
    std::uint64_t _replayDigest = ShadowRecord::kDigestSeed;

    /**
     * Upper bound on what a demand pays when it finds its line in
     * flight: it could always have fetched the line itself, so it is
     * never slower than a full (row-miss) memory round trip. This
     * also absorbs timestamp skew between out-of-order issue times.
     */
    Cycle _demandRefetchBound = 0;

    /**
     * Monotonic view of time at the memory interface. Dataflow issue
     * times are not monotonic in program order; occupancy questions
     * (are the MSHRs full?) are asked against this clock so a stale
     * timestamp cannot make long-completed fetches look live.
     */
    Cycle _memClock = 0;

    MemListener *_listener = nullptr;
    TraceContext *_trace = nullptr;
    MemStats _stats;
    std::uint8_t _coreId = 0;
    std::vector<ComponentId> _compScratch;
};

} // namespace dol

#endif // DOL_MEM_MEMORY_SYSTEM_HPP
