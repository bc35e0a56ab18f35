#include "mem/memory_system.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/log.hpp"
#include "trace/context.hpp"
#include "trace/counters.hpp"

namespace dol
{

namespace
{

/**
 * How long a prefetch may wait for an MSHR before being shed. Demands
 * are insulated from waiting prefetches (they steal slots, and a
 * demand never waits longer than its own refetch), so the queue can
 * be generous; only hopeless backlog is shed.
 */
constexpr Cycle kPrefetchQueueHorizon = 1000;

/** MSHRs held back for demand misses; prefetches may not take them. */
constexpr std::uint32_t kDemandReservedMshrs = 4;

/**
 * New prefetches are rejected while their channel's read queue holds
 * this many live requests: keeps burst backlog (and thus every fill's
 * queueing delay) bounded to a few memory round trips.
 */
constexpr std::size_t kPrefetchOccupancyLimit = 20;

Cache::Params
scaled(Cache::Params p, unsigned factor, const char *suffix)
{
    p.sizeBytes *= factor;
    p.name += suffix;
    return p;
}

} // namespace

SharedMemory::SharedMemory(const MemParams &params, unsigned num_cores)
    : _l3(scaled(params.l3, std::max(1u, num_cores), "")),
      _dram(params.dram)
{
    _dram.setCancelHook([this](Addr line_addr) {
        // Discard the speculatively installed copies of a prefetch the
        // controller decided to shed.
        if (Cache::Line *line = _l3.find(line_addr)) {
            if (line->prefetched && !line->used)
                _l3.invalidate(line_addr);
        }
        for (MemorySystem *core : _cores)
            core->cancelPrefetchLine(line_addr);
    });
}

void
SharedMemory::registerCore(MemorySystem *core)
{
    _cores.push_back(core);
}

Cache &
SharedMemory::shadowL3()
{
    if (!_shadowL3)
        _shadowL3 =
            std::make_unique<Cache>(scaled(_l3.params(), 1, ".shadow"));
    return *_shadowL3;
}

MemorySystem::MemorySystem(const MemParams &params,
                           std::shared_ptr<SharedMemory> shared)
    : _shared(shared ? std::move(shared)
                     : std::make_shared<SharedMemory>(params, 1)),
      _l1(params.l1),
      _l2(params.l2)
{
    _shared->registerCore(this);
    _compScratch.reserve(32);

    const DramParams &dram = _shared->dram().params();
    _demandRefetchBound = _l1.latency() + _l2.latency() +
                          _shared->l3().latency() + dram.tController +
                          dram.tRP + dram.tRCD + dram.tCAS +
                          dram.tBurst;
}

Cache *
MemorySystem::levelCache(unsigned level)
{
    switch (level) {
      case kL1: return &_l1;
      case kL2: return &_l2;
      case kL3: return &_shared->_l3;
      default: panic("bad cache level");
    }
}

Cache *
MemorySystem::shadowCache(unsigned level)
{
    switch (level) {
      case kL1: return _shadowL1.get();
      case kL2: return _shadowL2.get();
      case kL3: return &_shared->shadowL3();
      default: panic("bad cache level");
    }
}

Cache &
MemorySystem::cacheAt(unsigned level)
{
    return *levelCache(level);
}

DataPort::Result
MemorySystem::demandLoad(Addr addr, Pc pc, Cycle when)
{
    return demandAccess(addr, pc, when, false);
}

DataPort::Result
MemorySystem::demandStore(Addr addr, Pc pc, Cycle when)
{
    return demandAccess(addr, pc, when, true);
}

void
MemorySystem::shadowFill(unsigned level, Addr line, bool dirty)
{
    Cache *cache = shadowCache(level);
    if (Cache::Line *existing = cache->find(line)) {
        existing->dirty = existing->dirty || dirty;
        cache->touch(*existing);
        return;
    }
    Cache::Line *filled = nullptr;
    auto victim = cache->insert(line, &filled);
    filled->dirty = dirty;
    if (victim && victim->dirty) {
        if (level == kL3)
            ++_shared->_shadowDramWrites;
        else
            shadowFill(level + 1, victim->lineAddr, true);
    }
}

void
MemorySystem::shadowMissAt(unsigned level, Addr line, Pc pc)
{
    ++_stats.level[level].shadowMisses;
    if (_listener)
        _listener->shadowMiss(level, line, pc);
}

unsigned
MemorySystem::shadowWalk(Addr line, Pc pc, bool is_store)
{
    if (!_shadowL1) {
        _shadowL1 =
            std::make_unique<Cache>(scaled(_l1.params(), 1, ".shadow"));
        _shadowL2 =
            std::make_unique<Cache>(scaled(_l2.params(), 1, ".shadow"));
    }
    unsigned hit_level = 0;
    for (; hit_level < kNumCacheLevels; ++hit_level) {
        Cache *cache = shadowCache(hit_level);
        if (Cache::Line *found = cache->find(line)) {
            cache->touch(*found);
            if (is_store && hit_level == kL1)
                found->dirty = true;
            // Pull the line into the upper shadow levels, as the
            // baseline hierarchy would.
            for (unsigned up = hit_level; up-- > 0;)
                shadowFill(up, line, is_store && up == kL1);
            break;
        }
        shadowMissAt(hit_level, line, pc);
    }
    if (hit_level == kNumCacheLevels) {
        ++_shared->_shadowDramReads;
        for (unsigned lv = kNumCacheLevels; lv-- > 0;)
            shadowFill(lv, line, is_store && lv == kL1);
    }
    if (_record)
        _record->append(line, is_store, hit_level);
    return hit_level;
}

void
MemorySystem::replayShadow(const ShadowRecord *record)
{
    if (_stats.level[kL1].demandAccesses != 0 ||
        _shared->_cores.size() != 1)
        panic("shadow replay needs a fresh single-core hierarchy");
    _replay = record;
    _replayNext = 0;
    _replayDigest = ShadowRecord::kDigestSeed;
}

void
MemorySystem::skipShadow()
{
    if (_stats.level[kL1].demandAccesses != 0 || _record || _replay)
        panic("skipping the shadow needs a fresh, unrecorded hierarchy");
    _skipShadow = true;
}

unsigned
MemorySystem::shadowReplay(Addr line, Pc pc, bool is_store)
{
    if (_replayNext == _replay->accesses()) {
        throw std::runtime_error(
            "shadow replay: demand access " +
            std::to_string(_replayNext + 1) + " overruns a baseline " +
            "record of " + std::to_string(_replay->accesses()) +
            "; the run's demand stream is not the one it recorded");
    }
    const unsigned hit_level = _replay->hitLevel(_replayNext++);
    _replayDigest =
        ShadowRecord::digestStep(_replayDigest, line, is_store);
    for (unsigned lv = 0; lv < hit_level; ++lv)
        shadowMissAt(lv, line, pc);
    if (hit_level == kNumCacheLevels)
        ++_shared->_shadowDramReads;
    return hit_level;
}

void
MemorySystem::finishShadowReplay()
{
    if (!_replay)
        return;
    if (_replayNext != _replay->accesses() ||
        _replayDigest != _replay->digest()) {
        throw std::runtime_error(
            "shadow replay: " + std::to_string(_replayNext) +
            " demand accesses (digest " + std::to_string(_replayDigest) +
            ") against a baseline record of " +
            std::to_string(_replay->accesses()) + " (digest " +
            std::to_string(_replay->digest()) +
            "); the run's demand stream is not the one it recorded");
    }
    // Shadow writebacks are not part of the per-access record: the
    // recorded total already counts them.
    _shared->_shadowDramWrites =
        _replay->dramLines() - _shared->_shadowDramReads;
}

void
MemorySystem::handleVictim(unsigned level, const Cache::Victim &victim,
                           Cycle now)
{
    LevelStats &ls = _stats.level[level];
    ++ls.evictions;
    if (_trace) {
        std::uint8_t flags = 0;
        if (victim.dirty)
            flags |= kEvictDirty;
        if (victim.prefetched)
            flags |= kEvictPrefetched;
        if (victim.used)
            flags |= kEvictUsed;
        _trace->record(TraceEventType::kCacheEvict, now,
                       victim.lineAddr, 0,
                       static_cast<std::uint8_t>(victim.comp),
                       static_cast<std::uint8_t>(level), flags);
    }
    if (victim.prefetched && !victim.used) {
        ++ls.unusedPrefetchEvictions;
        if (_listener) {
            _listener->prefetchEvictedUnused(victim.comp, level,
                                             victim.lineAddr);
        }
    }
    if (level == kL3 && victim.owner != _coreId)
        ++_shared->shareStatsFor(_coreId).l3EvictionsOfOthers;
    if (!victim.dirty)
        return;
    ++ls.writebacks;
    if (level == kL3) {
        // Charge the writeback to the core whose dirty data it is.
        _shared->_dram.access(victim.lineAddr, now, /*is_write=*/true,
                              /*is_prefetch=*/false, /*priority=*/0,
                              victim.owner);
        return;
    }
    // Write the dirty line into the next level down.
    Cache *below = levelCache(level + 1);
    if (Cache::Line *line = below->find(victim.lineAddr)) {
        line->dirty = true;
        return;
    }
    fillLine(level + 1, victim.lineAddr, now, false, kNoComponent, true,
             now);
}

void
MemorySystem::fillLine(unsigned level, Addr line, Cycle completion,
                       bool prefetched, ComponentId comp, bool dirty,
                       Cycle now)
{
    Cache *cache = levelCache(level);
    if (Cache::Line *existing = cache->find(line)) {
        existing->dirty = existing->dirty || dirty;
        existing->readyAt = std::min(existing->readyAt, completion);
        cache->touch(*existing);
        return;
    }
    Cache::Line *filled = nullptr;
    auto victim = cache->insert(line, &filled);
    filled->readyAt = completion;
    filled->prefetched = prefetched;
    filled->comp = comp;
    filled->dirty = dirty;
    filled->owner = _coreId;
    if (level == kL3)
        ++_shared->shareStatsFor(_coreId).l3Insertions;
    if (victim)
        handleVictim(level, *victim, now);
}

DataPort::Result
MemorySystem::demandAccess(Addr addr, Pc pc, Cycle when, bool is_store)
{
    const Addr line = lineAddr(addr);
    Result res{};
    _memClock = std::max(_memClock, when);

    // Baseline first: the alternate reality is independent of the
    // prefetcher-perturbed state. Without one, report a baseline miss
    // at every level, so no real miss counts as induced.
    const unsigned shadow_hit_level =
        _replay       ? shadowReplay(line, pc, is_store)
        : _skipShadow ? kNumCacheLevels
                      : shadowWalk(line, pc, is_store);

    Cycle now = when;
    for (unsigned lv = 0; lv < kNumCacheLevels; ++lv) {
        Cache *cache = levelCache(lv);
        LevelStats &ls = _stats.level[lv];
        ++ls.demandAccesses;

        if (Cache::Line *found = cache->find(line)) {
            const Cycle lookup_done = now + cache->latency();
            const Cycle completion = std::min(
                std::max(lookup_done, found->readyAt),
                lookup_done + _demandRefetchBound);
            const bool in_flight = found->readyAt > lookup_done;

            if (in_flight && !found->prefetched) {
                // Merged with an outstanding demand fetch: a secondary
                // miss, ignored by the footprint (paper footnote 2).
                ++ls.secondaryMisses;
            } else if (in_flight) {
                ++ls.latePrefetchHits;
                ++ls.demandHits;
                DOL_TRACE_EVENT(_trace, TraceEventType::kPrefetchLate,
                                now, line, pc,
                                static_cast<std::uint8_t>(found->comp),
                                static_cast<std::uint8_t>(lv), 0);
            } else {
                ++ls.demandHits;
            }
            DOL_TRACE_EVENT(_trace, TraceEventType::kCacheHit, now,
                            line, pc,
                            static_cast<std::uint8_t>(found->comp),
                            static_cast<std::uint8_t>(lv),
                            static_cast<std::uint8_t>(
                                (is_store ? 1u : 0u) |
                                (found->prefetched ? 2u : 0u) |
                                (in_flight ? 4u : 0u)));

            cache->touch(*found);
            if (is_store)
                found->dirty = true;
            if (lv == kL1 && found->prefetched) {
                res.l1HitPrefetched = true;
                res.l1HitComp = found->comp;
            }
            if (found->prefetched && !found->used) {
                found->used = true;
                ++_stats.comp[found->comp].used;
                DOL_TRACE_EVENT(_trace, TraceEventType::kPrefetchUsed,
                                now, line, pc,
                                static_cast<std::uint8_t>(found->comp),
                                static_cast<std::uint8_t>(lv), 0);
                if (_listener)
                    _listener->prefetchUsed(found->comp, lv, line);
            }

            if (lv == kL1)
                res.l1Hit = true;
            else if (lv == kL2)
                res.l2Hit = true;
            else
                res.l3Hit = true;

            // Pull the line into the levels above the hit (the walk
            // loop already recorded their misses).
            for (unsigned up = lv; up-- > 0;) {
                fillLine(up, line, completion, false, kNoComponent,
                         is_store && up == kL1, now);
            }
            res.completion = completion;
            if (lv != kL1)
                res.l1PrimaryMiss = true;
            return res;
        }

        // Primary miss at this level.
        ++ls.primaryMisses;
        DOL_TRACE_EVENT(_trace, TraceEventType::kCacheMiss, now, line,
                        pc, 0, static_cast<std::uint8_t>(lv),
                        is_store ? 1 : 0);
        if (lv == kL1)
            res.l1PrimaryMiss = true;
        if (_listener)
            _listener->demandMiss(lv, line, pc);

        if (lv == shadow_hit_level) {
            // The baseline would have hit here: this miss is a
            // casualty of prefetching. Split one negative credit among
            // the prefetched lines currently in the set.
            ++ls.inducedMisses;
            cache->prefetchedCompsInSet(line, _compScratch);
            if (!_compScratch.empty()) {
                const double share =
                    1.0 / static_cast<double>(_compScratch.size());
                for (ComponentId comp : _compScratch)
                    _stats.comp[comp].inducedCredit += share;
            }
            if (_listener) {
                _listener->inducedMiss(
                    lv, line,
                    std::span<const ComponentId>(_compScratch));
            }
        }

        if (cache->mshrFull(std::max(now, _memClock))) {
            // Demands outrank prefetches: reclaim a prefetch-held
            // slot before stalling for a free one.
            if (!cache->stealPrefetchMshr(std::max(now, _memClock))) {
                ++ls.mshrStalls;
                now = std::max(now, cache->earliestMshrFree());
            }
        }
        now += cache->latency();
    }

    // Missed the whole hierarchy: fetch the line from DRAM.
    const auto dram_result =
        _shared->_dram.access(line, now, /*is_write=*/false,
                              /*is_prefetch=*/false, /*priority=*/0,
                              _coreId);
    const Cycle completion = dram_result.completion;

    for (unsigned lv = 0; lv < kNumCacheLevels; ++lv) {
        levelCache(lv)->addMshr(line, completion);
        fillLine(lv, line, completion, false, kNoComponent,
                 is_store && lv == kL1, now);
    }
    res.completion = completion;
    return res;
}

PrefetchOutcome
MemorySystem::prefetch(Addr addr, unsigned dest_level, ComponentId comp,
                       Cycle when, std::uint8_t priority)
{
    const Addr line = lineAddr(addr);
    if (dest_level >= kNumCacheLevels)
        panic("prefetch to invalid level");
    _memClock = std::max(_memClock, when);

    // Duplicate filtering: already cached at or above the target, or
    // already being fetched.
    for (unsigned lv = 0; lv <= dest_level; ++lv) {
        if (levelCache(lv)->find(line)) {
            ++_stats.comp[comp].filtered;
            return PrefetchOutcome::kFilteredPresent;
        }
    }
    Cache *dest = levelCache(dest_level);
    if (dest->pendingEntry(line, _memClock)) {
        ++_stats.comp[comp].filtered;
        return PrefetchOutcome::kFilteredPending;
    }
    // Prefetches do not compete for demand MSHRs: their throttle is
    // the memory controller. When the target channel's read queue is
    // already deep, the request is rejected at generation time —
    // components resume from their frontier, so issue self-paces to
    // available bandwidth instead of stretching every completion.
    if (_shared->_dram.occupancy(line, std::max(when, _memClock)) >=
        kPrefetchOccupancyLimit) {
        ++_stats.comp[comp].droppedQueue;
        DOL_TRACE_EVENT(_trace, TraceEventType::kPrefetchDropped, when,
                        line, 0, static_cast<std::uint8_t>(comp),
                        static_cast<std::uint8_t>(dest_level), 1);
        return PrefetchOutcome::kDroppedQueue;
    }

    ++_stats.comp[comp].issued;
    DOL_TRACE_EVENT(_trace, TraceEventType::kPrefetchIssued, when,
                    line, 0, static_cast<std::uint8_t>(comp),
                    static_cast<std::uint8_t>(dest_level), priority);
    if (_listener)
        _listener->prefetchIssued(comp, line, dest_level, when);

    // Locate the closest copy below the destination.
    Cycle now = when + dest->latency();
    Cycle completion = 0;
    unsigned src_level = kNumCacheLevels;
    for (unsigned lv = dest_level + 1; lv < kNumCacheLevels; ++lv) {
        Cache *cache = levelCache(lv);
        if (Cache::Line *found = cache->find(line)) {
            completion =
                std::max(now + cache->latency(), found->readyAt);
            cache->touch(*found);
            src_level = lv;
            break;
        }
        now += cache->latency();
    }
    if (src_level == kNumCacheLevels) {
        const auto dram_result = _shared->_dram.access(
            line, now, /*is_write=*/false, /*is_prefetch=*/true,
            priority, _coreId);
        if (dram_result.dropped) {
            ++_stats.comp[comp].droppedQueue;
            DOL_TRACE_EVENT(_trace, TraceEventType::kPrefetchDropped,
                            when, line, 0,
                            static_cast<std::uint8_t>(comp),
                            static_cast<std::uint8_t>(dest_level), 2);
            if (_listener)
                _listener->prefetchDropped(comp, line);
            return PrefetchOutcome::kDroppedQueue;
        }
        completion = dram_result.completion;
    }

    // Install into every level from just above the source up to the
    // destination (the data passes through them on the way in).
    const unsigned lowest_fill =
        src_level == kNumCacheLevels ? kNumCacheLevels - 1
                                     : src_level - 1;
    for (unsigned lv = lowest_fill + 1; lv-- > dest_level;) {
        fillLine(lv, line, completion, true, comp, false, when);
        ++_stats.level[lv].prefetchFills;
    }
    ++_stats.comp[comp].filled;
    DOL_TRACE_EVENT(_trace, TraceEventType::kPrefetchFilled,
                    completion, line, 0,
                    static_cast<std::uint8_t>(comp),
                    static_cast<std::uint8_t>(dest_level), 0);
    if (_listener)
        _listener->prefetchFill(comp, line, completion);
    return PrefetchOutcome::kIssued;
}

void
MemorySystem::cancelPrefetchLine(Addr line_addr)
{
    unsigned level = kL1;
    for (Cache *cache : {&_l1, &_l2}) {
        if (Cache::Line *line = cache->find(line_addr)) {
            if (line->prefetched && !line->used) {
                DOL_TRACE_EVENT(_trace,
                                TraceEventType::kPrefetchDemoted,
                                _memClock, line_addr, 0,
                                static_cast<std::uint8_t>(line->comp),
                                static_cast<std::uint8_t>(level), 0);
                cache->invalidate(line_addr);
            }
        }
        ++level;
    }
}

void
MemorySystem::exportCounters(CounterRegistry &registry) const
{
    static const char *const kLevelNames[kNumCacheLevels] = {"L1", "L2",
                                                             "L3"};
    for (unsigned lv = 0; lv < kNumCacheLevels; ++lv) {
        const LevelStats &ls = _stats.level[lv];
        const std::string scope = kLevelNames[lv];
        registry.set(scope, "demand_accesses", ls.demandAccesses);
        registry.set(scope, "demand_hits", ls.demandHits);
        registry.set(scope, "primary_misses", ls.primaryMisses);
        registry.set(scope, "secondary_misses", ls.secondaryMisses);
        registry.set(scope, "late_prefetch_hits", ls.latePrefetchHits);
        registry.set(scope, "induced_misses", ls.inducedMisses);
        registry.set(scope, "prefetch_fills", ls.prefetchFills);
        registry.set(scope, "mshr_stalls", ls.mshrStalls);
        registry.set(scope, "evictions", ls.evictions);
        registry.set(scope, "writebacks", ls.writebacks);
        registry.set(scope, "unused_prefetch_evictions",
                     ls.unusedPrefetchEvictions);
        registry.set(scope, "shadow_misses", ls.shadowMisses);
    }
}

} // namespace dol
