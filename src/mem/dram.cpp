#include "mem/dram.hpp"

#include <algorithm>

namespace dol
{

const char *
arbitrationName(ArbitrationPolicy policy)
{
    switch (policy) {
    case ArbitrationPolicy::kFifo:
        return "fifo";
    case ArbitrationPolicy::kCoreRoundRobin:
        return "rr";
    case ArbitrationPolicy::kDemandFirst:
        break;
    }
    return "demand-first";
}

bool
arbitrationFromName(const std::string &name, ArbitrationPolicy &out)
{
    if (name == "demand-first") {
        out = ArbitrationPolicy::kDemandFirst;
    } else if (name == "fifo") {
        out = ArbitrationPolicy::kFifo;
    } else if (name == "rr") {
        out = ArbitrationPolicy::kCoreRoundRobin;
    } else {
        return false;
    }
    return true;
}

Dram::Dram(const DramParams &params)
    : _params(params), _channels(params.channels), _rng(params.rngSeed)
{
    for (Channel &channel : _channels) {
        channel.banks.resize(params.ranksPerChannel *
                             params.banksPerRank);
        channel.queue.reserve(params.queueCapacity);
    }
    _dropScratch.reserve(params.queueCapacity);
    _arbScratch.reserve(params.queueCapacity);
}

unsigned
Dram::channelOf(Addr line_addr) const
{
    return static_cast<unsigned>(lineNum(line_addr) % _params.channels);
}

unsigned
Dram::bankOf(Addr line_addr) const
{
    const auto banks = _params.ranksPerChannel * _params.banksPerRank;
    // XOR-hash higher address bits into the bank index, as real
    // controllers do, so power-of-two strides do not serialize on a
    // single bank.
    const std::uint64_t idx = lineNum(line_addr) / _params.channels;
    return static_cast<unsigned>((idx ^ (idx >> 7) ^ (idx >> 13)) %
                                 banks);
}

std::uint64_t
Dram::rowOf(Addr line_addr) const
{
    const auto lines_per_row = _params.rowBytes / kLineBytes;
    const auto banks = _params.ranksPerChannel * _params.banksPerRank;
    return lineNum(line_addr) / _params.channels / banks / lines_per_row;
}

std::size_t
Dram::pruneQueue(Channel &channel, Cycle now)
{
    std::erase_if(channel.queue, [now](const QueueEntry &entry) {
        return entry.completion <= now;
    });
    return channel.queue.size();
}

bool
Dram::makeRoom(Channel &channel, bool incoming_is_prefetch,
               std::uint8_t incoming_priority)
{
    // Collect queued prefetches as drop candidates (member scratch:
    // this runs on every queue-full event and must not allocate).
    std::vector<std::size_t> &candidates = _dropScratch;
    candidates.clear();
    for (std::size_t i = 0; i < channel.queue.size(); ++i) {
        if (channel.queue[i].isPrefetch)
            candidates.push_back(i);
    }

    if (candidates.empty()) {
        // Only demands queued: a prefetch is shed, a demand waits.
        if (incoming_is_prefetch)
            return false;
        ++_stats.queueFullDemandStalls;
        return true; // caller delays to the earliest completion
    }

    std::size_t victim = candidates.front();
    if (_params.dropPolicy == DropPolicy::kRandomPrefetch) {
        victim = candidates[_rng.below(candidates.size())];
        // Random policy treats the incoming prefetch as one more
        // equally likely victim.
        if (incoming_is_prefetch &&
            _rng.below(candidates.size() + 1) == candidates.size()) {
            return false;
        }
    } else {
        for (std::size_t idx : candidates) {
            if (channel.queue[idx].priority <
                channel.queue[victim].priority) {
                victim = idx;
            }
        }
        // Priority-aware: shed the incoming prefetch instead if it is
        // the least confident request in sight.
        if (incoming_is_prefetch &&
            incoming_priority <= channel.queue[victim].priority) {
            return false;
        }
    }

    if (_cancel)
        _cancel(channel.queue[victim].lineAddr);
    ++_stats.droppedPrefetches;
    channel.queue.erase(channel.queue.begin() +
                        static_cast<std::ptrdiff_t>(victim));
    return true;
}

std::size_t
Dram::occupancy(Addr line_addr, Cycle now)
{
    _clock = std::max(_clock, now);
    return pruneQueue(_channels[channelOf(line_addr)], _clock);
}

Dram::ArbDelay
Dram::arbitrationDelay(Channel &channel, Cycle now, std::uint8_t core)
{
    ArbDelay result;
    std::uint64_t slots = 0;
    bool live_prefetch = false;
    if (_params.arbitration == ArbitrationPolicy::kFifo) {
        // Strict arrival order: one burst slot per live entry.
        for (const QueueEntry &entry : channel.queue) {
            if (entry.completion <= now)
                continue;
            ++slots;
            live_prefetch |= entry.isPrefetch;
        }
    } else {
        // Round-robin: wait behind every own entry, but at most
        // (own + 1) entries of any competing core — a quiet core's
        // first request slots in after one round of the busy cores.
        // Only the competing core ids present are tallied: a mix has a
        // handful, so a linear lookup beats clearing a table per id.
        std::vector<CoreTally> &others = _arbScratch;
        others.clear();
        std::uint64_t own = 0;
        for (const QueueEntry &entry : channel.queue) {
            if (entry.completion <= now)
                continue;
            live_prefetch |= entry.isPrefetch;
            if (entry.coreId == core) {
                ++own;
                continue;
            }
            auto it = std::find_if(others.begin(), others.end(),
                                   [&](const CoreTally &tally) {
                                       return tally.core == entry.coreId;
                                   });
            if (it == others.end())
                others.push_back({entry.coreId, 1});
            else
                ++it->count;
        }
        slots = own;
        for (const CoreTally &tally : others)
            slots += std::min(tally.count, own + 1);
    }
    result.cycles = slots * _params.tBurst;
    result.behindPrefetch = slots > 0 && live_prefetch;
    return result;
}

Cycle
Dram::applyBandwidthWindow(Cycle now)
{
    const Cycle window =
        _params.windowCycles > 0 ? _params.windowCycles : 1;
    const std::uint64_t index = now / window;
    if (index > _windowIndex) {
        _windowIndex = index;
        _windowLines = 0;
    }
    if (_windowLines >= _params.linesPerWindow) {
        const Cycle boundary =
            static_cast<Cycle>(_windowIndex + 1) * window;
        _stats.bandwidthStallCycles += boundary - now;
        ++_stats.windowDeferrals;
        now = boundary;
        _windowIndex = now / window;
        _windowLines = 0;
    }
    ++_windowLines;
    return now;
}

Dram::Result
Dram::access(Addr line_addr, Cycle now, bool is_write, bool is_prefetch,
             std::uint8_t priority, std::uint8_t core)
{
    Channel &channel = _channels[channelOf(line_addr)];
    _clock = std::max(_clock, now);

    // Queue arbitration. kDemandFirst is the legacy zero-delay path:
    // demands bypass queued prefetches and prefetches self-throttle
    // at the occupancy limit upstream, so no extra delay is modelled.
    if (_params.arbitration != ArbitrationPolicy::kDemandFirst) {
        pruneQueue(channel, _clock);
        const ArbDelay arb = arbitrationDelay(channel, _clock, core);
        if (arb.cycles > 0) {
            // The delay is relative to the request's own arrival, so
            // a core that queues little is punished little (RR) or in
            // proportion to the whole backlog (FIFO).
            now += arb.cycles;
            _clock = std::max(_clock, now);
            _stats.arbDelayCycles += arb.cycles;
            ++_stats.arbDelayedRequests;
            if (!is_write && !is_prefetch && arb.behindPrefetch)
                ++_stats.demandsDelayedByPrefetch;
        }
    }

    // Bandwidth cap: defer over-quota requests to the next window.
    if (_params.linesPerWindow > 0) {
        now = applyBandwidthWindow(now);
        _clock = std::max(_clock, now);
    }

    if (pruneQueue(channel, _clock) >= _params.queueCapacity) {
        if (!makeRoom(channel, is_prefetch, priority)) {
            ++_stats.droppedPrefetches;
            return {0, true};
        }
        if (pruneQueue(channel, _clock) >= _params.queueCapacity) {
            // Demands wait for the oldest request to drain.
            Cycle earliest = kNoCycle;
            for (const QueueEntry &entry : channel.queue)
                earliest = std::min(earliest, entry.completion);
            now = std::max(now, earliest);
            pruneQueue(channel, now);
        }
    }

    Bank &bank = channel.banks[bankOf(line_addr)];
    const std::uint64_t row = rowOf(line_addr);

    Cycle start = std::max(now + _params.tController, bank.readyAt);
    Cycle access_lat;
    if (bank.openRow == row) {
        access_lat = _params.tCAS;
        ++_stats.rowHits;
    } else {
        access_lat = _params.tRP + _params.tRCD + _params.tCAS;
        bank.openRow = row;
        ++_stats.rowMisses;
    }

    const Cycle bus_start =
        std::max(start + access_lat, channel.busReadyAt);
    const Cycle completion = bus_start + _params.tBurst;
    channel.busReadyAt = completion;
    // The bank is busy for its own access and burst only; coupling in
    // bus queueing would make backlog feed on itself.
    bank.readyAt = start + access_lat + _params.tBurst;

    if (is_write)
        ++_stats.writes;
    else
        ++_stats.reads;

    // Per-core attribution: every counted line is charged to exactly
    // one core, so the per-core sums equal linesTransferred().
    if (core >= _coreLines.size())
        _coreLines.resize(core + 1, 0);
    ++_coreLines[core];
    if (is_prefetch) {
        if (core >= _corePrefetchLines.size())
            _corePrefetchLines.resize(core + 1, 0);
        ++_corePrefetchLines[core];
    }

    if (channel.queue.size() < _params.queueCapacity) {
        channel.queue.push_back({lineAddr(line_addr), completion,
                                 is_prefetch, priority, core});
    }

    return {completion, false};
}

} // namespace dol
