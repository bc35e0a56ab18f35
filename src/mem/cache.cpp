#include "mem/cache.hpp"

#include <bit>

#include "common/log.hpp"

namespace dol
{

Cache::Cache(const Params &params) : _params(params)
{
    const std::uint32_t lines = params.sizeBytes / kLineBytes;
    if (params.assoc == 0 || lines == 0 || lines % params.assoc != 0)
        fatal("cache geometry: size must be a multiple of assoc lines");
    _numSets = lines / params.assoc;
    if (!std::has_single_bit(_numSets))
        fatal("cache geometry: number of sets must be a power of two");
    _lines.resize(lines);
    _tags.assign(lines, kNoAddr);
    _stamps.assign(lines, 0);
    _mshrs.resize(params.mshrs);
}

std::size_t
Cache::setIndex(Addr line_addr) const
{
    return static_cast<std::size_t>(lineNum(line_addr) & (_numSets - 1)) *
           _params.assoc;
}

Cache::Line *
Cache::find(Addr line_addr)
{
    const std::size_t base = setIndex(line_addr);
    const Addr tag = lineAddr(line_addr);
    // Line addresses have zeroed offset bits, so a valid tag can never
    // equal kNoAddr (all ones): the tag mirror alone decides the hit.
    for (std::uint32_t way = 0; way < _params.assoc; ++way) {
        if (_tags[base + way] == tag)
            return &_lines[base + way];
    }
    return nullptr;
}

const Cache::Line *
Cache::find(Addr line_addr) const
{
    return const_cast<Cache *>(this)->find(line_addr);
}

void
Cache::touch(Line &line)
{
    _stamps[static_cast<std::size_t>(&line - _lines.data())] =
        ++_stampCounter;
}

std::optional<Cache::Victim>
Cache::insert(Addr line_addr, Line **out_line)
{
    const std::size_t base = setIndex(line_addr);
    // Victim scan over the dense tag/stamp mirrors: the first free
    // way, else the smallest stamp (earliest way on ties).
    std::size_t victim_index = base;
    for (std::size_t i = base; i < base + _params.assoc; ++i) {
        if (_tags[i] == kNoAddr) {
            victim_index = i;
            break;
        }
        if (_stamps[i] < _stamps[victim_index])
            victim_index = i;
    }
    Line *victim_line = &_lines[victim_index];

    std::optional<Victim> victim;
    if (victim_line->valid) {
        victim = Victim{victim_line->tag, victim_line->dirty,
                        victim_line->prefetched, victim_line->used,
                        victim_line->comp, victim_line->owner};
    }

    *victim_line = Line{};
    victim_line->tag = lineAddr(line_addr);
    victim_line->valid = true;
    _tags[static_cast<std::size_t>(victim_line - _lines.data())] =
        victim_line->tag;
    touch(*victim_line);
    if (out_line)
        *out_line = victim_line;
    return victim;
}

bool
Cache::invalidate(Addr line_addr)
{
    if (Line *line = find(line_addr)) {
        *line = Line{};
        const std::size_t index =
            static_cast<std::size_t>(line - _lines.data());
        _tags[index] = kNoAddr;
        _stamps[index] = 0;
        return true;
    }
    return false;
}

void
Cache::prefetchedCompsInSet(Addr line_addr,
                            std::vector<ComponentId> &out) const
{
    out.clear();
    const std::size_t base = setIndex(line_addr);
    for (std::uint32_t way = 0; way < _params.assoc; ++way) {
        const Line &line = _lines[base + way];
        if (line.valid && line.prefetched)
            out.push_back(line.comp);
    }
}

Cache::MshrEntry *
Cache::pendingEntry(Addr line_addr, Cycle now)
{
    const Addr tag = lineAddr(line_addr);
    for (MshrEntry &entry : _mshrs) {
        if (entry.lineAddr == tag && entry.completion > now)
            return &entry;
    }
    return nullptr;
}

Cycle
Cache::pendingCompletion(Addr line_addr, Cycle now) const
{
    const Addr tag = lineAddr(line_addr);
    for (const MshrEntry &entry : _mshrs) {
        if (entry.lineAddr == tag && entry.completion > now)
            return entry.completion;
    }
    return kNoCycle;
}

std::uint32_t
Cache::liveMshrCount(Cycle now) const
{
    std::uint32_t live = 0;
    for (const MshrEntry &entry : _mshrs) {
        if (entry.completion > now)
            ++live;
    }
    return live;
}

bool
Cache::mshrFull(Cycle now) const
{
    for (const MshrEntry &entry : _mshrs) {
        if (entry.completion <= now)
            return false;
    }
    return !_mshrs.empty();
}

Cycle
Cache::earliestMshrFree() const
{
    Cycle earliest = kNoCycle;
    for (const MshrEntry &entry : _mshrs)
        earliest = std::min(earliest, entry.completion);
    return earliest;
}

void
Cache::addMshr(Addr line_addr, Cycle completion)
{
    if (_mshrs.empty())
        return;
    // Reuse the slot that frees soonest; the caller has already
    // guaranteed availability (or accepted the overwrite for shadow
    // structures that do not model MSHR pressure).
    MshrEntry *slot = &_mshrs[0];
    for (MshrEntry &entry : _mshrs) {
        if (entry.completion < slot->completion)
            slot = &entry;
    }
    *slot = MshrEntry{lineAddr(line_addr), completion};
}

} // namespace dol
