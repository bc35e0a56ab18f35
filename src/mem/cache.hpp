/**
 * @file
 * Set-associative cache model with LRU replacement, per-line prefetch
 * metadata, and an integrated MSHR file.
 *
 * The model is functional-with-timestamps: state changes apply in call
 * order, while each line carries a readyAt cycle so a demand hit on an
 * in-flight (prefetched or fetched) line pays the residual latency.
 * Per-line metadata records which prefetcher component installed the
 * line and whether it has served a demand access yet — the raw material
 * of the paper's effective-accuracy credit assignment.
 */

#ifndef DOL_MEM_CACHE_HPP
#define DOL_MEM_CACHE_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace dol
{

/** Identifier of the prefetcher component that installed a line. */
using ComponentId = std::uint8_t;
constexpr ComponentId kNoComponent = 0;
constexpr unsigned kMaxComponents = 32;

class Cache
{
  public:
    struct Params
    {
        std::string name = "cache";
        std::uint32_t sizeBytes = 64 * 1024;
        std::uint32_t assoc = 4;
        /** Tag+data access latency in core cycles. */
        Cycle latency = 3;
        /** MSHR entries; 0 disables miss tracking (shadow tags). */
        std::uint32_t mshrs = 32;
    };

    struct Line
    {
        Addr tag = kNoAddr; ///< full line address (kNoAddr = invalid)
        bool valid = false;
        bool dirty = false;
        bool prefetched = false; ///< installed by a prefetch
        bool used = false;       ///< has served a demand access
        ComponentId comp = kNoComponent;
        /** Core that installed the line (shared-cache attribution). */
        std::uint8_t owner = 0;
        Cycle readyAt = 0; ///< fill completion time
    };

    /** Description of a line pushed out by an insertion. */
    struct Victim
    {
        Addr lineAddr = kNoAddr;
        bool dirty = false;
        bool prefetched = false;
        bool used = false;
        ComponentId comp = kNoComponent;
        std::uint8_t owner = 0;
    };

    explicit Cache(const Params &params);

    /** Look up a line; nullptr on miss. Does not update LRU. */
    Line *find(Addr line_addr);
    const Line *find(Addr line_addr) const;

    /** Promote a line to MRU. */
    void touch(Line &line);

    /**
     * Insert a line, evicting the LRU way if the set is full.
     *
     * @return the victim, if a valid line was displaced.
     */
    std::optional<Victim> insert(Addr line_addr, Line **out_line);

    /** Remove a line if present (used for prefetch cancellation). */
    bool invalidate(Addr line_addr);

    /**
     * Collect the component ids of prefetched lines in the set mapped
     * by @p line_addr (for induced-miss negative credit splitting).
     */
    void prefetchedCompsInSet(Addr line_addr,
                              std::vector<ComponentId> &out) const;

    // --- MSHR file ------------------------------------------------
    struct MshrEntry
    {
        Addr lineAddr = kNoAddr;
        Cycle completion = 0; ///< slot free once completion <= now
    };

    /**
     * Outstanding fetch of this line as of @p now, or nullptr when
     * none is pending.
     */
    MshrEntry *pendingEntry(Addr line_addr, Cycle now);

    /**
     * Completion time of an outstanding fetch of this line, or
     * kNoCycle when none is pending as of @p now.
     */
    Cycle pendingCompletion(Addr line_addr, Cycle now) const;

    /** True when no MSHR can accept a new miss at @p now. */
    bool mshrFull(Cycle now) const;

    /** Number of MSHRs still tracking an in-flight fetch at @p now. */
    std::uint32_t liveMshrCount(Cycle now) const;

    /** Earliest time an MSHR frees; kNoCycle if none allocated. */
    Cycle earliestMshrFree() const;

    /**
     * Allocate an MSHR for a demand fetch completing at
     * @p completion. Prefetches never hold MSHRs: they are throttled
     * at the DRAM read queue instead.
     */
    void addMshr(Addr line_addr, Cycle completion);

    const Params &params() const { return _params; }
    Cycle latency() const { return _params.latency; }
    std::uint32_t numSets() const { return _numSets; }

  private:
    std::size_t setIndex(Addr line_addr) const;

    Params _params;
    std::uint32_t _numSets;
    std::vector<Line> _lines;
    /** Tag-only mirror of _lines (kNoAddr = invalid): find() scans 8
     *  bytes per way instead of the 24-byte Line (8-byte tag, six
     *  1-byte fields, padding, 8-byte readyAt), so an L1 or L2 set's
     *  tags fit in one cache line. Maintained by insert()/invalidate()
     *  — callers mutate every other Line field but never tag/valid. */
    std::vector<Addr> _tags;
    /** LRU stamps, same index space as _lines/_tags: the insert()
     *  victim scan reads only _tags + _stamps (two dense arrays). */
    std::vector<std::uint64_t> _stamps;
    std::vector<MshrEntry> _mshrs;
    std::uint64_t _stampCounter = 0;
};

} // namespace dol

#endif // DOL_MEM_CACHE_HPP
