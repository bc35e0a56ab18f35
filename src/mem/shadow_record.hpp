/**
 * @file
 * The alternate-reality (shadow) hierarchy's outcome for every demand
 * access of one run, recorded once and replayed.
 *
 * The shadow tags see demand accesses only, so their outcomes depend
 * on the workload's demand stream and never on the prefetcher. The
 * baseline pass walks them live and records, per access, the level at
 * which the no-prefetch hierarchy hit (2 bits: L1, L2, L3, or a miss
 * to DRAM), plus the run's baseline DRAM traffic. Measured runs of the
 * same workload replay the record instead of walking a tag-only
 * replica of L1-L3 on every access (MemorySystem::replayShadow).
 *
 * The access count and a running digest of (line, is_store) tie a
 * record to the demand stream that produced it, so a replay against a
 * different stream fails loudly instead of reporting numbers.
 */

#ifndef DOL_MEM_SHADOW_RECORD_HPP
#define DOL_MEM_SHADOW_RECORD_HPP

#include <cstdint>
#include <vector>

#include "common/flat_table.hpp"
#include "common/types.hpp"
#include "mem/listener.hpp"

namespace dol
{

class ShadowRecord
{
  public:
    /** Digest of the empty demand stream. */
    static constexpr std::uint64_t kDigestSeed = 0x9e3779b97f4a7c15ull;

    /** Fold one demand access into a running stream digest. */
    static constexpr std::uint64_t
    digestStep(std::uint64_t digest, Addr line, bool is_store)
    {
        // Line addresses have zeroed offset bits: bit 0 carries the
        // access kind.
        return flatHashMix(digest ^ (line | (is_store ? 1u : 0u)));
    }

    /**
     * Append one access: the level it hit in the shadow hierarchy,
     * kNumCacheLevels when it missed all of them.
     */
    void
    append(Addr line, bool is_store, unsigned hit_level)
    {
        const unsigned shift = static_cast<unsigned>(_accesses & 3) * 2;
        if (shift == 0)
            _packed.push_back(0);
        _packed.back() |= static_cast<std::uint8_t>(hit_level << shift);
        ++_accesses;
        _digest = digestStep(_digest, line, is_store);
    }

    /** Shadow hit level of access @p index (< accesses()). */
    unsigned
    hitLevel(std::uint64_t index) const
    {
        return (_packed[index >> 2] >> ((index & 3) * 2)) & 3u;
    }

    /** End of the recorded run: store its baseline DRAM traffic and
     *  release the growth slack. */
    void
    close(std::uint64_t dram_lines)
    {
        _dramLines = dram_lines;
        _packed.shrink_to_fit();
    }

    std::uint64_t accesses() const { return _accesses; }
    std::uint64_t digest() const { return _digest; }
    /** Baseline DRAM lines (shadow L3 misses + writebacks). */
    std::uint64_t dramLines() const { return _dramLines; }

  private:
    static_assert(kNumCacheLevels == 3, "hit levels are packed in 2 bits");

    std::vector<std::uint8_t> _packed;
    std::uint64_t _accesses = 0;
    std::uint64_t _digest = kDigestSeed;
    std::uint64_t _dramLines = 0;
};

} // namespace dol

#endif // DOL_MEM_SHADOW_RECORD_HPP
