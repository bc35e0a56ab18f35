/**
 * @file
 * Prefetch accounting: the paper's scope and effective-accuracy
 * bookkeeping, kept outside the memory model via the listener
 * interface.
 *
 * Scope (paper section III): the footprint FP is the set of unique
 * line addresses of baseline (shadow) L1 misses, weighted by miss
 * count; PFP is the set of lines attempted by a prefetcher. The scope
 * is the weighted fraction of FP covered by PFP.
 *
 * Per-category (LHF/MHF/HHF) counters implement Figure 13, and an
 * optional exclude-set confines counters to the region TPC does not
 * cover (Figure 14).
 */

#ifndef DOL_METRICS_ACCOUNTING_HPP
#define DOL_METRICS_ACCOUNTING_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/flat_table.hpp"
#include "mem/listener.hpp"
#include "metrics/stratify.hpp"

namespace dol
{

class PrefetchAccounting : public MemListener
{
  public:
    PrefetchAccounting()
    {
        // The footprint / PFP sets grow to tens of thousands of lines
        // over a run; pre-sizing skips the doubling rehashes the
        // profiler otherwise attributes ~20% of sim time to.
        _fp.reserve(1u << 16);
        _pfp.reserve(1u << 16);
        _issueCategory.reserve(1u << 15);
    }

    struct CategoryCounters
    {
        std::uint64_t issued = 0;
        std::uint64_t used = 0;
        double inducedCredit = 0.0;

        double
        effectiveAccuracy() const
        {
            return issued ? (static_cast<double>(used) - inducedCredit) /
                                static_cast<double>(issued)
                          : 0.0;
        }
    };

    /** Attach the offline ground-truth classifier (Figure 13/16). */
    void
    setStratifier(const OfflineStratifier *stratifier)
    {
        _stratifier = stratifier;
    }

    /**
     * Confine the "focus" counters to lines outside @p exclude —
     * the region TPC does not cover (Figure 14).
     */
    void
    setExcludeSet(std::shared_ptr<const FlatHashSet<Addr>> exclude)
    {
        _exclude = std::move(exclude);
    }

    // --- MemListener ------------------------------------------------
    void shadowMiss(unsigned level, Addr line, Pc pc) override;
    void prefetchIssued(ComponentId comp, Addr line, unsigned dest,
                        Cycle when) override;
    void prefetchUsed(ComponentId comp, unsigned level,
                      Addr line) override;
    void inducedMiss(unsigned level, Addr line,
                     std::span<const ComponentId> comps) override;

    // --- results ------------------------------------------------------
    /** Scope of the whole prefetcher (all components). */
    double scope() const;

    /** Scope of one component's prefetching footprint. */
    double scopeOf(ComponentId comp) const;

    /** Scope within one ground-truth category. */
    double scopeInCategory(Fruit fruit) const;

    /** Category counters (all components together). */
    const CategoryCounters &category(Fruit fruit) const
    {
        return _categories[static_cast<unsigned>(fruit)];
    }

    /** Focus-region (outside the exclude set) counters and scope. */
    const CategoryCounters &focus() const { return _focus; }
    double focusScope() const;

    /** The set of lines this run prefetched (becomes the next
     *  experiment's exclude set). */
    std::shared_ptr<const FlatHashSet<Addr>> takePfp();

    std::uint64_t footprintLines() const { return _fp.size(); }
    std::uint64_t footprintWeight() const { return _fpWeight; }

  private:
    bool
    inFocus(Addr line) const
    {
        return _exclude && !_exclude->contains(line);
    }

    const OfflineStratifier *_stratifier = nullptr;
    std::shared_ptr<const FlatHashSet<Addr>> _exclude;

    /** Baseline L1 miss footprint with weights. */
    FlatHashMap<Addr, std::uint32_t> _fp;
    std::uint64_t _fpWeight = 0;

    FlatHashSet<Addr> _pfp;
    std::array<FlatHashSet<Addr>, kMaxComponents> _pfpByComp;

    std::array<CategoryCounters, kNumFruit> _categories{};
    CategoryCounters _focus{};

    /** Which category each prefetched line was charged to. */
    FlatHashMap<Addr, std::uint8_t> _issueCategory;
};

} // namespace dol

#endif // DOL_METRICS_ACCOUNTING_HPP
