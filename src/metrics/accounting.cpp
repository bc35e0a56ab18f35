#include "metrics/accounting.hpp"

namespace dol
{

void
PrefetchAccounting::shadowMiss(unsigned level, Addr line, Pc pc)
{
    (void)pc;
    if (level != kL1)
        return;
    ++_fp[line];
    ++_fpWeight;
}

void
PrefetchAccounting::prefetchIssued(ComponentId comp, Addr line,
                                   unsigned dest, Cycle when)
{
    (void)dest;
    (void)when;
    _pfp.insert(line);
    _pfpByComp[comp].insert(line);

    Fruit fruit = Fruit::kHHF;
    if (_stratifier)
        fruit = _stratifier->classify(line);
    ++_categories[static_cast<unsigned>(fruit)].issued;
    _issueCategory[line] = static_cast<std::uint8_t>(fruit);

    if (inFocus(line))
        ++_focus.issued;
}

void
PrefetchAccounting::prefetchUsed(ComponentId comp, unsigned level,
                                 Addr line)
{
    (void)comp;
    (void)level;
    if (level != kL1 && level != kL2)
        return;
    const std::uint8_t *category = _issueCategory.find(line);
    const unsigned fruit =
        category ? *category : static_cast<unsigned>(Fruit::kHHF);
    ++_categories[fruit].used;
    if (inFocus(line))
        ++_focus.used;
}

void
PrefetchAccounting::inducedMiss(unsigned level, Addr line,
                                std::span<const ComponentId> comps)
{
    (void)comps;
    if (level != kL1)
        return;
    // Charge the negative credit to the category (and focus region) of
    // the victim lines' prefetches. We approximate with the category
    // of the missing line itself, which the prefetched lines displaced.
    const std::uint8_t *category = _issueCategory.find(line);
    const unsigned fruit =
        category ? *category
                 : static_cast<unsigned>(
                       _stratifier ? _stratifier->classify(line)
                                   : Fruit::kHHF);
    _categories[fruit].inducedCredit += 1.0;
    if (inFocus(line))
        _focus.inducedCredit += 1.0;
}

double
PrefetchAccounting::scope() const
{
    if (_fpWeight == 0)
        return 0.0;
    std::uint64_t covered = 0;
    _fp.forEach([&](Addr line, std::uint32_t weight) {
        if (_pfp.contains(line))
            covered += weight;
    });
    return static_cast<double>(covered) /
           static_cast<double>(_fpWeight);
}

double
PrefetchAccounting::scopeOf(ComponentId comp) const
{
    if (_fpWeight == 0)
        return 0.0;
    const auto &pfp = _pfpByComp[comp];
    std::uint64_t covered = 0;
    _fp.forEach([&](Addr line, std::uint32_t weight) {
        if (pfp.contains(line))
            covered += weight;
    });
    return static_cast<double>(covered) /
           static_cast<double>(_fpWeight);
}

double
PrefetchAccounting::scopeInCategory(Fruit fruit) const
{
    if (!_stratifier)
        return 0.0;
    std::uint64_t total = 0;
    std::uint64_t covered = 0;
    _fp.forEach([&](Addr line, std::uint32_t weight) {
        if (_stratifier->classify(line) != fruit)
            return;
        total += weight;
        if (_pfp.contains(line))
            covered += weight;
    });
    return total ? static_cast<double>(covered) /
                       static_cast<double>(total)
                 : 0.0;
}

double
PrefetchAccounting::focusScope() const
{
    if (!_exclude)
        return 0.0;
    std::uint64_t total = 0;
    std::uint64_t covered = 0;
    _fp.forEach([&](Addr line, std::uint32_t weight) {
        if (!inFocus(line))
            return;
        total += weight;
        if (_pfp.contains(line))
            covered += weight;
    });
    return total ? static_cast<double>(covered) /
                       static_cast<double>(total)
                 : 0.0;
}

std::shared_ptr<const FlatHashSet<Addr>>
PrefetchAccounting::takePfp()
{
    // One right-sized flat copy: _pfp is pre-sized for 64k lines, and
    // every sweep cell keeps its RunOutput (and this set) to the end.
    auto out = std::make_shared<FlatHashSet<Addr>>();
    out->reserve(_pfp.size());
    _pfp.forEach([&](Addr line) { out->insert(line); });
    return out;
}

} // namespace dol
