/**
 * @file
 * Unit tests for the metrics layer: the scope definition (weighted
 * FP coverage, paper section III), effective-accuracy credit
 * bookkeeping, and the offline LHF/MHF/HHF stratifier.
 */

#include <gtest/gtest.h>

#include "metrics/accounting.hpp"
#include "metrics/stratify.hpp"

namespace dol
{
namespace
{

TEST(Accounting, ScopeIsWeightedFootprintCoverage)
{
    PrefetchAccounting acct;
    // Footprint: line A missed 3 times, line B once.
    acct.shadowMiss(kL1, 0x1000, 1);
    acct.shadowMiss(kL1, 0x1000, 1);
    acct.shadowMiss(kL1, 0x1000, 1);
    acct.shadowMiss(kL1, 0x2000, 1);
    // The prefetcher attempted only A.
    acct.prefetchIssued(1, 0x1000, kL1, 0);

    EXPECT_NEAR(acct.scope(), 0.75, 1e-9);
    EXPECT_NEAR(acct.scopeOf(1), 0.75, 1e-9);
    EXPECT_NEAR(acct.scopeOf(2), 0.0, 1e-9);
    EXPECT_EQ(acct.footprintLines(), 2u);
    EXPECT_EQ(acct.footprintWeight(), 4u);
}

TEST(Accounting, L2ShadowMissesDoNotEnterL1Footprint)
{
    PrefetchAccounting acct;
    acct.shadowMiss(kL2, 0x1000, 1);
    acct.shadowMiss(kL3, 0x2000, 1);
    EXPECT_EQ(acct.footprintLines(), 0u);
}

TEST(Accounting, CategoryCountersUseStratifier)
{
    OfflineStratifier strat;
    // Strided PC: addresses 0x100000 + i*64 -> LHF lines.
    for (int i = 0; i < 20; ++i)
        strat.observe(0x10, 0x100000 + i * 64);
    // Dense region at 0x200000 via a wandering PC -> MHF.
    for (unsigned i = 0; i < 10; ++i)
        strat.observe(0x20, 0x200000 + ((i * 5) % 16) * 64);

    PrefetchAccounting acct;
    acct.setStratifier(&strat);

    acct.prefetchIssued(1, 0x100000 + 5 * 64, kL1, 0); // LHF
    acct.prefetchIssued(1, 0x200000 + 2 * 64, kL1, 0); // MHF
    acct.prefetchIssued(1, 0x900000, kL1, 0);          // HHF

    EXPECT_EQ(acct.category(Fruit::kLHF).issued, 1u);
    EXPECT_EQ(acct.category(Fruit::kMHF).issued, 1u);
    EXPECT_EQ(acct.category(Fruit::kHHF).issued, 1u);

    // A use credits the category the prefetch was charged to.
    acct.prefetchUsed(1, kL1, 0x100000 + 5 * 64);
    EXPECT_EQ(acct.category(Fruit::kLHF).used, 1u);
    EXPECT_NEAR(acct.category(Fruit::kLHF).effectiveAccuracy(), 1.0,
                1e-9);
}

TEST(Accounting, EffectiveAccuracyGoesNegativeWithPollution)
{
    PrefetchAccounting acct;
    acct.prefetchIssued(1, 0x1000, kL1, 0);
    std::vector<ComponentId> comps{1};
    acct.inducedMiss(kL1, 0x1000, comps);
    acct.inducedMiss(kL1, 0x1000, comps);
    // 0 used - 2 induced over 1 issued: accuracy -2 (worse than
    // useless, as in the paper's HHF scatter).
    EXPECT_NEAR(acct.category(Fruit::kHHF).effectiveAccuracy(), -2.0,
                1e-9);
}

TEST(Accounting, ExcludeSetConfinesFocusCounters)
{
    auto exclude = std::make_shared<FlatHashSet<Addr>>();
    exclude->insert(0x1000);

    PrefetchAccounting acct;
    acct.setExcludeSet(exclude);

    acct.shadowMiss(kL1, 0x1000, 1); // covered by TPC: not in focus
    acct.shadowMiss(kL1, 0x2000, 1); // in focus
    acct.prefetchIssued(1, 0x1000, kL1, 0);
    acct.prefetchIssued(1, 0x2000, kL1, 0);
    acct.prefetchUsed(1, kL1, 0x2000);

    EXPECT_EQ(acct.focus().issued, 1u);
    EXPECT_EQ(acct.focus().used, 1u);
    EXPECT_NEAR(acct.focusScope(), 1.0, 1e-9);
}

TEST(Accounting, PfpHandoffFeedsNextExperiment)
{
    PrefetchAccounting acct;
    acct.prefetchIssued(1, 0x1000, kL1, 0);
    acct.prefetchIssued(2, 0x2000, kL2, 0);
    auto pfp = acct.takePfp();
    ASSERT_NE(pfp, nullptr);
    EXPECT_TRUE(pfp->contains(0x1000));
    EXPECT_TRUE(pfp->contains(0x2000));
    EXPECT_EQ(pfp->size(), 2u);
}

TEST(Stratifier, ClassifiesThreeCategories)
{
    OfflineStratifier strat;
    // LHF: steady stride.
    for (int i = 0; i < 30; ++i)
        strat.observe(0x10, 0x500000 + i * 64);
    // MHF: dense region, no stride.
    const unsigned scramble[] = {0, 5, 2, 11, 7, 14, 3, 9};
    for (unsigned off : scramble)
        strat.observe(0x20, 0x600000 + off * 64);
    // Sparse region: only 2 lines.
    strat.observe(0x30, 0x700000);
    strat.observe(0x30, 0x700000 + 64);

    EXPECT_EQ(strat.classify(0x500000 + 10 * 64), Fruit::kLHF);
    EXPECT_EQ(strat.classify(0x600000 + 5 * 64), Fruit::kMHF);
    EXPECT_EQ(strat.classify(0x700000), Fruit::kHHF);
    EXPECT_EQ(strat.classify(0x900000), Fruit::kHHF);
    EXPECT_GT(strat.lhfLineCount(), 20u);
}

TEST(Stratifier, StridedLinesBeatDensity)
{
    OfflineStratifier strat;
    // A strided PC sweeping a dense region: LHF wins.
    for (int i = 0; i < 16; ++i)
        strat.observe(0x10, 0x800000 + i * 64);
    EXPECT_EQ(strat.classify(0x800000 + 8 * 64), Fruit::kLHF);
}

TEST(Stratifier, ForwardContinuationIsPreMarked)
{
    OfflineStratifier strat;
    for (int i = 0; i < 10; ++i)
        strat.observe(0x10, 0xa00000 + i * 64);
    // One line beyond the observed stream still classifies LHF, so
    // ahead-of-stream prefetches are labelled correctly.
    EXPECT_EQ(strat.classify(0xa00000 + 10 * 64), Fruit::kLHF);
}

TEST(Stratifier, FruitNames)
{
    EXPECT_STREQ(fruitName(Fruit::kLHF), "LHF");
    EXPECT_STREQ(fruitName(Fruit::kMHF), "MHF");
    EXPECT_STREQ(fruitName(Fruit::kHHF), "HHF");
}

} // namespace
} // namespace dol
