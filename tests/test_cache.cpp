/**
 * @file
 * Unit tests for the set-associative cache model: geometry, LRU
 * replacement, line metadata, and the MSHR file.
 */

#include <gtest/gtest.h>

#include "mem/cache.hpp"

namespace dol
{
namespace
{

Cache::Params
smallCache(std::uint32_t size = 4096, std::uint32_t assoc = 4)
{
    Cache::Params params;
    params.name = "test";
    params.sizeBytes = size;
    params.assoc = assoc;
    params.latency = 3;
    params.mshrs = 4;
    return params;
}

TEST(Cache, MissThenHit)
{
    Cache cache(smallCache());
    EXPECT_EQ(cache.find(0x1000), nullptr);
    Cache::Line *line = nullptr;
    auto victim = cache.insert(0x1000, &line);
    EXPECT_FALSE(victim.has_value());
    ASSERT_NE(cache.find(0x1000), nullptr);
    EXPECT_EQ(cache.find(0x1000)->tag, 0x1000u);
    // Any byte within the line hits.
    EXPECT_NE(cache.find(0x103f), nullptr);
    EXPECT_EQ(cache.find(0x1040), nullptr);
}

TEST(Cache, LruEvictsOldest)
{
    // 4 sets x 4 ways; lines mapping to set 0 are 256B apart.
    Cache cache(smallCache(1024, 4));
    EXPECT_EQ(cache.numSets(), 4u);

    Cache::Line *line = nullptr;
    for (Addr i = 0; i < 4; ++i)
        cache.insert(i * 256, &line);
    // Touch line 0 so line 256 becomes LRU.
    cache.touch(*cache.find(0));

    auto victim = cache.insert(4 * 256, &line);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->lineAddr, 256u);
    EXPECT_NE(cache.find(0), nullptr);
    EXPECT_EQ(cache.find(256), nullptr);
}

TEST(Cache, VictimCarriesMetadata)
{
    Cache cache(smallCache(512, 2));
    Cache::Line *line = nullptr;
    cache.insert(0x0, &line);
    line->dirty = true;
    line->prefetched = true;
    line->comp = 5;
    const auto sets = cache.numSets();
    cache.insert(sets * kLineBytes, &line);

    auto victim = cache.insert(2 * sets * kLineBytes, &line);
    ASSERT_TRUE(victim.has_value());
    EXPECT_TRUE(victim->dirty);
    EXPECT_TRUE(victim->prefetched);
    EXPECT_FALSE(victim->used);
    EXPECT_EQ(victim->comp, 5);
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache cache(smallCache());
    Cache::Line *line = nullptr;
    cache.insert(0x2000, &line);
    EXPECT_TRUE(cache.invalidate(0x2000));
    EXPECT_EQ(cache.find(0x2000), nullptr);
    EXPECT_FALSE(cache.invalidate(0x2000));
}

TEST(Cache, PrefetchedCompsInSet)
{
    Cache cache(smallCache(1024, 4));
    Cache::Line *line = nullptr;
    cache.insert(0, &line);
    line->prefetched = true;
    line->comp = 2;
    cache.insert(256, &line);
    line->prefetched = true;
    line->comp = 3;
    cache.insert(512, &line); // demand line

    std::vector<ComponentId> comps;
    cache.prefetchedCompsInSet(0, comps);
    EXPECT_EQ(comps.size(), 2u);
    // A different set is empty.
    cache.prefetchedCompsInSet(64, comps);
    EXPECT_TRUE(comps.empty());
}

TEST(Cache, MshrTracksPendingFetches)
{
    Cache cache(smallCache());
    EXPECT_EQ(cache.pendingEntry(0x1000, 0), nullptr);
    cache.addMshr(0x1000, 100);
    ASSERT_NE(cache.pendingEntry(0x1000, 50), nullptr);
    EXPECT_EQ(cache.pendingCompletion(0x1000, 50), 100u);
    // Expired entries no longer match.
    EXPECT_EQ(cache.pendingEntry(0x1000, 100), nullptr);
}

TEST(Cache, MshrFullAndLiveCount)
{
    Cache cache(smallCache());
    for (Addr i = 0; i < 4; ++i)
        cache.addMshr(0x1000 + i * 64, 200 + i);
    EXPECT_TRUE(cache.mshrFull(100));
    EXPECT_EQ(cache.liveMshrCount(100), 4u);
    EXPECT_EQ(cache.earliestMshrFree(), 200u);
    EXPECT_FALSE(cache.mshrFull(200));
    EXPECT_EQ(cache.liveMshrCount(201), 2u);
}

/** LRU order property across associativities. */
class CacheAssocSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CacheAssocSweep, FullSetEvictsInInsertionOrderWithoutTouches)
{
    const std::uint32_t assoc = GetParam();
    Cache cache(smallCache(kLineBytes * assoc, assoc)); // one set
    Cache::Line *line = nullptr;
    for (Addr i = 0; i < assoc; ++i)
        EXPECT_FALSE(cache.insert(i * kLineBytes, &line).has_value());
    for (Addr i = 0; i < assoc; ++i) {
        auto victim = cache.insert((assoc + i) * kLineBytes, &line);
        ASSERT_TRUE(victim.has_value());
        EXPECT_EQ(victim->lineAddr, i * kLineBytes);
    }
}

TEST_P(CacheAssocSweep, FreedWayFillsFirstThenLruEvicts)
{
    const std::uint32_t assoc = GetParam();
    Cache cache(smallCache(kLineBytes * assoc, assoc)); // one set
    Cache::Line *line = nullptr;
    for (Addr i = 0; i < assoc; ++i)
        EXPECT_FALSE(cache.insert(i * kLineBytes, &line).has_value());

    // Free the middle way: the next insert takes it without a victim,
    // even though way 0 holds the LRU line.
    const Addr freed = (assoc / 2) * kLineBytes;
    const Cache::Line *freed_way = cache.find(freed);
    ASSERT_TRUE(cache.invalidate(freed));
    const Addr refill = assoc * kLineBytes;
    EXPECT_FALSE(cache.insert(refill, &line).has_value());
    EXPECT_EQ(line, freed_way);
    EXPECT_EQ(cache.find(refill), freed_way);

    // The set is full again, so the next insert evicts the LRU line:
    // the oldest survivor, or the refill itself in a 1-way set.
    const Addr lru = assoc == 1 ? refill : 0;
    auto victim = cache.insert((assoc + 1) * kLineBytes, &line);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->lineAddr, lru);
    EXPECT_EQ(cache.find(lru), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Assoc, CacheAssocSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

} // namespace
} // namespace dol
