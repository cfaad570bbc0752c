/** Unit tests for the set-associative tag cache. */

#include "uarch/cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "reference_lru.hpp"

namespace stackscope::uarch {
namespace {

TEST(Cache, MissThenHit)
{
    Cache c({1024, 2, 64});
    EXPECT_FALSE(c.lookup(0x1000));
    c.insert(0x1000);
    EXPECT_TRUE(c.lookup(0x1000));
    // Same line, different offset.
    EXPECT_TRUE(c.lookup(0x103f));
    // Next line misses.
    EXPECT_FALSE(c.lookup(0x1040));
}

TEST(Cache, GeometryDerivation)
{
    Cache c({32 << 10, 8, 64});
    EXPECT_EQ(c.numSets(), 64u);
    EXPECT_EQ(c.assoc(), 8u);
    EXPECT_EQ(c.lineBytes(), 64u);
}

TEST(Cache, LruEviction)
{
    // 2-way, line 64, 2 sets (256 bytes).
    Cache c({256, 2, 64});
    // Three lines mapping to set 0: line addresses 0, 2, 4 (even lines).
    c.insert(0 * 64);
    c.insert(2 * 64);
    EXPECT_TRUE(c.lookup(0 * 64));   // touch 0 -> MRU
    c.insert(4 * 64);                // evicts line 2 (LRU)
    EXPECT_TRUE(c.lookup(0 * 64));
    EXPECT_FALSE(c.lookup(2 * 64));
    EXPECT_TRUE(c.lookup(4 * 64));
}

TEST(Cache, LookupWithoutLruUpdate)
{
    Cache c({256, 2, 64});
    c.insert(0 * 64);
    c.insert(2 * 64);
    // Peek at line 0 without promoting it.
    EXPECT_TRUE(c.lookup(0 * 64, /*update_lru=*/false));
    c.insert(4 * 64);  // line 0 is still LRU -> evicted
    EXPECT_FALSE(c.lookup(0 * 64));
    EXPECT_TRUE(c.lookup(2 * 64));
}

TEST(Cache, InsertExistingTouches)
{
    Cache c({256, 2, 64});
    c.insert(0 * 64);
    c.insert(2 * 64);
    c.insert(0 * 64);  // already present: becomes MRU
    c.insert(4 * 64);  // evicts 2
    EXPECT_TRUE(c.lookup(0 * 64));
    EXPECT_FALSE(c.lookup(2 * 64));
}

TEST(Cache, Invalidate)
{
    Cache c({1024, 2, 64});
    c.insert(0x2000);
    EXPECT_TRUE(c.lookup(0x2000));
    c.invalidate(0x2000);
    EXPECT_FALSE(c.lookup(0x2000));
    // Invalidating a missing line is a no-op.
    c.invalidate(0xdead00);
}

TEST(Cache, InvalidateThenRefillKeepsOneCopy)
{
    // One 3-way set. Filling a line that is still present after another
    // line's invalidation must promote its one copy, not put a second copy
    // in the freed way: the set then has room for D without evicting B.
    Cache c({192, 3, 64});
    c.insert(0 * 64);  // A
    c.insert(1 * 64);  // B
    c.insert(2 * 64);  // C
    c.invalidate(0 * 64);
    c.insert(2 * 64);  // C again
    c.insert(3 * 64);  // D takes the freed way
    EXPECT_FALSE(c.lookup(0 * 64, /*update_lru=*/false));
    EXPECT_TRUE(c.lookup(1 * 64, /*update_lru=*/false));
    EXPECT_TRUE(c.lookup(2 * 64, /*update_lru=*/false));
    EXPECT_TRUE(c.lookup(3 * 64, /*update_lru=*/false));
}

TEST(Cache, InvalidateAll)
{
    Cache c({1024, 2, 64});
    c.insert(0x0);
    c.insert(0x40);
    c.invalidateAll();
    EXPECT_FALSE(c.lookup(0x0));
    EXPECT_FALSE(c.lookup(0x40));
}

TEST(Cache, StatsCountLookupsAndMisses)
{
    Cache c({1024, 2, 64});
    (void)c.lookup(0x0);  // miss
    c.insert(0x0);
    (void)c.lookup(0x0);  // hit
    (void)c.lookup(0x40);  // miss
    EXPECT_EQ(c.lookups(), 3u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, SetsAreIndependent)
{
    // 2 sets, 1 way: lines alternate sets.
    Cache c({128, 1, 64});
    c.insert(0 * 64);  // set 0
    c.insert(1 * 64);  // set 1
    EXPECT_TRUE(c.lookup(0 * 64));
    EXPECT_TRUE(c.lookup(1 * 64));
    c.insert(2 * 64);  // set 0 again: evicts line 0 only
    EXPECT_FALSE(c.lookup(0 * 64));
    EXPECT_TRUE(c.lookup(1 * 64));
}

/**
 * Seeded streams of promoting and peeking lookups and of fills, checked
 * op by op against a move-to-front model. Nine in ten operations land in
 * eight hot sets, on about twice as many lines as a set holds, so hits,
 * promotions, refills of present lines and evictions all recur; a rare
 * invalidateAll() empties the cache mid-stream.
 */
TEST(Cache, MatchesReferenceLru)
{
    const CacheParams geometries[] = {
        {128, 1, 64},          // direct mapped, 2 sets
        {1024, 2, 64},         // 2-way, 8 sets
        {32 << 10, 8, 64},     // 8-way L1
        {2560 << 10, 16, 64},  // BDW L3 slice: 2,560 sets, 16-way
        {1408 << 10, 11, 64},  // SKX L3 slice: 2,048 sets, 11-way
    };
    for (const CacheParams &g : geometries) {
        SCOPED_TRACE(std::to_string(g.size_bytes) + " B, " +
                     std::to_string(g.assoc) + "-way");
        Cache cache(g);
        const std::uint64_t sets = cache.numSets();
        testing::ReferenceLru model(sets, g.assoc);
        Rng rng(0xcac4e000 + g.assoc);
        std::uint64_t hot[8];
        for (std::uint64_t &s : hot)
            s = rng.below(sets);

        std::uint64_t lookups = 0;
        std::uint64_t misses = 0;
        for (int op = 0; op < 60'000; ++op) {
            const std::uint64_t set =
                rng.chance(0.9) ? hot[rng.below(8)] : rng.below(sets);
            const std::uint64_t line =
                rng.below(2 * g.assoc + 1) * sets + set;
            const Addr addr = line * g.line_bytes + rng.below(g.line_bytes);
            const std::uint64_t kind = rng.below(10'000);
            if (kind < 6'000) {
                const bool promote = kind < 4'000;
                const bool hit = model.lookup(set, line, promote);
                ++lookups;
                misses += hit ? 0 : 1;
                ASSERT_EQ(cache.lookup(addr, promote), hit)
                    << "op " << op << " promote " << promote;
            } else if (kind < 9'999) {
                cache.insert(addr);
                model.insert(set, line);
            } else {
                cache.invalidateAll();
                model.clear();
            }
        }
        EXPECT_EQ(cache.lookups(), lookups);
        EXPECT_EQ(cache.misses(), misses);
        // Final contents: every line the hot sets can hold.
        for (std::uint64_t set : hot) {
            for (std::uint64_t tag = 0; tag <= 2 * g.assoc; ++tag) {
                const std::uint64_t line = tag * sets + set;
                EXPECT_EQ(cache.lookup(line * g.line_bytes, false),
                          model.lookup(set, line, false))
                    << "line " << line;
            }
        }
    }
}

}  // namespace
}  // namespace stackscope::uarch
