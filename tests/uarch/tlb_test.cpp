/** Tests for the TLB model and its integration with the hierarchy. */

#include "uarch/tlb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "reference_lru.hpp"
#include "uarch/cache_hierarchy.hpp"

namespace stackscope::uarch {
namespace {

TlbParams
smallTlb()
{
    TlbParams p;
    p.enable = true;
    p.entries = 16;  // 2 sets x 8 ways
    p.page_bytes = 4096;
    p.miss_latency = 9;
    return p;
}

TEST(Tlb, MissThenHit)
{
    Tlb tlb(smallTlb());
    EXPECT_EQ(tlb.access(0x1000), 9u);  // cold miss
    EXPECT_EQ(tlb.access(0x1000), 0u);  // same page hits
    EXPECT_EQ(tlb.access(0x1fff), 0u);  // same page, different offset
    EXPECT_EQ(tlb.access(0x2000), 9u);  // next page misses
    EXPECT_EQ(tlb.misses(), 2u);
    EXPECT_EQ(tlb.accesses(), 4u);
}

TEST(Tlb, DisabledIsFree)
{
    TlbParams p = smallTlb();
    p.enable = false;
    Tlb tlb(p);
    for (Addr a = 0; a < 100; ++a)
        EXPECT_EQ(tlb.access(a * 1'000'000), 0u);
    EXPECT_EQ(tlb.misses(), 0u);
    EXPECT_EQ(tlb.accesses(), 0u);
}

TEST(Tlb, LruEvictionWithinSet)
{
    Tlb tlb(smallTlb());  // 2 sets, pages alternate sets by parity
    // Fill set 0 (even pages) beyond its 8 ways.
    for (Addr page = 0; page < 9; ++page)
        (void)tlb.access(page * 2 * 4096);
    // Page 0 (the LRU) was evicted; page 2..8 still resident.
    EXPECT_EQ(tlb.access(0), 9u);
    EXPECT_EQ(tlb.access(2 * 2 * 4096), 0u);
}

TEST(Tlb, CoverageMatchesEntries)
{
    // A working set within entries * page size never misses after warmup.
    Tlb tlb(smallTlb());
    for (int pass = 0; pass < 3; ++pass) {
        for (Addr page = 0; page < 16; ++page)
            (void)tlb.access(page * 4096);
    }
    EXPECT_EQ(tlb.misses(), 16u);  // only the cold pass
}

TEST(Tlb, FlushForgetsEverything)
{
    Tlb tlb(smallTlb());
    (void)tlb.access(0x5000);
    tlb.flush();
    EXPECT_EQ(tlb.access(0x5000), 9u);
}

/**
 * Seeded access streams, op by op against a move-to-front model of the
 * TLB's 8-way sets, with the same hot-set mix as the cache oracle and a
 * rare flush().
 */
TEST(Tlb, MatchesReferenceLru)
{
    constexpr std::uint64_t kWays = 8;
    for (unsigned entries : {16u, 256u, 1024u}) {
        SCOPED_TRACE(std::to_string(entries) + " entries");
        TlbParams p = smallTlb();
        p.entries = entries;
        Tlb tlb(p);
        const std::uint64_t sets = std::max<std::uint64_t>(1, entries / kWays);
        testing::ReferenceLru model(sets, kWays);
        Rng rng(0x71b000 + entries);
        std::uint64_t hot[8];
        for (std::uint64_t &s : hot)
            s = rng.below(sets);

        std::uint64_t accesses = 0;
        std::uint64_t misses = 0;
        for (int op = 0; op < 60'000; ++op) {
            if (rng.below(10'000) == 0) {
                tlb.flush();
                model.clear();
                continue;
            }
            const std::uint64_t set =
                rng.chance(0.9) ? hot[rng.below(8)] : rng.below(sets);
            const std::uint64_t page = rng.below(2 * kWays + 1) * sets + set;
            const bool hit = model.insert(set, page);
            ++accesses;
            misses += hit ? 0 : 1;
            ASSERT_EQ(tlb.access(page * p.page_bytes +
                                 rng.below(p.page_bytes)),
                      hit ? 0u : p.miss_latency)
                << "op " << op;
        }
        EXPECT_EQ(tlb.accesses(), accesses);
        EXPECT_EQ(tlb.misses(), misses);
    }
}

TEST(TlbIntegration, WalkDelaysLoad)
{
    HierarchyParams p;
    p.prefetch.enable = false;
    p.dtlb = smallTlb();
    p.perfect_icache = true;
    CacheHierarchy h(p);
    // Warm the cache line but flush... simplest: first access pays TLB +
    // memory; second access same page+line pays nothing; a new page in a
    // warmed line region pays the walk only.
    (void)h.load(0x10000, 0);
    const AccessResult hit = h.load(0x10000, 1000);
    EXPECT_TRUE(hit.l1_hit);
    (void)h.load(0x20000, 2000);             // warm line + page
    const AccessResult walk_hit = h.load(0x20020, 3000);  // same line
    EXPECT_TRUE(walk_hit.l1_hit);            // page cached now
    EXPECT_EQ(walk_hit.done, 3004u);
}

TEST(TlbIntegration, PerfectDcacheBypassesDtlb)
{
    HierarchyParams p;
    p.dtlb = smallTlb();
    p.perfect_dcache = true;
    CacheHierarchy h(p);
    for (Addr a = 0; a < 100; ++a) {
        const AccessResult r = h.load(a * (1 << 20), 10);
        EXPECT_EQ(r.done, 10u + p.l1_lat);
    }
    EXPECT_EQ(h.dtlbMisses(), 0u);
}

TEST(TlbIntegration, WalkDelayedL1HitReportsAsMiss)
{
    // The pipeline must know the access is slow so the wait is blamed on
    // the Dcache(+TLB) component.
    HierarchyParams p;
    p.prefetch.enable = false;
    p.dtlb = smallTlb();
    CacheHierarchy h(p);
    (void)h.load(0x40000, 0);  // line + page cold
    // Evict the page by thrashing its TLB set (even pages, 8 ways) with
    // addresses that land in *different* L1 sets, so the cache line stays
    // resident while the translation is lost.
    for (Addr page = 1; page <= 8; ++page)
        (void)h.load(0x40000 + page * 2 * 4096 + page * 64, 100);
    const AccessResult r = h.load(0x40000, 1000);
    EXPECT_FALSE(r.l1_hit);  // reported slow
    EXPECT_EQ(r.done, 1000u + 9 + p.l1_lat);
}

}  // namespace
}  // namespace stackscope::uarch
