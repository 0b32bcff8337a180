/**
 * @file
 * Memory-hierarchy tests: set-associative tags + LRU, write-back
 * bookkeeping, the stride prefetcher, and end-to-end latencies.
 */

#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "helpers.h"
#include "mem/hierarchy.h"

namespace redsoc {
namespace {

CacheConfig
tinyCache()
{
    return CacheConfig{"tiny", 1024, 2, 64}; // 8 sets x 2 ways
}

TEST(Cache, MissThenHit)
{
    Cache c(tinyCache());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x103F, false).hit); // same line
    EXPECT_FALSE(c.access(0x1040, false).hit); // next line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(tinyCache());
    // Three lines mapping to the same set (set stride = 8 * 64).
    const Addr a = 0x0000, b = 0x2000, d = 0x4000;
    c.access(a, false);
    c.access(b, false);
    c.access(a, false);  // a is now MRU
    c.access(d, false);  // evicts b
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
    EXPECT_TRUE(c.contains(d));
}

TEST(Cache, DirtyVictimReportsWriteback)
{
    Cache c(tinyCache());
    c.access(0x0000, true); // dirty
    c.access(0x2000, false);
    const auto result = c.access(0x4000, false); // evicts dirty 0x0000
    EXPECT_TRUE(result.had_victim);
    EXPECT_TRUE(result.writeback);
    EXPECT_EQ(result.victim_line, 0x0000u);
}

TEST(Cache, VictimLineIsTheEvictedAddress)
{
    // The index and tag are shifts of the address; the victim's line
    // address rebuilds it from tag and set. Over a random stream, each
    // reported victim must be a resident line of the filled set, and
    // gone afterwards, for a 1-set, a 3-way and a 128-byte-line cache.
    const CacheConfig geometries[] = {
        {"one-set", 4 * 64, 4, 64},
        {"three-way", 8 * 3 * 64, 3, 64},
        {"wide-line", 16 * 2 * 128, 2, 128},
    };
    for (const CacheConfig &cfg : geometries) {
        Cache c(cfg);
        const u64 line = cfg.line_bytes;
        const u64 sets = cfg.size_bytes / (line * cfg.assoc);
        std::set<Addr> resident;
        Rng rng(cfg.size_bytes);
        unsigned victims = 0;
        for (int i = 0; i < 4000; ++i) {
            const Addr addr = rng.below(u64{1} << 40);
            const bool prefetch = rng.below(4) == 0;
            bool had_victim = false;
            Addr victim = 0;
            if (prefetch) {
                const auto r = c.insert(addr);
                had_victim = r.had_victim;
                victim = r.victim_line;
            } else {
                const auto r = c.access(addr, rng.below(2) == 0);
                had_victim = r.had_victim;
                victim = r.victim_line;
            }
            if (had_victim) {
                ++victims;
                ASSERT_EQ(victim % line, 0u) << cfg.name;
                ASSERT_EQ(resident.erase(victim), 1u) << cfg.name;
                EXPECT_EQ(victim / line % sets, addr / line % sets)
                    << cfg.name;
                EXPECT_FALSE(c.contains(victim)) << cfg.name;
            }
            resident.insert(c.lineAddr(addr));
            ASSERT_TRUE(c.contains(addr)) << cfg.name;
        }
        EXPECT_EQ(resident.size(), sets * cfg.assoc) << cfg.name;
        EXPECT_GT(victims, 1000u) << cfg.name;
    }
}

TEST(Cache, InsertDoesNotPerturbDemandStats)
{
    Cache c(tinyCache());
    EXPECT_TRUE(c.insert(0x8000).allocated);
    EXPECT_FALSE(c.insert(0x8000).allocated); // already present
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_TRUE(c.contains(0x8000));
}

TEST(Cache, InvalidateReportsDirtiness)
{
    Cache c(tinyCache());
    c.access(0x1000, true);
    EXPECT_TRUE(c.invalidate(0x1000));
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_FALSE(c.invalidate(0x1000));
}

TEST(Cache, ConfigValidation)
{
    CacheConfig bad{"bad", 1000, 3, 64};
    EXPECT_THROW(Cache{bad}, std::logic_error);
}

TEST(Prefetcher, DetectsConstantStride)
{
    StridePrefetcher pf;
    std::vector<Addr> fills;
    for (int i = 0; i < 6; ++i)
        fills = test::prefetches(pf, 7, 0x1000 + 64u * i);
    ASSERT_EQ(fills.size(), 2u); // degree 2
    EXPECT_EQ(fills[0], 0x1000u + 64 * 6);
    EXPECT_EQ(fills[1], 0x1000u + 64 * 7);
}

TEST(Prefetcher, NoFillsForRandomPattern)
{
    StridePrefetcher pf;
    Rng rng(3);
    u64 total = 0;
    for (int i = 0; i < 100; ++i)
        total += test::prefetches(pf, 9, rng.next() & 0xFFFFF).size();
    EXPECT_EQ(total, 0u);
}

TEST(Prefetcher, NegativeStrideWorks)
{
    StridePrefetcher pf;
    std::vector<Addr> fills;
    for (int i = 0; i < 6; ++i)
        fills = test::prefetches(pf, 3, 0x10000 - 128u * i);
    ASSERT_FALSE(fills.empty());
    EXPECT_EQ(fills[0], 0x10000u - 128 * 6);
}

TEST(Hierarchy, LatenciesStackByLevel)
{
    HierarchyConfig cfg;
    cfg.prefetch = false;
    MemHierarchy mem(cfg);

    const auto cold = mem.access(1, 0x100000, false);
    EXPECT_FALSE(cold.l1_hit);
    EXPECT_FALSE(cold.l2_hit);
    EXPECT_EQ(cold.latency,
              cfg.l1_latency + cfg.l2_latency + cfg.mem_latency);

    const auto warm = mem.access(1, 0x100000, false);
    EXPECT_TRUE(warm.l1_hit);
    EXPECT_EQ(warm.latency, cfg.l1_latency);
}

TEST(Hierarchy, L2HitCostsNoDram)
{
    HierarchyConfig cfg;
    cfg.prefetch = false;
    cfg.l1.size_bytes = 1024; // tiny L1 so we can evict easily
    cfg.l1.assoc = 2;
    MemHierarchy mem(cfg);

    mem.access(1, 0x0000, false); // into L1+L2
    // Blow the L1 set with conflicting lines.
    mem.access(1, 0x2000, false);
    mem.access(1, 0x4000, false);
    const auto result = mem.access(1, 0x0000, false);
    EXPECT_FALSE(result.l1_hit);
    EXPECT_TRUE(result.l2_hit);
    EXPECT_EQ(result.latency, cfg.l1_latency + cfg.l2_latency);
}

TEST(Hierarchy, StoresAbsorbMissLatency)
{
    HierarchyConfig cfg;
    cfg.prefetch = false;
    MemHierarchy mem(cfg);
    const auto st = mem.access(2, 0x7000, true);
    EXPECT_FALSE(st.l1_hit);
    EXPECT_EQ(st.latency, cfg.l1_latency); // write buffer absorbs
    // The allocated line now serves loads.
    EXPECT_TRUE(mem.access(2, 0x7000, false).l1_hit);
}

TEST(Hierarchy, PrefetchHidesStreamingDramLatency)
{
    HierarchyConfig with;
    with.prefetch = true;
    HierarchyConfig without = with;
    without.prefetch = false;

    auto total_latency = [](HierarchyConfig cfg) {
        MemHierarchy mem(cfg);
        Cycle total = 0;
        for (int i = 0; i < 256; ++i)
            total += mem.access(11, 0x40000 + 64u * i, false).latency;
        return total;
    };
    // Default fills land in L2: streams still miss L1 but stop
    // paying DRAM.
    EXPECT_LT(total_latency(with), total_latency(without) / 2);

    HierarchyConfig timely = with;
    timely.prefetch_fill_l1 = true;
    auto l1_misses = [](HierarchyConfig cfg) {
        MemHierarchy mem(cfg);
        u64 misses = 0;
        for (int i = 0; i < 256; ++i)
            if (!mem.access(11, 0x40000 + 64u * i, false).l1_hit)
                ++misses;
        return misses;
    };
    // A perfectly timely prefetcher also removes the L1 misses.
    EXPECT_LT(l1_misses(timely), l1_misses(with) / 2);
}

TEST(Hierarchy, OffcoreScalingInflatesL2AndDram)
{
    HierarchyConfig cfg;
    cfg.prefetch = false;
    cfg.offcore_latency_scale = 1.5;
    MemHierarchy mem(cfg);
    const auto cold = mem.access(1, 0x9000, false);
    EXPECT_EQ(cold.latency,
              cfg.l1_latency + Cycle(asDouble(cfg.l2_latency) * 1.5) +
                  Cycle(asDouble(cfg.mem_latency) * 1.5));
    // L1 runs at core speed: unscaled.
    EXPECT_EQ(mem.access(1, 0x9000, false).latency, cfg.l1_latency);
}

} // namespace
} // namespace redsoc
