/**
 * @file
 * Two-level data-cache hierarchy with stride prefetching (Table I:
 * 64kB L1 / 2MB L2 w/ prefetch) in front of a fixed-latency DRAM.
 * Latencies are expressed in cycles of the 2 GHz core clock; the TS
 * baseline rescales them when it speculatively shortens the period
 * (memory does not speed up with the core).
 */

#ifndef REDSOC_MEM_HIERARCHY_H
#define REDSOC_MEM_HIERARCHY_H

#include <memory>

#include "mem/cache.h"
#include "mem/prefetcher.h"

namespace redsoc {

class SharedLlc;

struct HierarchyConfig
{
    CacheConfig l1{"l1d", 64 * 1024, 4, 64};
    CacheConfig l2{"l2", 2 * 1024 * 1024, 16, 64};
    bool prefetch = true;
    /**
     * Timeliness model: confident-stride fills always land in L2;
     * filling L1 as well models a perfectly timely prefetcher (off
     * by default — streaming loads still pay the L1 miss to L2, as
     * the paper's memory-waiting ML kernels do).
     */
    bool prefetch_fill_l1 = false;
    PrefetcherConfig prefetcher{};

    Cycle l1_latency = 2;   ///< load-to-use on L1 hit
    Cycle l2_latency = 12;  ///< additional on L1 miss, L2 hit
    Cycle mem_latency = 200; ///< additional on L2 miss (~100 ns @2GHz)

    /**
     * Scale applied to L2/DRAM latencies when the core clock is
     * overclocked by timing speculation (period ratio > 1 means more
     * core cycles per fixed wall-clock memory access).
     */
    double offcore_latency_scale = 1.0;
};

class MemHierarchy
{
  public:
    explicit MemHierarchy(HierarchyConfig config = {});

    struct AccessResult
    {
        Cycle latency = 0;
        bool l1_hit = false;
        bool l2_hit = false;
    };

    /**
     * Perform a demand access.
     * @param pc static-instruction index of the memory op (trains the
     *           prefetcher)
     * @param is_store store accesses mark lines dirty; their latency
     *        is the L1 pipeline latency (a store buffer absorbs miss
     *        latency), but tags still allocate so later loads hit.
     * @param now current core cycle. Only the shared-LLC path reads
     *        it (MSHR merge windows and DRAM bank queues are timed in
     *        global cycles); the private path ignores it, so
     *        single-hierarchy callers may omit it.
     */
    AccessResult access(u32 pc, Addr addr, bool is_store,
                        Cycle now = 0);

    /**
     * Replace the private L2 with a shared last-level cache: all L1
     * misses are routed to @p llc as core @p core_id, with
     * @p addr_offset added to every address first (the per-core
     * address-space tag of multi-programmed mixes; 0 shares the
     * space). The L2/DRAM latencies still come from this hierarchy's
     * config — the LLC only decides hit/merge/miss and contributes
     * cross-core wait cycles — so a 1-core attachment with LLC
     * geometry equal to the private L2 is bit-identical to the
     * unattached hierarchy (DESIGN.md §14). Pass nullptr to detach.
     */
    void attachSharedLlc(SharedLlc *llc, unsigned core_id,
                         Addr addr_offset);

    Cache &l1() { return l1_; }
    Cache &l2() { return l2_; }
    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    const StridePrefetcher &prefetcher() const { return prefetcher_; }

    const HierarchyConfig &config() const { return config_; }

    void resetStats();

    /** Empty the caches and the prefetcher, as at construction. The
     *  shared-LLC attachment stays. */
    void reset();

  private:
    Cycle scaled(Cycle lat) const;

    HierarchyConfig config_;
    Cache l1_;
    Cache l2_;
    StridePrefetcher prefetcher_;

    // Shared-LLC attachment (null = private L2, today's default).
    SharedLlc *llc_ = nullptr;
    unsigned core_id_ = 0;
    Addr addr_offset_ = 0;
};

} // namespace redsoc

#endif // REDSOC_MEM_HIERARCHY_H
