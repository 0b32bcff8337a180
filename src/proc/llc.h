/**
 * @file
 * Shared last-level cache for the multi-core Processor: one inclusive
 * tag array shared by every core's private L1, an MSHR-style pending
 * table that merges cross-core requests for in-flight lines, and a
 * fixed-latency DRAM backend with a banked occupancy queue.
 *
 * Contention model (DESIGN.md §14): every wait the LLC charges is
 * *cross-core only*. The seed single-core hierarchy models unbounded
 * same-core memory-level parallelism — an access's latency is a pure
 * function of the level it hits in — so same-core MSHR overlap and
 * same-core bank reuse charge nothing here either. That rule is what
 * makes the 1-core shared-LLC attachment structurally bit-identical
 * to the private-L2 hierarchy: with one core every wait is zero by
 * construction, not just empirically.
 *
 * Timing discipline: the LLC keeps MSHR completion times and bank
 * busy windows in the requesting cores' cycle domain (all cores run
 * the same config, so the domains agree), with the full fill latency
 * supplied pre-scaled by the Processor. Hit/miss *latencies* are not
 * charged here at all — each core's MemHierarchy builds its latency
 * ladder from its own config and adds only the wait cycles returned.
 */

#ifndef REDSOC_PROC_LLC_H
#define REDSOC_PROC_LLC_H

#include <map>
#include <vector>

#include "common/fields.h"
#include "mem/cache.h"

namespace redsoc {

/** Fixed-latency DRAM backend with per-bank occupancy windows. */
struct DramConfig
{
    /** Independent banks; a fill occupies line's bank for
     *  bank_occupancy cycles. Lines interleave bank = line % banks. */
    unsigned banks = 8;

    /**
     * Cycles a bank stays busy per fill it services. A *different*
     * core hitting a busy bank queues behind the window; the same
     * core pipelines freely (see the cross-core-only rule above).
     * 0 disables bank queueing entirely.
     */
    Cycle bank_occupancy = 16;
};

REDSOC_FIELDS(DramConfig, banks, bank_occupancy)

/** Legal ranges (common/fields.h RangeCheck). */
inline std::string
configError(const DramConfig &c)
{
    return RangeCheck(c).require(c.banks, c.banks >= 1, "at least 1").error();
}

/** Per-core slice of the LLC statistics. */
struct LlcCoreStats
{
    u64 accesses = 0;           ///< demand lookups by this core
    u64 hits = 0;
    u64 misses = 0;             ///< fills initiated by this core
    u64 mshr_merges = 0;        ///< rode another core's in-flight fill
    u64 prefetch_fills = 0;     ///< prefetcher lines landed by this core
    u64 bank_wait_cycles = 0;   ///< DRAM bank queueing behind other cores
    u64 back_invalidations = 0; ///< L1 lines killed by LLC evictions
    u64 lines_owned = 0;        ///< census: lines this core last filled
};

REDSOC_FIELDS(LlcCoreStats, accesses, hits, misses, mshr_merges,
              prefetch_fills, bank_wait_cycles, back_invalidations,
              lines_owned)

/** Shared-LLC statistics: totals plus one per-core slice. */
struct LlcStats
{
    u64 evictions = 0;          ///< capacity/conflict victims
    u64 writebacks = 0;         ///< dirty victims
    std::vector<LlcCoreStats> per_core{};
};

REDSOC_FIELDS(LlcStats, evictions, writebacks, per_core)

class SharedLlc
{
  public:
    /** Outcome level of a demand lookup. */
    enum class Level : u8 {
        Hit,   ///< resident (or this core's own fill in flight)
        Merge, ///< another core's fill in flight: pay the remainder
        Miss,  ///< fill from DRAM
    };

    struct Result
    {
        Level level = Level::Hit;
        /** Cross-core wait cycles (merge remainder or bank queue). */
        Cycle wait = 0;
    };

    /**
     * @param geometry LLC tag-array geometry (line size must match
     *        the attached L1s' — enforced at attach time).
     * @param dram banked DRAM backend parameters.
     * @param num_cores cores sharing this LLC (stats slices).
     * @param fill_latency full miss-to-fill time in core cycles,
     *        pre-scaled by the caller (scaled L2 + DRAM latency):
     *        an MSHR entry allocated at @c now completes at
     *        @c now + wait + fill_latency.
     */
    SharedLlc(CacheConfig geometry, DramConfig dram, unsigned num_cores,
              Cycle fill_latency);

    /** Register core @p core_id's private L1 for inclusion
     *  back-invalidation (nullptr detaches). */
    void attachL1(unsigned core_id, Cache *l1);

    /** Demand lookup by @p core_id at its cycle @p now. Allocates on
     *  miss (tags fill immediately; timing via the MSHR window). */
    Result access(unsigned core_id, Addr addr, bool is_store, Cycle now);

    /** Prefetcher fill on behalf of @p core_id (no demand stats, no
     *  MSHR entry: timeliness is the prefetcher model's job). */
    void insertPrefetch(unsigned core_id, Addr addr);

    const Cache &tags() const { return tags_; }

    /** Statistics with the per-core lines_owned census filled in. */
    LlcStats collectStats() const;

  private:
    struct Pending
    {
        Cycle complete = 0; ///< fill completion (core-cycle domain)
        unsigned core = 0;  ///< the core whose miss started the fill
    };

    struct Bank
    {
        Cycle busy_until = 0;
        unsigned last_core = ~0u;
    };

    unsigned bankOf(Addr line) const;
    /** Evict bookkeeping: inclusion back-invalidation of every L1
     *  copy, owner-census and MSHR cleanup. */
    void retireVictim(const Cache::AccessResult &victim);
    void retireVictim(const Cache::InsertResult &victim);
    void noteEviction(Addr victim_line, bool writeback);
    /** Amortized cleanup of completed MSHR entries. */
    void pruneMshr(Cycle now);

    Cache tags_;
    DramConfig dram_;
    Cycle fill_latency_;
    std::vector<Cache *> l1s_;
    /** Ordered map: deterministic iteration during pruning. */
    std::map<Addr, Pending> mshr_;
    std::vector<Bank> banks_;
    /** line address -> core that last filled it (ownership census). */
    std::map<Addr, unsigned> owner_;
    LlcStats stats_;
};

} // namespace redsoc

#endif // REDSOC_PROC_LLC_H
