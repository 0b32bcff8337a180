/**
 * @file
 * Multi-core processor configuration: N identical OooCores (each
 * keeping its private L1 and prefetcher), one shared inclusive LLC,
 * and a banked fixed-latency DRAM backend.
 *
 * Latency convention: the per-core HierarchyConfig keeps supplying
 * the L2/DRAM *latencies* (and the timing-speculation scale) even in
 * shared-LLC mode — ProcConfig::llc only sets the shared *geometry*.
 * A 1-core ProcConfig whose LLC geometry equals the core template's
 * private L2 is therefore bit-identical to the plain single-core
 * hierarchy (DESIGN.md §14).
 */

#ifndef REDSOC_PROC_PROC_CONFIG_H
#define REDSOC_PROC_PROC_CONFIG_H

#include "core/core_config.h"
#include "proc/llc.h"

namespace redsoc {

struct ProcConfig
{
    unsigned num_cores = 1;

    /** Per-core template: every core runs this exact configuration
     *  (homogeneous cores keep the cores' cycle domains — and thus
     *  the LLC's global-cycle bookkeeping — mutually consistent). */
    CoreConfig core{};

    /** Shared-LLC geometry (latency comes from core.memory, above).
     *  Defaults to the seed private-L2 geometry. */
    CacheConfig llc{"llc", 2 * 1024 * 1024, 16, 64};

    DramConfig dram{};

    /**
     * Multi-programmed mixes are the default (false): core i's
     * addresses are offset by i * kAsidStride, so cores can never
     * share or steal each other's lines — contention is purely
     * capacity, bank and MSHR occupancy. true runs every core in one
     * physical address space (lines genuinely shared: MSHR merges
     * and inter-core hits become possible).
     */
    bool share_address_space = false;

    /**
     * Address-space stride between cores (2^40 bytes): far above any
     * workload footprint, and a multiple of every power-of-two
     * set/bank geometry, so the offset never changes which set or
     * bank an access maps to. Core 0's offset is 0 — its address
     * stream is byte-identical to a single-core run.
     */
    static constexpr Addr kAsidStride = Addr{1} << 40;

    /** Core @p core_id's address-space offset under this config. */
    Addr addrOffset(unsigned core_id) const
    {
        return share_address_space ? 0
                                   : kAsidStride * Addr{core_id};
    }
};

REDSOC_FIELDS(ProcConfig, num_cores, core, llc, dram, share_address_space)

/** Legal ranges (common/fields.h RangeCheck), the core template's,
 *  the LLC's and the DRAM's included. */
inline std::string
configError(const ProcConfig &c)
{
    // Back-invalidation is line-granular: one line size everywhere.
    return RangeCheck(c)
        .require(c.num_cores, c.num_cores >= 1 && c.num_cores <= 64,
                 "in 1..64")
        .require(c.llc.line_bytes,
                 c.llc.line_bytes == c.core.memory.l1.line_bytes,
                 "equal to core.memory.l1.line_bytes")
        .error();
}

/** fatal() (std::logic_error) unless configError(config) is "". */
inline void
validateProcConfig(const ProcConfig &config)
{
    checkedConfig(config, "processor");
}

} // namespace redsoc

#endif // REDSOC_PROC_PROC_CONFIG_H
