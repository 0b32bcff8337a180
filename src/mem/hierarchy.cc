#include "mem/hierarchy.h"

#include <cmath>

#include "proc/llc.h"

namespace redsoc {

MemHierarchy::MemHierarchy(HierarchyConfig config)
    : config_(checkedConfig(std::move(config), "memory hierarchy")),
      l1_(config_.l1),
      l2_(config_.l2),
      prefetcher_(config_.prefetcher)
{
}

void
MemHierarchy::reset()
{
    l1_ = Cache(config_.l1);
    l2_ = Cache(config_.l2);
    prefetcher_ = StridePrefetcher(config_.prefetcher);
}

void
MemHierarchy::attachSharedLlc(SharedLlc *llc, unsigned core_id,
                              Addr addr_offset)
{
    llc_ = llc;
    core_id_ = core_id;
    addr_offset_ = addr_offset;
}

Cycle
MemHierarchy::scaled(Cycle lat) const
{
    return static_cast<Cycle>(
        std::ceil(static_cast<double>(lat) *
                  config_.offcore_latency_scale));
}

MemHierarchy::AccessResult
MemHierarchy::access(u32 pc, Addr addr, bool is_store, Cycle now)
{
    AccessResult result;

    // The per-core address-space tag (0 when detached or for core 0)
    // is applied before anything observes the address, so the
    // prefetcher, L1 tags and LLC all live in one consistent space.
    addr += addr_offset_;

    // The prefetcher trains on the full demand stream; confident
    // strides fill the outer level and warm L1 ahead of the access
    // pattern. Filling the outer level before the (optional) L1 copy
    // keeps the shared LLC inclusive at every step.
    if (config_.prefetch) {
        prefetcher_.observe(pc, addr, [this](Addr pf) {
            if (llc_ != nullptr)
                llc_->insertPrefetch(core_id_, pf);
            else
                l2_.insert(pf);
            if (config_.prefetch_fill_l1)
                l1_.insert(pf);
        });
    }

    const auto l1_access = l1_.access(addr, is_store);
    result.l1_hit = l1_access.hit;

    if (l1_access.hit) {
        result.l2_hit = true; // inclusive enough for reporting
        result.latency = config_.l1_latency;
        return result;
    }

    if (llc_ == nullptr) {
        // L1 miss: refill from L2 (writeback of a dirty victim is
        // absorbed by write buffers and not charged to the load).
        const auto l2_access = l2_.access(addr, false);
        result.l2_hit = l2_access.hit;

        if (is_store) {
            // Store-buffer absorbs the miss; the line is allocated.
            result.latency = config_.l1_latency;
        } else {
            result.latency =
                config_.l1_latency + scaled(config_.l2_latency) +
                (l2_access.hit ? 0 : scaled(config_.mem_latency));
        }
        return result;
    }

    // Shared-LLC path. The LLC decides hit / merge / miss and
    // contributes only *cross-core* wait cycles (MSHR merge windows,
    // DRAM bank queues); the latency ladder itself is built from this
    // hierarchy's own config exactly as the private path builds it,
    // which is what makes the 1-core attachment bit-identical to the
    // private L2 (every wait is 0 with one core).
    const SharedLlc::Result r =
        llc_->access(core_id_, addr, is_store, now);
    result.l2_hit = r.level == SharedLlc::Level::Hit;

    if (is_store) {
        result.latency = config_.l1_latency;
    } else if (r.level == SharedLlc::Level::Hit) {
        result.latency = config_.l1_latency + scaled(config_.l2_latency);
    } else if (r.level == SharedLlc::Level::Merge) {
        // Ride another core's in-flight fill: tag latency plus only
        // the remaining fill time (already in core cycles).
        result.latency = config_.l1_latency +
                         scaled(config_.l2_latency) + r.wait;
    } else {
        result.latency = config_.l1_latency +
                         scaled(config_.l2_latency) +
                         scaled(config_.mem_latency) + r.wait;
    }
    return result;
}

} // namespace redsoc
