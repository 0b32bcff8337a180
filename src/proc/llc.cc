#include "proc/llc.h"

#include <algorithm>

#include "common/logging.h"

namespace redsoc {

namespace {

/** Lazy-prune threshold: above this many MSHR entries, completed
 *  fills are swept out (amortized; the table tracks only in-flight
 *  windows plus stale leftovers awaiting re-access). */
constexpr size_t kMshrPruneAt = 1024;

} // namespace

SharedLlc::SharedLlc(CacheConfig geometry, DramConfig dram,
                     unsigned num_cores, Cycle fill_latency)
    : tags_(std::move(geometry)),
      dram_(checkedConfig(dram, "DRAM")),
      fill_latency_(fill_latency),
      l1s_(num_cores, nullptr),
      banks_(dram_.banks)
{
    stats_.per_core.resize(num_cores);
}

void
SharedLlc::attachL1(unsigned core_id, Cache *l1)
{
    fatal_if(core_id >= l1s_.size(), "attachL1: core id out of range");
    l1s_[core_id] = l1;
}

unsigned
SharedLlc::bankOf(Addr line) const
{
    return static_cast<unsigned>((line / tags_.config().line_bytes) %
                                 dram_.banks);
}

void
SharedLlc::noteEviction(Addr victim_line, bool writeback)
{
    ++stats_.evictions;
    if (writeback)
        ++stats_.writebacks;
    // Inclusion: a line leaving the LLC must leave every L1 holding a
    // copy (the victim's dirty data is absorbed by write buffers,
    // like every other writeback in this timing model).
    for (size_t c = 0; c < l1s_.size(); ++c) {
        Cache *l1 = l1s_[c];
        if (l1 != nullptr && l1->contains(victim_line)) {
            l1->invalidate(victim_line);
            ++stats_.per_core[c].back_invalidations;
        }
    }
    owner_.erase(victim_line);
    // An in-flight fill for an evicted line is dead: without this, a
    // later access would merge into a window whose line is gone.
    mshr_.erase(victim_line);
}

void
SharedLlc::retireVictim(const Cache::AccessResult &victim)
{
    if (victim.had_victim)
        noteEviction(victim.victim_line, victim.writeback);
}

void
SharedLlc::retireVictim(const Cache::InsertResult &victim)
{
    if (victim.had_victim)
        noteEviction(victim.victim_line, victim.writeback);
}

void
SharedLlc::pruneMshr(Cycle now)
{
    if (mshr_.size() <= kMshrPruneAt)
        return;
    for (auto it = mshr_.begin(); it != mshr_.end();) {
        if (it->second.complete <= now)
            it = mshr_.erase(it);
        else
            ++it;
    }
}

SharedLlc::Result
SharedLlc::access(unsigned core_id, Addr addr, bool is_store, Cycle now)
{
    fatal_if(core_id >= stats_.per_core.size(),
             "LLC access: core id out of range");
    LlcCoreStats &cs = stats_.per_core[core_id];
    ++cs.accesses;

    const Addr line = tags_.lineAddr(addr);
    auto pending = mshr_.find(line);
    if (pending != mshr_.end() && pending->second.complete <= now) {
        mshr_.erase(pending);
        pending = mshr_.end();
    }

    if (pending != mshr_.end()) {
        // The line's tags were allocated when the fill started and an
        // eviction would have erased the MSHR entry, so this is a tag
        // hit; touch LRU and dirtiness as usual (victim handling kept
        // for defence in depth).
        retireVictim(tags_.access(addr, is_store));
        if (pending->second.core != core_id) {
            // Cross-core merge: ride the in-flight fill, paying only
            // the remaining window instead of a fresh DRAM round.
            ++cs.mshr_merges;
            return {Level::Merge, pending->second.complete - now};
        }
        // Same core: the seed model's unbounded same-core MLP — a
        // re-access of a line this core is already filling is a hit.
        ++cs.hits;
        return {Level::Hit, 0};
    }

    const auto tag_access = tags_.access(addr, is_store);
    if (tag_access.hit) {
        ++cs.hits;
        return {Level::Hit, 0};
    }

    ++cs.misses;
    retireVictim(tag_access);
    owner_[line] = core_id;

    // DRAM bank queue: a fill occupies the line's bank for a fixed
    // window; only a *different* core queues behind it.
    Cycle wait = 0;
    if (dram_.bank_occupancy > 0) {
        Bank &bank = banks_[bankOf(line)];
        if (bank.busy_until > now && bank.last_core != core_id) {
            wait = bank.busy_until - now;
            cs.bank_wait_cycles += wait;
        }
        bank.busy_until = std::max(bank.busy_until,
                                   now + wait + dram_.bank_occupancy);
        bank.last_core = core_id;
    }

    mshr_[line] = Pending{now + wait + fill_latency_, core_id};
    pruneMshr(now);
    return {Level::Miss, wait};
}

void
SharedLlc::insertPrefetch(unsigned core_id, Addr addr)
{
    fatal_if(core_id >= stats_.per_core.size(),
             "LLC prefetch: core id out of range");
    const auto fill = tags_.insert(addr);
    if (!fill.allocated)
        return;
    ++stats_.per_core[core_id].prefetch_fills;
    retireVictim(fill);
    owner_[tags_.lineAddr(addr)] = core_id;
}

LlcStats
SharedLlc::collectStats() const
{
    LlcStats out = stats_;
    for (LlcCoreStats &cs : out.per_core)
        cs.lines_owned = 0;
    for (const auto &[line, core] : owner_) {
        (void)line;
        ++out.per_core[core].lines_owned;
    }
    return out;
}

} // namespace redsoc
