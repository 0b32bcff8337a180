#include "mem/cache.h"

namespace redsoc {

Cache::Cache(CacheConfig config)
    : config_(checkedConfig(std::move(config), "cache")),
      line_bytes_(config_.line_bytes),
      num_sets_(static_cast<unsigned>(
          config_.size_bytes / (u64{config_.line_bytes} * config_.assoc))),
      lines_(u64{num_sets_} * config_.assoc)
{
}

unsigned
Cache::setOf(Addr addr) const
{
    return static_cast<unsigned>((addr / line_bytes_) & (num_sets_ - 1));
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr / line_bytes_ / num_sets_;
}

Cache::Line *
Cache::findLine(Addr addr)
{
    const unsigned set = setOf(addr);
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < config_.assoc; ++w) {
        Line &line = lines_[u64{set} * config_.assoc + w];
        if (line.valid && line.tag == tag)
            return &line;
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr addr) const
{
    return const_cast<Cache *>(this)->findLine(addr);
}

Cache::AccessResult
Cache::access(Addr addr, bool is_write)
{
    AccessResult result;
    ++stamp_;
    if (Line *line = findLine(addr)) {
        ++hits_;
        result.hit = true;
        line->lru = stamp_;
        line->dirty |= is_write;
        return result;
    }

    ++misses_;
    const unsigned set = setOf(addr);
    Line *victim = nullptr;
    for (unsigned w = 0; w < config_.assoc; ++w) {
        Line &line = lines_[u64{set} * config_.assoc + w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (!victim || line.lru < victim->lru)
            victim = &line;
    }
    if (victim->valid) {
        result.had_victim = true;
        result.writeback = victim->dirty;
        result.victim_line =
            (victim->tag * num_sets_ + set) * line_bytes_;
    }
    victim->valid = true;
    victim->tag = tagOf(addr);
    victim->dirty = is_write;
    victim->lru = stamp_;
    return result;
}

bool
Cache::contains(Addr addr) const
{
    return findLine(addr) != nullptr;
}

Cache::InsertResult
Cache::insert(Addr addr)
{
    InsertResult result;
    if (findLine(addr))
        return result;
    // Reuse demand-allocation machinery but do not count stats:
    // prefetch fills are not demand accesses.
    const u64 saved_hits = hits_, saved_misses = misses_;
    const AccessResult fill = access(addr, false);
    hits_ = saved_hits;
    misses_ = saved_misses;
    result.allocated = true;
    result.writeback = fill.writeback;
    result.victim_line = fill.victim_line;
    result.had_victim = fill.had_victim;
    return result;
}

bool
Cache::invalidate(Addr addr)
{
    if (Line *line = findLine(addr)) {
        const bool dirty = line->dirty;
        line->valid = false;
        line->dirty = false;
        return dirty;
    }
    return false;
}

void
Cache::resetStats()
{
    hits_ = 0;
    misses_ = 0;
}

} // namespace redsoc
