#include "mem/cache.h"

#include <bit>

namespace redsoc {

Cache::Cache(CacheConfig config)
    : config_(checkedConfig(std::move(config), "cache"))
{
    const u64 sets =
        config_.size_bytes / (u64{config_.line_bytes} * config_.assoc);
    line_shift_ = static_cast<unsigned>(std::countr_zero(config_.line_bytes));
    tag_shift_ = line_shift_ + static_cast<unsigned>(std::countr_zero(sets));
    set_mask_ = sets - 1;
    lines_.resize(sets * config_.assoc);
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
    ++stamp_;
    if (Line *line = findLine(addr)) {
        ++hits_;
        line->lru = stamp_;
        line->dirty |= is_write;
        AccessResult result;
        result.hit = true;
        return result;
    }
    ++misses_;
    return fill(setOf(addr), addr, is_write);
}

Cache::AccessResult
Cache::fill(unsigned set, Addr addr, bool is_write)
{
    AccessResult result;
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
        result.victim_line = ((victim->tag << (tag_shift_ - line_shift_)) |
                              set) << line_shift_;
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
    // A demand allocation's victim choice and LRU stamp, without the
    // demand hit/miss counts: prefetch fills are not demand accesses.
    ++stamp_;
    const AccessResult fill_result = fill(setOf(addr), addr, false);
    result.allocated = true;
    result.writeback = fill_result.writeback;
    result.victim_line = fill_result.victim_line;
    result.had_victim = fill_result.had_victim;
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

} // namespace redsoc
