/**
 * @file
 * Set-associative cache tag array with true-LRU replacement and
 * write-back/write-allocate policy. This is a timing/tag model: data
 * values live in the functional MemoryImage, so the cache only tracks
 * presence and dirtiness.
 */

#ifndef REDSOC_MEM_CACHE_H
#define REDSOC_MEM_CACHE_H

#include <vector>

#include "common/bitutils.h"
#include "common/fields.h"
#include "common/stats.h"
#include "common/types.h"

namespace redsoc {

struct CacheConfig
{
    std::string name = "cache";
    u64 size_bytes = 64 * 1024;
    unsigned assoc = 4;
    unsigned line_bytes = 64;
};

REDSOC_FIELDS(CacheConfig, name, size_bytes, assoc, line_bytes)

/** Legal ranges (common/fields.h RangeCheck). The tag array is
 *  materialized: the size cap turns a corrupt or overflowing size
 *  into an error, not a multi-terabyte allocation. */
inline std::string
configError(const CacheConfig &c)
{
    const u64 way_bytes = u64{c.line_bytes} * c.assoc;
    return RangeCheck(c)
        .require(c.size_bytes,
                 c.size_bytes >= 1 && c.size_bytes <= (u64{1} << 32),
                 "in 1..2^32")
        .require(c.line_bytes, isPowerOfTwo(c.line_bytes),
                 "a power of two")
        .require(c.assoc, c.assoc >= 1, "at least 1")
        .require(c.size_bytes,
                 way_bytes != 0 && c.size_bytes % way_bytes == 0 &&
                     isPowerOfTwo(c.size_bytes / way_bytes) &&
                     c.size_bytes / way_bytes <= (u64{1} << 31),
                 "line_bytes * assoc times a power of two up to 2^31")
        .error();
}

class Cache
{
  public:
    explicit Cache(CacheConfig config);

    struct AccessResult
    {
        bool hit = false;
        bool writeback = false;   ///< a dirty victim was evicted
        Addr victim_line = 0;     ///< line address of the victim
        bool had_victim = false;
    };

    /**
     * Look up @p addr; on miss, allocate the line (evicting LRU).
     * @param is_write marks the line dirty.
     */
    AccessResult access(Addr addr, bool is_write);

    /** Tag probe without allocation or LRU update. */
    bool contains(Addr addr) const;

    /** Result of a non-demand fill (insert()). */
    struct InsertResult
    {
        bool allocated = false;   ///< the line was newly brought in
        bool writeback = false;   ///< a dirty victim was evicted
        Addr victim_line = 0;     ///< line address of the victim
        bool had_victim = false;
    };

    /**
     * Insert a line without demand semantics (prefetch fill).
     * `allocated` is false when the line was already present; an
     * inclusive outer level needs the victim fields to back-
     * invalidate inner copies.
     */
    InsertResult insert(Addr addr);

    /** Invalidate a line if present (returns true if it was dirty). */
    bool invalidate(Addr addr);

    Addr lineAddr(Addr addr) const
    {
        return addr & ~((Addr{1} << line_shift_) - 1);
    }

    const CacheConfig &config() const { return config_; }
    u64 hits() const { return hits_; }
    u64 misses() const { return misses_; }
    double missRate() const { return ratioOf(misses_, hits_ + misses_); }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        u64 lru = 0; ///< last-touch stamp
    };

    // configError makes the line size and the set count powers of
    // two, so the index and tag are shifts and a mask.
    unsigned setOf(Addr addr) const
    {
        return static_cast<unsigned>((addr >> line_shift_) & set_mask_);
    }
    Addr tagOf(Addr addr) const { return addr >> tag_shift_; }
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;
    /** Allocate a line for @p addr in set @p set over the LRU (or an
     *  invalid) way, stamped now; the caller saw it miss. */
    AccessResult fill(unsigned set, Addr addr, bool is_write);

    CacheConfig config_;
    unsigned line_shift_; ///< log2(line_bytes)
    unsigned tag_shift_;  ///< log2(line_bytes * sets)
    u64 set_mask_;        ///< sets - 1
    std::vector<Line> lines_; ///< sets x assoc, row-major
    u64 stamp_ = 0;
    u64 hits_ = 0;
    u64 misses_ = 0;
};

} // namespace redsoc

#endif // REDSOC_MEM_CACHE_H
