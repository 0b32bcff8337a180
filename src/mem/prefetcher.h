/**
 * @file
 * PC-indexed stride prefetcher. Trained on the L1 demand-miss stream;
 * confident strides issue fills into the L2 (and optionally L1),
 * matching Table I's "L1/L2 cache w/ prefetch".
 */

#ifndef REDSOC_MEM_PREFETCHER_H
#define REDSOC_MEM_PREFETCHER_H

#include <vector>

#include "common/bitutils.h"
#include "common/fields.h"
#include "common/types.h"

namespace redsoc {

struct PrefetcherConfig
{
    unsigned entries = 256;
    unsigned degree = 2;      ///< lines fetched ahead per trigger
    unsigned min_confidence = 2;
};

REDSOC_FIELDS(PrefetcherConfig, entries, degree, min_confidence)

/** Legal ranges (common/fields.h RangeCheck). */
inline std::string
configError(const PrefetcherConfig &c)
{
    return RangeCheck(c)
        .require(c.entries, isPowerOfTwo(c.entries), "a power of two")
        .error();
}

class StridePrefetcher
{
  public:
    explicit StridePrefetcher(PrefetcherConfig config = {});

    /**
     * Observe a demand access; returns the list of line addresses to
     * prefetch (empty when the stride is not yet confident).
     */
    std::vector<Addr> observe(u32 pc, Addr addr);

    u64 issued() const { return issued_; }
    void resetStats() { issued_ = 0; }

  private:
    struct Entry
    {
        u32 pc = 0;
        Addr last_addr = 0;
        s64 stride = 0;
        u8 confidence = 0;
        bool valid = false;
    };

    PrefetcherConfig config_;
    std::vector<Entry> table_;
    u64 issued_ = 0;
};

} // namespace redsoc

#endif // REDSOC_MEM_PREFETCHER_H
