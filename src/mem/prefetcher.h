/**
 * @file
 * PC-indexed stride prefetcher. Trained on the demand access stream
 * (MemHierarchy::access observes every access, before the L1
 * lookup); confident strides issue fills into the L2 (and optionally
 * L1), matching Table I's "L1/L2 cache w/ prefetch". Fills reach the
 * caller through a callback, so an access never allocates.
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
     * Observe a demand access and pass each line address to prefetch
     * to @p fill, nearest first (none while the stride is not yet
     * confident). A template callback rather than a returned list:
     * this runs on every memory access and must not allocate.
     */
    template <typename Fill>
    void observe(u32 pc, Addr addr, Fill &&fill)
    {
        Entry &e = table_[pc & (config_.entries - 1)];
        if (!e.valid || e.pc != pc) {
            e = Entry{};
            e.pc = pc;
            e.last_addr = addr;
            e.valid = true;
            return;
        }

        const s64 stride =
            static_cast<s64>(addr) - static_cast<s64>(e.last_addr);
        if (stride == e.stride && stride != 0) {
            if (e.confidence < 15)
                ++e.confidence;
        } else {
            e.stride = stride;
            e.confidence = 0;
        }
        e.last_addr = addr;

        if (e.confidence < config_.min_confidence || e.stride == 0)
            return;
        for (unsigned d = 1; d <= config_.degree; ++d)
            fill(static_cast<Addr>(static_cast<s64>(addr) +
                                   e.stride * static_cast<s64>(d)));
        issued_ += config_.degree;
    }

    u64 issued() const { return issued_; }

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
