/**
 * @file
 * A process-wide region of pages for the large arrays the
 * critical-path analysis builds and drops on every what-if question:
 * the dependence graph, the builder's per-op state and the retimer's
 * plan, times and lanes.
 *
 * From malloc those arrays share a heap with small, long-lived
 * allocations, which land in the gaps they leave, so how far the heap
 * grows (and the process's resident size) depends on the order the
 * questions came in. The region holds nothing but these arrays. It
 * places them first fit in address order, coalesces freed ranges and
 * keeps the pages mapped for reuse. Once a question has dropped its
 * arrays the region is one free range again, so the next question is
 * laid out the same way whatever ran before it. The region never
 * shrinks: it keeps as many pages as its arrays ever held at once.
 *
 * Arrays under kMinBytes, and every array in AddressSanitizer builds
 * (so overflows stay visible), come from operator new.
 */

#ifndef REDSOC_COMMON_PAGE_REGION_H
#define REDSOC_COMMON_PAGE_REGION_H

#include <cstddef>
#include <memory>
#include <vector>

namespace redsoc {

namespace page_region {

inline constexpr size_t kMinBytes = size_t{64} << 10;
#ifdef __SANITIZE_ADDRESS__
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/** Page-aligned storage for @p bytes; throws std::bad_alloc. */
void *allocate(size_t bytes);
/** Return storage from allocate(@p bytes) to the region. */
void deallocate(void *p, size_t bytes) noexcept;

} // namespace page_region

/** Standard allocator over the page region (see the file comment). */
template <typename T>
struct RegionAllocator
{
    using value_type = T;

    RegionAllocator() = default;
    template <typename U>
    RegionAllocator(const RegionAllocator<U> &) noexcept
    {
    }

    T *allocate(size_t n)
    {
        if (!inRegion(n))
            return std::allocator<T>{}.allocate(n);
        return static_cast<T *>(page_region::allocate(n * sizeof(T)));
    }

    void deallocate(T *p, size_t n) noexcept
    {
        if (!inRegion(n))
            std::allocator<T>{}.deallocate(p, n);
        else
            page_region::deallocate(p, n * sizeof(T));
    }

    template <typename U>
    bool operator==(const RegionAllocator<U> &) const noexcept
    {
        return true;
    }

  private:
    static bool inRegion(size_t n)
    {
        return page_region::kEnabled &&
               n * sizeof(T) >= page_region::kMinBytes;
    }
};

template <typename T>
using RegionVector = std::vector<T, RegionAllocator<T>>;

} // namespace redsoc

#endif // REDSOC_COMMON_PAGE_REGION_H
