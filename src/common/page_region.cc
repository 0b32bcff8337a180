#include "common/page_region.h"

#include <sys/mman.h>

#include <algorithm>
#include <mutex>
#include <new>

#include "common/thread_annotations.h"

namespace redsoc::page_region {

namespace {

constexpr size_t kPage = size_t{4} << 10;
/** Address space reserved PROT_NONE on first use; the committed
 *  prefix is made read-write in kCommitStep steps as it is needed. */
constexpr size_t kReserve = size_t{64} << 30;
constexpr size_t kCommitStep = size_t{2} << 20;

size_t
roundUp(size_t n, size_t step)
{
    return (n + step - 1) / step * step;
}

class Region
{
  public:
    void *allocate(size_t bytes) REDSOC_EXCLUDES(mu_)
    {
        const size_t len = roundUp(std::max<size_t>(bytes, 1), kPage);
        std::lock_guard<std::mutex> lock(mu_);
        if (base_ == nullptr) {
            void *p = mmap(nullptr, kReserve, PROT_NONE,
                           MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1,
                           0);
            if (p == MAP_FAILED)
                throw std::bad_alloc();
            base_ = static_cast<char *>(p);
        }
        for (auto it = free_.begin(); it != free_.end(); ++it) {
            if (it->end - it->begin < len)
                continue;
            const size_t at = it->begin;
            it->begin += len;
            if (it->begin == it->end)
                free_.erase(it);
            return base_ + at;
        }
        // Nothing fits: grow the committed prefix, starting from the
        // last free range when it reaches the end.
        const bool tail = !free_.empty() && free_.back().end == committed_;
        const size_t at = tail ? free_.back().begin : committed_;
        const size_t end = roundUp(at + len, kCommitStep);
        if (end > kReserve || mprotect(base_ + committed_, end - committed_,
                                       PROT_READ | PROT_WRITE) != 0)
            throw std::bad_alloc();
        if (tail)
            free_.pop_back();
        committed_ = end;
        if (at + len < end)
            free_.push_back({at + len, end});
        return base_ + at;
    }

    void deallocate(void *p, size_t bytes) noexcept REDSOC_EXCLUDES(mu_)
    {
        const size_t len = roundUp(std::max<size_t>(bytes, 1), kPage);
        std::lock_guard<std::mutex> lock(mu_);
        const size_t at = static_cast<size_t>(static_cast<char *>(p) - base_);
        auto it = free_.insert(
            std::lower_bound(
                free_.begin(), free_.end(), at,
                [](const Range &r, size_t a) { return r.begin < a; }),
            Range{at, at + len});
        if (std::next(it) != free_.end() && std::next(it)->begin == it->end) {
            it->end = std::next(it)->end;
            free_.erase(std::next(it));
        }
        if (it != free_.begin() && std::prev(it)->end == it->begin) {
            std::prev(it)->end = it->end;
            free_.erase(it);
        }
    }

  private:
    /** A free byte range [begin, end) of the committed prefix. */
    struct Range
    {
        size_t begin;
        size_t end;
    };

    std::mutex mu_;
    char *base_ REDSOC_GUARDED_BY(mu_) = nullptr;
    size_t committed_ REDSOC_GUARDED_BY(mu_) = 0;
    /** Free ranges in address order, never adjacent. */
    std::vector<Range> free_ REDSOC_GUARDED_BY(mu_);
};

/** Never destroyed: arrays in static storage may outlive any exit-time
 *  destructor. */
Region &
region()
{
    static Region *const r = new Region;
    return *r;
}

} // namespace

void *
allocate(size_t bytes)
{
    return region().allocate(bytes);
}

void
deallocate(void *p, size_t bytes) noexcept
{
    region().deallocate(p, bytes);
}

} // namespace redsoc::page_region
