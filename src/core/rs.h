/**
 * @file
 * Reservation-station pool and the event kernel's candidate sets.
 *
 * The RS is an occupancy counter. Which ops wait in it is the core's
 * status lane (InRs), and in-flight ops are exactly the sequence
 * numbers [commit, fetch) dispatch handed out, so walking that window
 * and filtering on InRs visits every waiting op oldest first. The
 * slack-aware RSE fields of Figs.7-8 (parent/grandparent tags,
 * EX-TIME, COMP-INST) live in the core's per-op scheduling state too.
 *
 * The event kernel's candidate sets (the "ready set" of the Fig.7
 * RSE wakeup array) are WindowSets: one bit per slot of the core's
 * window ring (OooCore::Slot), so they are window lanes like the
 * others and need no tags, bounds or growth.
 */

#ifndef REDSOC_CORE_RS_H
#define REDSOC_CORE_RS_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace redsoc {

class ReservationStations
{
  public:
    explicit ReservationStations(unsigned capacity) : capacity_(capacity) {}

    bool full() const { return size_ >= capacity_; }
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    unsigned capacity() const { return capacity_; }

    /** Allocate an entry at dispatch. */
    void insert()
    {
        panic_if(full(), "insert into full RS");
        ++size_;
    }

    /** Free an entry at issue. */
    void remove()
    {
        panic_if(size_ == 0, "remove from empty RS");
        --size_;
    }

  private:
    unsigned capacity_;
    size_t size_ = 0;
};

/**
 * A set of in-flight ops: one bit per slot of a power-of-two window
 * ring (the core's seq & mask). Live ops never share a slot, so a
 * member is identified by its slot alone, and a walk that starts at
 * the oldest in-flight op's slot and goes up the ring, wrapping once,
 * visits the members oldest first.
 *
 * next() searches from a ring distance, not from a remembered
 * position, so a walk stays correct while members are inserted ahead
 * of its cursor (a wakeup always lands on a consumer younger than
 * the op being granted) and erased behind it.
 */
class WindowSet
{
  public:
    /** next(): no member at or after the requested distance. */
    static constexpr size_t kNone = ~size_t{0};

    WindowSet() { configure(1); }

    /** Size for a ring of @p slots (a power of two). Clears the set. */
    void configure(size_t slots)
    {
        panic_if(!std::has_single_bit(slots),
                 "window ring size must be a power of two");
        mask_ = slots - 1;
        words_.assign((slots + 63) / 64, 0);
        size_ = 0;
    }

    size_t slots() const { return mask_ + 1; }
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    /** Insert @p slot (idempotent). */
    void insert(size_t slot)
    {
        u64 &w = words_[slot >> 6];
        const u64 bit = u64{1} << (slot & 63);
        size_ += (w & bit) == 0;
        w |= bit;
    }

    /** Remove @p slot (no-op if absent). */
    void erase(size_t slot)
    {
        u64 &w = words_[slot >> 6];
        const u64 bit = u64{1} << (slot & 63);
        size_ -= (w & bit) != 0;
        w &= ~bit;
    }

    bool contains(size_t slot) const
    {
        return (words_[slot >> 6] >> (slot & 63)) & 1;
    }

    /**
     * Ring distance from slot @p base of the nearest member at
     * distance @p from or more, walking up the ring and wrapping
     * once; kNone when there is none. With @p base the oldest
     * in-flight op's slot, the member's sequence number is the
     * oldest op's plus the distance.
     */
    size_t next(size_t base, size_t from) const
    {
        if (size_ == 0)
            return kNone;
        const size_t slots = mask_ + 1;
        for (size_t d = from; d < slots;) {
            const size_t pos = (base + d) & mask_;
            const size_t b = pos & 63;
            // Bits past a sub-word ring's end are never set, so the
            // word's high bits never alias a wrapped slot.
            const u64 m = words_[pos >> 6] >> b;
            if (m) {
                const size_t hit =
                    d + static_cast<size_t>(std::countr_zero(m));
                // A hit at distance >= slots is a member below the
                // walk's start, met again after the wrap.
                return hit < slots ? hit : kNone;
            }
            d += std::min(64 - b, slots - pos);
        }
        return kNone;
    }

    /** Move every member of @p other (same ring) into this set. */
    void take(WindowSet &other)
    {
        size_ = 0;
        for (size_t i = 0; i < words_.size(); ++i) {
            words_[i] |= other.words_[i];
            other.words_[i] = 0;
            size_ += static_cast<size_t>(std::popcount(words_[i]));
        }
        other.size_ = 0;
    }

    void clear()
    {
        std::fill(words_.begin(), words_.end(), 0);
        size_ = 0;
    }

  private:
    std::vector<u64> words_; ///< one bit per ring slot
    size_t mask_ = 0;        ///< ring slots - 1
    size_t size_ = 0;
};

} // namespace redsoc

#endif // REDSOC_CORE_RS_H
