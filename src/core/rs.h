/**
 * @file
 * Reservation-station pool and the event kernel's ready set.
 *
 * The RS is an occupancy counter. Which ops wait in it is the core's
 * status lane (InRs), and in-flight ops are exactly the sequence
 * numbers [commit, fetch) dispatch handed out, so walking that window
 * and filtering on InRs visits every waiting op oldest first. The
 * slack-aware RSE fields of Figs.7-8 (parent/grandparent tags,
 * EX-TIME, COMP-INST) live in the core's per-op scheduling state too.
 */

#ifndef REDSOC_CORE_RS_H
#define REDSOC_CORE_RS_H

#include <bit>
#include <cstddef>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace redsoc {

class ReservationStations
{
  public:
    explicit ReservationStations(unsigned capacity);

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
 * The event-driven kernel's candidate set (the "ready set" of the
 * Fig.7 RSE wakeup array): a windowed ring of 64-bit occupancy words
 * indexed by sequence number. Wakeup inserts set one bit; the select
 * loop pops candidates in global age order with a word-at-a-time
 * count-trailing-zeros scan, which stays valid across mid-iteration
 * insertions because a wakeup can only insert a consumer younger
 * than the op being granted.
 *
 * The ring exploits the scheduler's windowing discipline: the live
 * seqs a set ever holds are RS residents, which span at most the ROB
 * window, so a ring of word slots tagged with their absolute word
 * index never aliases two live words. A tag mismatch on insert lazily
 * recycles the stale slot; a live collision (possible only if the
 * configured window was too small) grows the ring. Scans advance the
 * conservative lower bound past dead words, so FU-denied entries may
 * stay resident across cycles (Phase A retention) without the
 * emptied-set bound reset ever firing.
 */
class ReadySet
{
  public:
    ReadySet() { configure(kDefaultWindow); }

    /** Size the ring for an in-flight window of @p window seqs (the
     *  ROB bound). Clears the set. */
    void configure(unsigned window);

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    /** Insert @p seq (idempotent). */
    void insert(SeqNum seq);

    /** Remove @p seq (no-op if absent). */
    void erase(SeqNum seq);

    /** True iff @p seq is in the set. */
    bool contains(SeqNum seq) const;

    /** Oldest candidate with seq >= @p seq, or kNoSeq when none.
     *  Non-const: a walk that starts at the conservative lower bound
     *  advances it past provably-dead words (resident-set scans stay
     *  O(live span) even when the set never drains). */
    SeqNum nextAtOrAfter(SeqNum seq);

    /** nextAtOrAfter + erase fused into one word walk (the Phase-A /
     *  Phase-B pop). */
    SeqNum popAtOrAfter(SeqNum seq);

    void clear();

  private:
    static constexpr unsigned kDefaultWindow = 256;
    static constexpr u64 kNoWord = ~u64{0}; ///< empty-slot tag

    /** Slot index of absolute word @p w. */
    size_t slotOf(u64 w) const { return static_cast<size_t>(w) & mask_; }

    /** Ensure @p w owns its slot; grows the ring on a live collision. */
    size_t claimWord(u64 w);

    void grow();

    std::vector<u64> bits_;    ///< ring of 64-seq occupancy words
    std::vector<u64> word_id_; ///< absolute word index per slot
    u64 mask_ = 0;             ///< bits_.size() - 1 (power of two)
    size_t size_ = 0;
    u64 min_word_ = kNoWord;   ///< conservative live-word bounds
    u64 max_word_ = 0;
};

// One cache line holds eight ready-set words = a 512-seq window: the
// whole set is a handful of lines for any realistic ROB.
static_assert(sizeof(u64) == 8 && alignof(u64) == 8,
              "ready-set occupancy lane must be 8-byte words");

} // namespace redsoc

#endif // REDSOC_CORE_RS_H
