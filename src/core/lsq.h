/**
 * @file
 * Unified load/store queue: occupancy, conservative load ordering
 * (loads issue only after all older store addresses are resolved)
 * and store-to-load forwarding. Entries sit in a power-of-two ring in
 * program order: dispatch appends at the tail, commit pops the head.
 * A bitmask over the ring positions marks the stores whose address
 * is still unresolved, so the ordering queries read a few words
 * instead of scanning the queue.
 */

#ifndef REDSOC_CORE_LSQ_H
#define REDSOC_CORE_LSQ_H

#include <optional>
#include <vector>

#include "common/types.h"

namespace redsoc {

class Lsq
{
  public:
    explicit Lsq(unsigned capacity);

    bool full() const { return size() >= capacity_; }
    size_t size() const { return static_cast<size_t>(tail_ - head_); }

    /** Allocate an entry at dispatch (program order). */
    void dispatch(SeqNum seq, bool is_store);

    /** Record the resolved address/size at issue. */
    void resolve(SeqNum seq, Addr addr, unsigned size, Tick complete);

    /**
     * True if any store older than @p seq has an unresolved address
     * (the conservative ordering gate for load issue).
     */
    bool olderStoreUnresolved(SeqNum seq) const;

    /**
     * The youngest store older than @p seq whose address is still
     * unresolved, or kNoSeq when none. The event kernel parks a
     * blocked load on one concrete blocker and re-evaluates only
     * when *that* store resolves (re-parking if another older store
     * is still pending), instead of re-checking every parked load on
     * every store issue.
     */
    SeqNum youngestUnresolvedStoreBefore(SeqNum seq) const;

    struct ForwardResult
    {
        bool full_cover = false; ///< one store sources every byte
        bool partial = false;    ///< overlap without single-store cover
        /** Max completion over every *contributing* store (a store
         *  contributes only the load bytes no younger store covers). */
        Tick store_complete = 0;
    };

    /**
     * Byte-accurate store-to-load forwarding query over the resolved
     * older stores, youngest first (DESIGN.md §11.4):
     *
     *  - a store contributes only the load bytes not covered by a
     *    younger store; a fully shadowed store has no timing effect;
     *  - full_cover: exactly one store contributes and it covers the
     *    whole load — its data can be forwarded;
     *  - partial: any other overlap (one partial store, or several
     *    stores jointly sourcing the load). The load must wait for
     *    every contributing store (store_complete is their max) and
     *    then read the cache.
     *
     * Empty result if no older resolved store overlaps the load.
     */
    std::optional<ForwardResult>
    forwardFrom(SeqNum load_seq, Addr addr, unsigned size) const;

    /** Sequence numbers in queue (program) order, into @p out
     *  (cleared first): invariant audit / tests. */
    void seqs(std::vector<SeqNum> &out) const;

    /** Release the entry at commit. */
    void commit(SeqNum seq);

  private:
    struct Entry
    {
        SeqNum seq;
        bool is_store;
        Addr addr = 0;      ///< valid once resolved
        unsigned size = 0;
        Tick complete = 0;
    };

    /** The @p i-th entry from the oldest. */
    Entry &at(u64 i) { return ring_[(head_ + i) & mask_]; }
    const Entry &at(u64 i) const { return ring_[(head_ + i) & mask_]; }

    /** Offset from the oldest of the first entry whose seq is
     *  @p seq or later (size() when none): the ring is sorted. */
    u64 lowerBound(SeqNum seq) const;

    /** True iff the entry at offset @p i is an unresolved store. */
    bool unresolvedAt(u64 i) const
    {
        const u64 pos = (head_ + i) & mask_;
        return (unresolved_[pos >> 6] >> (pos & 63)) & 1;
    }
    void setUnresolved(u64 pos, bool on);

    /** Offsets [lo, hi) from the oldest: first / last unresolved
     *  store, or kNoEntry. */
    u64 firstUnresolved(u64 lo, u64 hi) const;
    u64 lastUnresolved(u64 lo, u64 hi) const;
    static constexpr u64 kNoEntry = ~u64{0};

    unsigned capacity_;
    std::vector<Entry> ring_; ///< power-of-two ring, program order
    /** One bit per ring position: the entry there is a store whose
     *  address is not yet resolved. Dispatch writes a position's bit
     *  and the queries bound every hit to the live entries, so a bit
     *  left at a free position changes no answer; bits past a
     *  sub-word ring's end stay clear. */
    std::vector<u64> unresolved_;
    u64 mask_ = 0;            ///< ring_.size() - 1
    u64 head_ = 0;            ///< oldest entry (monotonic index)
    u64 tail_ = 0;            ///< one past the youngest
};

} // namespace redsoc

#endif // REDSOC_CORE_LSQ_H
