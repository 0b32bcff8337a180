#include "core/lsq.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace redsoc {

Lsq::Lsq(unsigned capacity) : capacity_(capacity)
{
    ring_.resize(std::bit_ceil(static_cast<size_t>(capacity)));
    unresolved_.assign((ring_.size() + 63) / 64, 0);
    mask_ = ring_.size() - 1;
}

void
Lsq::setUnresolved(u64 pos, bool on)
{
    const u64 bit = u64{1} << (pos & 63);
    if (on)
        unresolved_[pos >> 6] |= bit;
    else
        unresolved_[pos >> 6] &= ~bit;
}

void
Lsq::dispatch(SeqNum seq, bool is_store)
{
    panic_if(full(), "dispatch into full LSQ");
    panic_if(size() != 0 && seq <= at(size() - 1).seq,
             "out-of-order LSQ dispatch");
    const u64 pos = tail_++ & mask_;
    ring_[pos] = Entry{seq, is_store};
    setUnresolved(pos, is_store);
}

u64
Lsq::lowerBound(SeqNum seq) const
{
    // dispatch() asserts program order, so the ring is sorted by
    // sequence number: lookups are O(log n).
    u64 lo = 0;
    u64 hi = size();
    while (lo < hi) {
        const u64 mid = lo + (hi - lo) / 2;
        if (at(mid).seq < seq)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

void
Lsq::resolve(SeqNum seq, Addr addr, unsigned size, Tick complete)
{
    const u64 i = lowerBound(seq);
    panic_if(i == this->size() || at(i).seq != seq,
             "resolve of op not in LSQ");
    Entry &e = at(i);
    e.addr = addr;
    e.size = size;
    e.complete = complete;
    setUnresolved((head_ + i) & mask_, false);
}

u64
Lsq::firstUnresolved(u64 lo, u64 hi) const
{
    const u64 slots = mask_ + 1;
    while (lo < hi) {
        const u64 pos = (head_ + lo) & mask_;
        const u64 b = pos & 63;
        const u64 m = unresolved_[pos >> 6] >> b;
        if (m) {
            // Bits past a sub-word ring's end are clear, so the hit
            // lies before the wrap.
            const u64 i = lo + static_cast<u64>(std::countr_zero(m));
            return i < hi ? i : kNoEntry;
        }
        lo += std::min(64 - b, slots - pos);
    }
    return kNoEntry;
}

u64
Lsq::lastUnresolved(u64 lo, u64 hi) const
{
    while (hi > lo) {
        const u64 pos = (head_ + hi - 1) & mask_;
        const u64 b = pos & 63;
        // Positions [pos - b, pos] of this word, highest first.
        const u64 m = unresolved_[pos >> 6] << (63 - b);
        if (m) {
            const u64 back = static_cast<u64>(std::countl_zero(m));
            return back <= hi - 1 - lo ? hi - 1 - back : kNoEntry;
        }
        hi = hi > b + 1 ? hi - (b + 1) : 0;
    }
    return kNoEntry;
}

bool
Lsq::olderStoreUnresolved(SeqNum seq) const
{
    // Program order: some older store is unresolved iff the oldest
    // unresolved store is older than @p seq.
    const u64 i = firstUnresolved(0, size());
    return i != kNoEntry && at(i).seq < seq;
}

SeqNum
Lsq::youngestUnresolvedStoreBefore(SeqNum seq) const
{
    const u64 i = lastUnresolved(0, lowerBound(seq));
    return i == kNoEntry ? kNoSeq : at(i).seq;
}

std::optional<Lsq::ForwardResult>
Lsq::forwardFrom(SeqNum load_seq, Addr addr, unsigned size) const
{
    panic_if(size == 0 || size > 64,
             "load size outside the byte-mask window");
    // Youngest-older-store first: a younger store's bytes shadow an
    // older store's, so each store contributes only the load bytes
    // still uncovered when the scan reaches it. The load's timing
    // must honor *every* contributing store — waiting only on the
    // youngest overlap would read bytes a still-pending older store
    // owns.
    const u64 all =
        size >= 64 ? ~u64{0} : (u64{1} << size) - 1;
    u64 need = all;
    unsigned contributors = 0;
    bool single_store_covers = false;
    Tick complete = 0;
    for (u64 i = tail_ - head_; i-- > 0 && need != 0;) {
        const Entry &e = at(i);
        if (e.seq >= load_seq || !e.is_store || unresolvedAt(i))
            continue;
        const Addr lo = std::max(e.addr, addr);
        const Addr hi = std::min(e.addr + e.size, addr + size);
        if (lo >= hi)
            continue; // no overlap
        const u64 span = hi - lo;
        const u64 mask =
            (span >= 64 ? ~u64{0} : (u64{1} << span) - 1) << (lo - addr);
        if ((mask & need) == 0)
            continue; // fully shadowed by younger stores
        need &= ~mask;
        ++contributors;
        if (contributors == 1 && mask == all)
            single_store_covers = true;
        complete = std::max(complete, e.complete);
    }
    if (contributors == 0)
        return std::nullopt;
    ForwardResult result;
    result.full_cover = single_store_covers;
    result.partial = !result.full_cover;
    result.store_complete = complete;
    return result;
}

void
Lsq::seqs(std::vector<SeqNum> &out) const
{
    out.clear();
    for (u64 i = 0; i < size(); ++i)
        out.push_back(at(i).seq);
}

void
Lsq::commit(SeqNum seq)
{
    panic_if(size() == 0 || at(0).seq != seq, "out-of-order LSQ commit");
    ++head_;
}

} // namespace redsoc
