#include "core/lsq.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace redsoc {

Lsq::Lsq(unsigned capacity) : capacity_(capacity)
{
    fatal_if(capacity == 0, "zero-entry LSQ");
    ring_.resize(std::bit_ceil(static_cast<size_t>(capacity)));
    mask_ = ring_.size() - 1;
}

void
Lsq::dispatch(SeqNum seq, bool is_store)
{
    panic_if(full(), "dispatch into full LSQ");
    panic_if(size() != 0 && seq <= at(size() - 1).seq,
             "out-of-order LSQ dispatch");
    ring_[tail_++ & mask_] = Entry{seq, is_store};
}

Lsq::Entry *
Lsq::find(SeqNum seq)
{
    // dispatch() asserts program order, so the ring is sorted by
    // sequence number: resolve/setComplete lookups are O(log n).
    u64 lo = 0;
    u64 hi = size();
    while (lo < hi) {
        const u64 mid = lo + (hi - lo) / 2;
        if (at(mid).seq < seq)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo == size() || at(lo).seq != seq)
        return nullptr;
    return &at(lo);
}

void
Lsq::resolve(SeqNum seq, Addr addr, unsigned size, Tick complete)
{
    Entry *e = find(seq);
    panic_if(!e, "resolve of op not in LSQ");
    e->resolved = true;
    e->addr = addr;
    e->size = size;
    e->complete = complete;
}

void
Lsq::setComplete(SeqNum seq, Tick complete)
{
    Entry *e = find(seq);
    panic_if(!e, "setComplete of op not in LSQ");
    e->complete = complete;
}

bool
Lsq::olderStoreUnresolved(SeqNum seq) const
{
    for (u64 i = 0; i < size(); ++i) {
        const Entry &e = at(i);
        if (e.seq >= seq)
            break;
        if (e.is_store && !e.resolved)
            return true;
    }
    return false;
}

SeqNum
Lsq::youngestUnresolvedStoreBefore(SeqNum seq) const
{
    SeqNum found = kNoSeq;
    for (u64 i = 0; i < size(); ++i) {
        const Entry &e = at(i);
        if (e.seq >= seq)
            break;
        if (e.is_store && !e.resolved)
            found = e.seq; // program order: the last hit is youngest
    }
    return found;
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
        if (e.seq >= load_seq || !e.is_store || !e.resolved)
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
