#include "redsoc/transparent.h"

#include "common/logging.h"

namespace redsoc {

bool
canRecycle(Tick producer_complete, Tick arrival_tick,
           const SubCycleClock &clock, Tick threshold_ticks)
{
    if (producer_complete <= arrival_tick)
        return false; // producer done by the boundary: normal issue
    if (producer_complete >= arrival_tick + clock.ticksPerCycle())
        return false; // completion not within the consumer's cycle
    return clock.ciOf(producer_complete) <= threshold_ticks;
}

TransparentTracker::TransparentTracker(unsigned window)
    : lengths_(64)
{
    const size_t n = std::bit_ceil(static_cast<size_t>(window));
    slots_.resize(n);
    mask_ = n - 1;
}

void
TransparentTracker::reset()
{
    for (Slot &s : slots_)
        s = Slot{};
    lengths_ = Histogram(64);
    links_ = 0;
}

TransparentTracker::Slot *
TransparentTracker::find(SeqNum seq)
{
    Slot &s = slots_[slotOf(seq)];
    return s.seq == seq ? &s : nullptr;
}

TransparentTracker::Slot &
TransparentTracker::claim(SeqNum seq)
{
    Slot &s = slots_[slotOf(seq)];
    // A live occupant would mean two in-flight ops more than a ROB
    // window apart — impossible: records live from issue to commit.
    panic_if(s.seq != kNoSeq && s.seq != seq,
             "transparent-chain ring collision");
    s.seq = seq;
    return s;
}

void
TransparentTracker::onRoot(SeqNum seq)
{
    // Mirrors the map-era emplace: a re-root of an existing live
    // chain record keeps the old record.
    Slot &s = slots_[slotOf(seq)];
    if (s.seq == seq)
        return;
    Slot &c = claim(seq);
    c.length = 1;
    c.extended = false;
}

void
TransparentTracker::onExtend(SeqNum parent, SeqNum child)
{
    ++links_;
    u32 parent_len = 1;
    if (Slot *p = find(parent)) {
        p->extended = true;
        parent_len = p->length;
    }
    Slot &c = claim(child);
    c.length = parent_len + 1;
    c.extended = false;
}

void
TransparentTracker::onRetire(SeqNum seq)
{
    Slot *s = find(seq);
    if (!s)
        return;
    // Chain tails carry the final sequence length. Note retirement is
    // in program order, so any op that extends this one has already
    // marked it (extension happens at issue, before either commits).
    if (!s->extended)
        lengths_.sample(s->length);
    *s = Slot{};
}

double
TransparentTracker::expectedRecycledLength() const
{
    double num = 0.0, den = 0.0;
    for (u64 len = 2; len <= lengths_.maxSample(); ++len) {
        const double count = asDouble(lengths_.bucket(len));
        const double dlen = asDouble(len);
        num += dlen * dlen * count;
        den += dlen * count;
    }
    return den == 0.0 ? 0.0 : num / den;
}

} // namespace redsoc
