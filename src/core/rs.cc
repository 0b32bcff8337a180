#include "core/rs.h"

#include <algorithm>

#include "common/logging.h"

namespace redsoc {

void
ReadySet::configure(unsigned window)
{
    // Live seqs span at most `window`, i.e. window/64 + 1 consecutive
    // occupancy words; two extra slots guarantee distinct ring slots
    // for every live word, so claimWord() never grows in steady state.
    const size_t words =
        std::bit_ceil(static_cast<size_t>(window) / 64 + 3);
    bits_.assign(words, 0);
    word_id_.assign(words, kNoWord);
    mask_ = words - 1;
    size_ = 0;
    min_word_ = kNoWord;
    max_word_ = 0;
}

size_t
ReadySet::claimWord(u64 w)
{
    for (;;) {
        const size_t slot = slotOf(w);
        if (word_id_[slot] == w)
            return slot;
        if (word_id_[slot] == kNoWord || bits_[slot] == 0) {
            // Empty or fully-drained slot: lazily recycle it.
            word_id_[slot] = w;
            bits_[slot] = 0;
            return slot;
        }
        grow(); // live collision: the window underestimated the span
    }
}

void
ReadySet::grow()
{
    // Cold path (never taken when configure() saw the true ROB
    // window): rebuild at the smallest power-of-two size where no two
    // live words collide.
    std::vector<std::pair<u64, u64>> live;
    for (size_t i = 0; i < bits_.size(); ++i)
        if (word_id_[i] != kNoWord && bits_[i] != 0)
            live.emplace_back(word_id_[i], bits_[i]);

    size_t words = bits_.size();
    for (bool ok = false; !ok;) {
        words *= 2;
        ok = true;
        std::vector<bool> used(words, false);
        for (const auto &[w, b] : live) {
            const size_t slot = static_cast<size_t>(w) & (words - 1);
            if (used[slot]) {
                ok = false;
                break;
            }
            used[slot] = true;
        }
    }

    bits_.assign(words, 0);
    word_id_.assign(words, kNoWord);
    mask_ = words - 1;
    for (const auto &[w, b] : live) {
        const size_t slot = slotOf(w);
        word_id_[slot] = w;
        bits_[slot] = b;
    }
}

void
ReadySet::insert(SeqNum seq)
{
    const u64 w = seq >> 6;
    const size_t slot = claimWord(w);
    const u64 bit = u64{1} << (seq & 63);
    if (bits_[slot] & bit)
        return; // already present
    bits_[slot] |= bit;
    ++size_;
    min_word_ = std::min(min_word_, w);
    max_word_ = std::max(max_word_, w);
}

void
ReadySet::erase(SeqNum seq)
{
    const u64 w = seq >> 6;
    const size_t slot = slotOf(w);
    if (word_id_[slot] != w)
        return;
    const u64 bit = u64{1} << (seq & 63);
    if (!(bits_[slot] & bit))
        return;
    bits_[slot] &= ~bit;
    --size_;
    if (size_ == 0) {
        // The per-cycle drain discipline: an emptied set resets its
        // live-word bounds, keeping every scan's span tight.
        min_word_ = kNoWord;
        max_word_ = 0;
    }
}

bool
ReadySet::contains(SeqNum seq) const
{
    const u64 w = seq >> 6;
    const size_t slot = slotOf(w);
    return word_id_[slot] == w &&
           (bits_[slot] & (u64{1} << (seq & 63))) != 0;
}

SeqNum
ReadySet::nextAtOrAfter(SeqNum seq)
{
    if (size_ == 0)
        return kNoSeq;
    const u64 first = seq >> 6;
    // When the walk starts at (or below) the conservative lower
    // bound, every empty word it crosses is provably dead: advance
    // min_word_ past it so entries resident across cycles (the
    // FU-denied retention set) never re-pay the scan-in. A word that
    // only *looks* empty under the first-word mask still holds live
    // older bits, so the bound may move onto it but not past it.
    bool from_min = first <= min_word_;
    for (u64 w = std::max(first, min_word_); w <= max_word_; ++w) {
        const size_t slot = slotOf(w);
        if (word_id_[slot] != w || bits_[slot] == 0) {
            if (from_min)
                min_word_ = w + 1;
            continue;
        }
        if (from_min) {
            // First live word: the bound lands here and stops — bits
            // masked off below @p seq are still live (entries older
            // than the cursor stay resident across Phase-A passes).
            min_word_ = w;
            from_min = false;
        }
        u64 m = bits_[slot];
        if (w == first)
            m &= ~u64{0} << (seq & 63);
        if (m)
            return w * 64 + static_cast<u64>(std::countr_zero(m));
    }
    return kNoSeq;
}

SeqNum
ReadySet::popAtOrAfter(SeqNum seq)
{
    if (size_ == 0)
        return kNoSeq;
    const u64 first = seq >> 6;
    bool from_min = first <= min_word_; // see nextAtOrAfter
    for (u64 w = std::max(first, min_word_); w <= max_word_; ++w) {
        const size_t slot = slotOf(w);
        if (word_id_[slot] != w || bits_[slot] == 0) {
            if (from_min)
                min_word_ = w + 1;
            continue;
        }
        if (from_min) {
            min_word_ = w;
            from_min = false;
        }
        u64 m = bits_[slot];
        if (w == first)
            m &= ~u64{0} << (seq & 63);
        if (!m)
            continue;
        const unsigned b = static_cast<unsigned>(std::countr_zero(m));
        bits_[slot] &= ~(u64{1} << b);
        --size_;
        if (size_ == 0) {
            min_word_ = kNoWord;
            max_word_ = 0;
        }
        return w * 64 + b;
    }
    return kNoSeq;
}

void
ReadySet::clear()
{
    std::fill(bits_.begin(), bits_.end(), 0);
    std::fill(word_id_.begin(), word_id_.end(), kNoWord);
    size_ = 0;
    min_word_ = kNoWord;
    max_word_ = 0;
}

} // namespace redsoc
