/**
 * @file
 * 128-bit SIMD register value with lane accessors, used by the
 * functional interpreter's NEON-like operations.
 */

#ifndef REDSOC_FUNC_VEC128_H
#define REDSOC_FUNC_VEC128_H

#include "common/bitutils.h"
#include "common/types.h"
#include "isa/opcode.h"

namespace redsoc {

struct Vec128
{
    u64 lo = 0;
    u64 hi = 0;

    bool operator==(const Vec128 &) const = default;

    // Lane idx spans bits [idx * w, idx * w + w) of the 128, w a power
    // of two dividing 64, so it never straddles lo and hi: offsets are
    // a multiply and a mask. The accessors are forced inline: the
    // interpreter calls them at some twenty-five sites, and under the
    // whole-library build GCC's unit-growth budget is spent before it
    // reaches them (DESIGN.md §12).

    /** Read lane @p idx of element type @p vt (zero-extended). */
    [[gnu::always_inline]] u64
    lane(VecType vt, unsigned idx) const
    {
        const unsigned bits_per = vecElemBits(vt);
        const unsigned bit = idx * bits_per;
        return bits(bit < 64 ? lo : hi, bit & 63, bits_per);
    }

    /** Read lane @p idx sign-extended to 64 bits. */
    [[gnu::always_inline]] s64
    laneSigned(VecType vt, unsigned idx) const
    {
        return signExtend(lane(vt, idx), vecElemBits(vt));
    }

    /** Write lane @p idx (value truncated to the element width). */
    [[gnu::always_inline]] void
    setLane(VecType vt, unsigned idx, u64 value)
    {
        const unsigned bits_per = vecElemBits(vt);
        const unsigned bit = idx * bits_per;
        u64 &word = bit < 64 ? lo : hi;
        const unsigned shift = bit & 63;
        const u64 mask = bits_per >= 64 ? ~u64{0}
                                        : ((u64{1} << bits_per) - 1);
        word = (word & ~(mask << shift)) | ((value & mask) << shift);
    }
};

} // namespace redsoc

#endif // REDSOC_FUNC_VEC128_H
