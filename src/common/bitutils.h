/**
 * @file
 * Bit-manipulation helpers: effective operand width, field extraction,
 * sign extension, rotation. Effective width is the basis of the
 * paper's Width-Slack analysis (Sec.II-A).
 */

#ifndef REDSOC_COMMON_BITUTILS_H
#define REDSOC_COMMON_BITUTILS_H

#include <bit>
#include <string_view>

#include "common/types.h"

namespace redsoc {

/**
 * Number of significant low-order bits in @p value: 64 minus the
 * leading-zero count. Returns 1 for value 0 (a zero still occupies a
 * one-bit datapath; this also keeps log2-based delay models defined).
 */
inline unsigned
effectiveWidth(u64 value)
{
    if (value == 0)
        return 1;
    return 64 - std::countl_zero(value);
}

/**
 * Effective width of a two's-complement value: negative numbers are
 * measured by the width of their magnitude pattern (leading ones
 * carry no more information than leading zeros do).
 */
inline unsigned
effectiveWidthSigned(s64 value)
{
    if (value < 0)
        return effectiveWidth(static_cast<u64>(~value)) + 1;
    return effectiveWidth(static_cast<u64>(value));
}

/** Extract bits [lo, lo+len) of @p value. */
inline u64
bits(u64 value, unsigned lo, unsigned len)
{
    if (len >= 64)
        return value >> lo;
    return (value >> lo) & ((u64{1} << len) - 1);
}

/** Sign-extend the low @p width bits of @p value to 64 bits. */
inline s64
signExtend(u64 value, unsigned width)
{
    if (width == 0 || width >= 64)
        return static_cast<s64>(value);
    const u64 m = u64{1} << (width - 1);
    value &= (u64{1} << width) - 1;
    return static_cast<s64>((value ^ m) - m);
}

/** Rotate the low 32 bits of @p value right by @p amount (mod 32). */
inline u32
rotateRight32(u32 value, unsigned amount)
{
    return std::rotr(value, static_cast<int>(amount & 31));
}

/** True if @p value is a power of two (and nonzero). */
inline bool
isPowerOfTwo(u64 value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** ceil(log2(value)) for value >= 1. */
unsigned ceilLog2(u64 value);

/** floor(log2(value)) for value >= 1. */
unsigned floorLog2(u64 value);

/** FNV-1a over @p text: stable names for run-cache entries and trace
 *  files, whatever the key's length. */
inline u64
fnv1a64(std::string_view text)
{
    u64 h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** FNV-1a folded one 64-bit value at a time (digests of records). */
struct Fnv1a
{
    u64 h = 0xcbf29ce484222325ull;
    void operator()(u64 v)
    {
        h ^= v;
        h *= 0x100000001b3ull;
    }
};

} // namespace redsoc

#endif // REDSOC_COMMON_BITUTILS_H
