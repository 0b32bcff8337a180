/**
 * @file
 * Sparse byte-addressable 64-bit memory for functional execution.
 * Memory is held in 256-byte blocks, allocated on first touch and
 * zero-initialized: small enough that data scattered over a large
 * region (a pointer tree in a 24 MiB pool) costs only the blocks it
 * touches.
 */

#ifndef REDSOC_FUNC_MEMORY_IMAGE_H
#define REDSOC_FUNC_MEMORY_IMAGE_H

#include <array>
#include <span>
#include <unordered_map>

#include "common/types.h"
#include "func/vec128.h"

namespace redsoc {

class MemoryImage
{
  public:
    /** Read @p size (1/2/4/8) bytes little-endian, zero-extended. */
    u64 read(Addr addr, unsigned size) const;

    /** Write the low @p size bytes of @p value little-endian. */
    void write(Addr addr, u64 value, unsigned size);

    Vec128 readVec(Addr addr) const;
    void writeVec(Addr addr, const Vec128 &value);

    /** Bulk-initialize a region (workload input loading). */
    void fill(Addr addr, std::span<const u8> data);

    /** Convenience typed pokes for workload setup. */
    void poke64(Addr addr, u64 v) { write(addr, v, 8); }
    void poke32(Addr addr, u32 v) { write(addr, v, 4); }
    void poke16(Addr addr, u16 v) { write(addr, v, 2); }
    void poke8(Addr addr, u8 v) { write(addr, v, 1); }
    void pokeF64(Addr addr, double v);

    u64 peek64(Addr addr) const { return read(addr, 8); }
    u32 peek32(Addr addr) const { return static_cast<u32>(read(addr, 4)); }
    u8 peek8(Addr addr) const { return static_cast<u8>(read(addr, 1)); }
    double peekF64(Addr addr) const;

    /** Allocation granule, bytes. */
    static constexpr unsigned kBlockShift = 8;
    static constexpr Addr kBlockSize = Addr{1} << kBlockShift;

    /** Number of resident blocks (for tests/inspection). */
    size_t residentBlocks() const { return blocks_.size(); }

  private:
    using Block = std::array<u8, kBlockSize>;

    u8 readByte(Addr addr) const;
    void writeByte(Addr addr, u8 value);

    Block &blockFor(Addr addr);
    const Block *blockForConst(Addr addr) const;

    std::unordered_map<Addr, Block> blocks_;
};

} // namespace redsoc

#endif // REDSOC_FUNC_MEMORY_IMAGE_H
