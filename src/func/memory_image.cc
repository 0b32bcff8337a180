#include "func/memory_image.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace redsoc {

u8
MemoryImage::readByte(Addr addr) const
{
    const Block *block = blockForConst(addr);
    if (!block)
        return 0;
    return (*block)[addr & (kBlockSize - 1)];
}

void
MemoryImage::writeByte(Addr addr, u8 value)
{
    blockFor(addr)[addr & (kBlockSize - 1)] = value;
}

u64
MemoryImage::read(Addr addr, unsigned size) const
{
    panic_if(size == 0 || size > 8, "bad scalar read size ", size);
    u64 value = 0;
    const Addr off = addr & (kBlockSize - 1);
    if (off + size <= kBlockSize) {
        // Within one block: one lookup for the whole access.
        const Block *block = blockForConst(addr);
        if (block)
            for (unsigned i = 0; i < size; ++i)
                value |= u64{(*block)[off + i]} << (8 * i);
        return value;
    }
    for (unsigned i = 0; i < size; ++i)
        value |= u64{readByte(addr + i)} << (8 * i);
    return value;
}

void
MemoryImage::write(Addr addr, u64 value, unsigned size)
{
    panic_if(size == 0 || size > 8, "bad scalar write size ", size);
    const Addr off = addr & (kBlockSize - 1);
    if (off + size <= kBlockSize) {
        Block &block = blockFor(addr);
        for (unsigned i = 0; i < size; ++i)
            block[off + i] = static_cast<u8>(value >> (8 * i));
        return;
    }
    for (unsigned i = 0; i < size; ++i)
        writeByte(addr + i, static_cast<u8>(value >> (8 * i)));
}

Vec128
MemoryImage::readVec(Addr addr) const
{
    return Vec128{read(addr, 8), read(addr + 8, 8)};
}

void
MemoryImage::writeVec(Addr addr, const Vec128 &value)
{
    write(addr, value.lo, 8);
    write(addr + 8, value.hi, 8);
}

void
MemoryImage::fill(Addr addr, std::span<const u8> data)
{
    // A block at a time: one lookup and one copy per block touched.
    while (!data.empty()) {
        const Addr off = addr & (kBlockSize - 1);
        const size_t n =
            std::min<size_t>(data.size(), kBlockSize - off);
        std::memcpy(blockFor(addr).data() + off, data.data(), n);
        addr += n;
        data = data.subspan(n);
    }
}

void
MemoryImage::pokeF64(Addr addr, double v)
{
    u64 raw;
    std::memcpy(&raw, &v, sizeof(raw));
    poke64(addr, raw);
}

double
MemoryImage::peekF64(Addr addr) const
{
    u64 raw = peek64(addr);
    double v;
    std::memcpy(&v, &raw, sizeof(v));
    return v;
}

MemoryImage::Block &
MemoryImage::blockFor(Addr addr)
{
    auto [it, inserted] = blocks_.try_emplace(addr >> kBlockShift);
    if (inserted)
        it->second.fill(0);
    return it->second;
}

const MemoryImage::Block *
MemoryImage::blockForConst(Addr addr) const
{
    auto it = blocks_.find(addr >> kBlockShift);
    return it == blocks_.end() ? nullptr : &it->second;
}

} // namespace redsoc
