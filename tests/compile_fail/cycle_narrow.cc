// Must not compile under -Wconversion -Werror (cycle_narrow ctest).
#include <cstdint>
using Cycle = std::uint64_t;
using u32 = std::uint32_t;
u32 narrowed(Cycle cycles) { u32 c = cycles; return c; }
