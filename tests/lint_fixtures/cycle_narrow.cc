// Fixture: cycle-narrow (R3). Not compiled; lexed by test_lint.
#include <cstdint>

namespace fixture {

using Cycle = std::uint64_t;

unsigned
lossyReport(Cycle cycles, Cycle start_tick)
{
    const unsigned c32 = static_cast<unsigned>(cycles);  // line 11: violation
    unsigned window = cycles - start_tick;               // -Wconversion's, quiet
    window += c32;
    return window;
}

// 64-bit-preserving uses must stay quiet.
unsigned long long
fineReport(Cycle cycles)
{
    const Cycle horizon = cycles + 8;
    return static_cast<unsigned long long>(horizon);
}

} // namespace fixture
