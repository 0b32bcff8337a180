// Fixture: nondet-api (R2). Not compiled; lexed by test_lint.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

namespace fixture {

unsigned long long
badSeed()
{
    std::random_device rd;            // line 12: violation
    unsigned seed = std::rand();      // line 13: violation
    seed += static_cast<unsigned>(time(nullptr)); // line 14: violation
    srand(seed);                      // line 15: violation
    using host = std::chrono::steady_clock; // line 16: violation
    seed += static_cast<unsigned>(host::now().time_since_epoch().count());
    return seed;
}

} // namespace fixture
