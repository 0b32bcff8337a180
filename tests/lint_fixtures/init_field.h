// Fixture: init-field (R1). Excluded from the build and from tree
// lint runs; test_lint lexes it directly.
#pragma once
#include <array>
#include <string>

namespace fixture {

struct GoodConfig
{
    unsigned width = 4;
    std::string name = "ok";
    std::array<int, 3> lanes{0, 1, 2};
    double scale{1.0};
};

struct BadConfig
{
    unsigned width = 4;
    unsigned depth;          // line 20: violation
    bool enable_thing;       // line 21: violation
    double scale = 1.0;
};

struct BadStats
{
    unsigned long long committed = 0;
    unsigned long long cycles;     // line 28: violation
    double ipc() const { return 0.0; } // functions are not fields
    static constexpr int kLimit = 4;   // statics are skipped
};

// Not *Config / *Stats: uninitialized members are fine here.
struct ScratchEntry
{
    unsigned seq;
    bool valid;
};

// A field right after an access specifier is a field all the same,
// and an array field is named by its declarator, not its extent.
class AccessStats
{
  public:
    unsigned long long hits;       // line 45: violation
    unsigned lanes[kLanes];        // line 46: violation
};

} // namespace fixture
