#include "sim/profile.h"

#include <array>
#include <atomic>
#include <cstdlib>
#include <iomanip>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "common/logging.h"
#include "common/thread_annotations.h"

namespace redsoc {
namespace prof {

namespace {

struct PhaseCounter
{
    std::atomic<u64> ns{0};
    std::atomic<u64> calls{0};
};

/** One thread's counters, on cache lines of their own. Only the owning
 *  thread adds to them, with a plain load and store (no locked add, no
 *  line shared with another thread's timers); totals() and reset()
 *  read and zero them from any thread. */
struct alignas(64) PhaseSlots
{
    std::array<PhaseCounter, static_cast<size_t>(Phase::NUM)> counters;
};

/** Every thread's slots. A thread leases a block on its first record()
 *  and hands it back at exit; the next new thread reuses it, so the
 *  registry holds as many blocks as threads ever ran timers at once,
 *  and counts of exited threads stay in the totals. */
class SlotRegistry
{
  public:
    PhaseSlots *acquire() REDSOC_EXCLUDES(mu_)
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!free_.empty()) {
            PhaseSlots *s = free_.back();
            free_.pop_back();
            return s;
        }
        blocks_.push_back(std::make_unique<PhaseSlots>());
        return blocks_.back().get();
    }

    void release(PhaseSlots *s) REDSOC_EXCLUDES(mu_)
    {
        std::lock_guard<std::mutex> lock(mu_);
        free_.push_back(s);
    }

    /** Call @p f on every block, leased or not. */
    template <typename F>
    void forEach(F f) REDSOC_EXCLUDES(mu_)
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &b : blocks_)
            f(*b);
    }

  private:
    std::mutex mu_;
    std::vector<std::unique_ptr<PhaseSlots>> blocks_ REDSOC_GUARDED_BY(mu_);
    std::vector<PhaseSlots *> free_ REDSOC_GUARDED_BY(mu_);
};

/** Never destroyed: a pool worker may hand its block back while
 *  static destructors run (the global pool joins its workers then). */
SlotRegistry &
registry()
{
    static SlotRegistry *const r = new SlotRegistry;
    return *r;
}

/** Holds the thread's block and returns it at thread exit. */
struct SlotLease
{
    PhaseSlots *slots = registry().acquire();
    SlotLease() = default;
    SlotLease(const SlotLease &) = delete;
    SlotLease &operator=(const SlotLease &) = delete;
    ~SlotLease() { registry().release(slots); }
};

/** The calling thread's block: a plain thread_local pointer, so the
 *  hot path pays no thread_local construction guard. */
thread_local PhaseSlots *tls_slots = nullptr;

PhaseSlots &
mySlots()
{
    if (tls_slots == nullptr) {
        thread_local SlotLease lease;
        tls_slots = lease.slots;
    }
    return *tls_slots;
}

std::atomic<bool> profiling_enabled{[] {
    const char *env = std::getenv("REDSOC_PROFILE");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}()};

} // namespace

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::Commit: return "commit";
      case Phase::Issue: return "issue";
      case Phase::Wakeup: return "wakeup";
      case Phase::Select: return "select";
      case Phase::Dispatch: return "dispatch";
      case Phase::TraceBuild: return "trace_build";
      case Phase::Run: return "run";
      default: panic("bad profiler phase");
    }
}

bool
enabled()
{
    return profiling_enabled.load(std::memory_order_relaxed);
}

void
setEnabled(bool on)
{
    profiling_enabled.store(on, std::memory_order_relaxed);
}

void
record(Phase phase, u64 ns)
{
    PhaseCounter &c = mySlots().counters[static_cast<size_t>(phase)];
    c.ns.store(c.ns.load(std::memory_order_relaxed) + ns,
               std::memory_order_relaxed);
    c.calls.store(c.calls.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
}

PhaseTotals
totals(Phase phase)
{
    PhaseTotals t;
    registry().forEach([&](const PhaseSlots &s) {
        const PhaseCounter &c = s.counters[static_cast<size_t>(phase)];
        t.ns += c.ns.load(std::memory_order_relaxed);
        t.calls += c.calls.load(std::memory_order_relaxed);
    });
    return t;
}

void
reset()
{
    registry().forEach([](PhaseSlots &s) {
        for (PhaseCounter &c : s.counters) {
            c.ns.store(0, std::memory_order_relaxed);
            c.calls.store(0, std::memory_order_relaxed);
        }
    });
}

void
report(std::ostream &os)
{
    u64 any = 0;
    for (unsigned p = 0; p < static_cast<unsigned>(Phase::NUM); ++p)
        any += totals(static_cast<Phase>(p)).calls;
    if (any == 0)
        return;

    os << "host profile (wall clock, process-wide):\n";
    os << "  " << std::left << std::setw(12) << "phase" << std::right
       << std::setw(12) << "calls" << std::setw(14) << "total ms"
       << std::setw(12) << "ns/call" << '\n';
    for (unsigned p = 0; p < static_cast<unsigned>(Phase::NUM); ++p) {
        const auto t = totals(static_cast<Phase>(p));
        if (t.calls == 0)
            continue;
        os << "  " << std::left << std::setw(12)
           << phaseName(static_cast<Phase>(p)) << std::right
           << std::setw(12) << t.calls << std::setw(14) << std::fixed
           << std::setprecision(2)
           << static_cast<double>(t.ns) / 1e6 << std::setw(12)
           << t.ns / t.calls << '\n';
    }
}

} // namespace prof
} // namespace redsoc
