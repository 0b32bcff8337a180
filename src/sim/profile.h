/**
 * @file
 * Lightweight host-side phase profiler. RAII timers accumulate
 * wall-clock nanoseconds and invocation counts per simulator phase
 * into per-thread counters, so a tool (redsoc_sim --profile, or
 * REDSOC_PROFILE=1 redsoc_sim) can report where host time went
 * without touching the simulated result.
 *
 * Disabled (the default) it costs one predictable branch per scope;
 * enable via setEnabled(true) or the REDSOC_PROFILE=1 environment
 * variable. Each thread adds into its own cache-line-aligned slots
 * (no locked add, no line shared between threads' timers); totals()
 * sums every thread's slots, so parallel SimDriver batches aggregate
 * across workers.
 */

#ifndef REDSOC_SIM_PROFILE_H
#define REDSOC_SIM_PROFILE_H

#include <chrono>
#include <iosfwd>

#include "common/types.h"

namespace redsoc {
namespace prof {

/** Simulator phases with dedicated timers. Issue envelops Wakeup and
 *  Select; Wakeup also accrues inside Select when a grant's broadcast
 *  fires mid-scan (nested timers each charge their own phase). */
enum class Phase : unsigned {
    Commit,      ///< OooCore commit stage
    Issue,       ///< OooCore wakeup+select stage
    Wakeup,      ///< wake-queue drain + issue-time broadcasts
    Select,      ///< Phase-A/B candidate evaluation and granting
    Dispatch,    ///< OooCore fetch/rename/dispatch stage
    TraceBuild,  ///< functional trace construction
    Run,         ///< whole-core simulation (envelops the stages)
    NUM,
};

const char *phaseName(Phase phase);

/** Profiling on/off (process-wide). Initialized from REDSOC_PROFILE. */
bool enabled();
void setEnabled(bool on);

/** Accumulate @p ns into @p phase (one invocation). */
void record(Phase phase, u64 ns);

struct PhaseTotals
{
    u64 ns = 0;
    u64 calls = 0;
};

/** @p phase summed over every thread that has recorded it. */
PhaseTotals totals(Phase phase);

/** Zero all counters (harness setup / between benchmark repeats).
 *  Exact only while no timer is running: a thread adding at the same
 *  moment may write back its pre-reset count. */
void reset();

/** Human-readable per-phase table (no output when nothing recorded). */
void report(std::ostream &os);

/**
 * RAII phase timer. The @p active flag is captured at construction so
 * the hot loop can hoist the enabled() check.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Phase phase) : ScopedTimer(phase, enabled()) {}
    ScopedTimer(Phase phase, bool active)
        : phase_(phase), active_(active)
    {
        if (active_)
            start_ = std::chrono::steady_clock::now();
    }
    ~ScopedTimer()
    {
        if (active_) {
            const auto ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
            record(phase_, static_cast<u64>(ns));
        }
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Phase phase_;
    bool active_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace prof
} // namespace redsoc

#endif // REDSOC_SIM_PROFILE_H
