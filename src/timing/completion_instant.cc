#include "timing/completion_instant.h"

#include "common/logging.h"

namespace redsoc {

SubCycleClock::SubCycleClock(unsigned precision_bits, Picos clock_period_ps)
    : precision_bits_(precision_bits),
      ticks_per_cycle_(Tick{1} << precision_bits),
      clock_period_ps_(clock_period_ps)
{
    fatal_if(precision_bits < 1 || precision_bits > 8,
             "CI precision must be 1..8 bits, got ", precision_bits);
    fatal_if(clock_period_ps == 0, "zero clock period");
}

Tick
SubCycleClock::delayTicks(Picos ps) const
{
    // ceil(ps * tpc / period), at least one tick, at most a cycle.
    const u64 numer = u64{ps} * ticks_per_cycle_;
    Tick t = (numer + clock_period_ps_ - 1) / clock_period_ps_;
    if (t == 0)
        t = 1;
    if (t > ticks_per_cycle_)
        t = ticks_per_cycle_;
    return t;
}

double
SubCycleClock::ticksToPs(Tick t) const
{
    return static_cast<double>(t) * clock_period_ps_ /
           static_cast<double>(ticks_per_cycle_);
}

} // namespace redsoc
