/**
 * @file
 * Sub-cycle time bookkeeping. ReDSOC tracks each operation's
 * Completion Instant (CI) as a small fixed-point fraction of the
 * clock cycle (3 bits / eighths in the paper, Sec.IV-C; the precision
 * sweep of Sec.V motivates making it configurable). The simulator
 * keeps absolute time in "ticks" = cycles scaled by ticksPerCycle().
 */

#ifndef REDSOC_TIMING_COMPLETION_INSTANT_H
#define REDSOC_TIMING_COMPLETION_INSTANT_H

#include "common/types.h"

namespace redsoc {

class SubCycleClock
{
  public:
    /**
     * @param precision_bits CI field width in bits (1..8).
     * @param clock_period_ps physical cycle time.
     */
    SubCycleClock(unsigned precision_bits, Picos clock_period_ps);

    unsigned precisionBits() const { return precision_bits_; }
    Tick ticksPerCycle() const { return ticks_per_cycle_; }
    Picos clockPeriodPs() const { return clock_period_ps_; }

    /**
     * Conservatively quantize a physical delay to ticks (round up:
     * the latch must never close before the data is stable).
     * Clamped to at least 1 tick and at most one full cycle for
     * single-cycle operations.
     */
    Tick delayTicks(Picos ps) const;

    /** Absolute tick of the start of @p cycle. */
    Tick cycleStart(Cycle cycle) const { return cycle << precision_bits_; }

    /** Cycle containing absolute tick @p t (boundary ticks belong to
     *  the cycle they begin). */
    Cycle cycleOf(Tick t) const { return t >> precision_bits_; }

    /** CI field value: offset of @p t within its cycle. */
    Tick ciOf(Tick t) const { return t & (ticks_per_cycle_ - 1); }

    /**
     * True if an operation starting at absolute tick @p start and
     * finishing at @p end crosses a clock boundary (and therefore
     * must hold its FU for two cycles, IT3 of Sec.III).
     */
    bool
    crossesBoundary(Tick start, Tick end) const
    {
        // An op ending exactly on a boundary does not cross it.
        return cycleOf(start) != cycleOf(end == start ? end : end - 1);
    }

    /** Round @p t up to the next cycle boundary (no-op if on one). */
    Tick ceilToBoundary(Tick t) const
    {
        return (t + ticks_per_cycle_ - 1) & ~(ticks_per_cycle_ - 1);
    }

    /** Convert ticks back to picoseconds (for reporting). */
    double ticksToPs(Tick t) const;

  private:
    unsigned precision_bits_;
    Tick ticks_per_cycle_;
    Picos clock_period_ps_;
};

} // namespace redsoc

#endif // REDSOC_TIMING_COMPLETION_INSTANT_H
