/**
 * @file
 * Functional-unit pools with per-cycle occupancy accounting. Slack
 * recycling allocates an execution unit for *two* cycles when an
 * operation's transparent execution window crosses a clock boundary
 * (IT3, Sec.III), so availability is tracked per future cycle.
 * Bookings are never taken back: a granted op keeps its units.
 */

#ifndef REDSOC_CORE_FU_POOL_H
#define REDSOC_CORE_FU_POOL_H

#include <array>
#include <vector>

#include "core/core_config.h"
#include "isa/opcode.h"

namespace redsoc {

/** Physical execution-port pool an FuClass maps onto. */
enum class FuPoolKind : u8 { Alu, Simd, Fp, Mem, NUM };

FuPoolKind fuPoolKind(FuClass fc);

class FuPool
{
  public:
    explicit FuPool(const CoreConfig &config);

    /** Units of @p kind free during @p cycle. */
    unsigned freeUnits(FuPoolKind kind, Cycle cycle) const;

    /** True iff one unit of @p kind is free on every cycle of
     *  [cycle, cycle+span) — the two-cycle-hold admission check,
     *  without re-hashing the ring slot per freeUnits call. */
    bool freeSpan(FuPoolKind kind, Cycle cycle, unsigned span) const;

    /**
     * Earliest cycle >= @p from where freeSpan(kind, cycle, span)
     * holds under the *current* bookings. Because bookings only ever
     * accumulate (the pool has no release) and only for cycles inside
     * the look-ahead ring, the result is a sound lower bound on when
     * the span can actually be admitted: the event kernel parks
     * span-denied steady requesters until then instead of
     * re-evaluating them every cycle.
     */
    Cycle nextFreeSpanCycle(FuPoolKind kind, Cycle from,
                            unsigned span) const;

    /** Book one unit of @p kind for cycles [cycle, cycle+span). */
    void book(FuPoolKind kind, Cycle cycle, unsigned span = 1);

    unsigned capacity(FuPoolKind kind) const;

    /**
     * Busy-unit count during @p cycle (for the FU-stall statistic of
     * Fig.14).
     */
    unsigned busyUnits(FuPoolKind kind, Cycle cycle) const;

  private:
    static constexpr unsigned kHorizon = 64; ///< booking look-ahead

    unsigned &slot(FuPoolKind kind, Cycle cycle);
    unsigned slotConst(FuPoolKind kind, Cycle cycle) const;

    std::array<unsigned, static_cast<size_t>(FuPoolKind::NUM)> capacity_;
    /** booked_[kind][cycle % kHorizon] with cycle tags. */
    std::array<std::array<unsigned, kHorizon>,
               static_cast<size_t>(FuPoolKind::NUM)> booked_{};
    std::array<Cycle, kHorizon> cycle_tag_{};
};

} // namespace redsoc

#endif // REDSOC_CORE_FU_POOL_H
