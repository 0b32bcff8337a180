/**
 * @file
 * Runtime structural-invariant audit for the out-of-order core.
 *
 * The differential suites (tests/test_sched_equiv.cc, the fuzzing
 * harness in tools/fuzz/) compare whole-run statistics post-hoc; this
 * checker asserts the structural invariants *inside* the run, at the
 * cycle boundaries where they must hold, so a violation aborts at the
 * first corrupt cycle instead of surfacing thousands of cycles later
 * as a checksum mismatch:
 *
 *   rs-occupancy         The RS occupancy counter equals the number
 *                        of InRs ops in the in-flight window.
 *   rs-pending-count     Event kernel: every waiting entry's pending
 *                        wakeup count equals a recount of its distinct
 *                        producers still in the RS.
 *   lsq-program-order    LSQ contents are strictly program-ordered.
 *   ci-range             Every issued op's sub-cycle completion
 *                        instant lies in [0, ticksPerCycle).
 *   egpw-leftover-slot   An EGPW grant only ever consumes a leftover
 *                        FU slot (skewed select: conventional grants
 *                        book first).
 *   transparent-link     A transparent (recycled) start names a
 *                        producer whose writeback tick is exactly the
 *                        consumer's start tick, strictly inside the
 *                        arrival cycle.
 *   ready-rs-agreement   Event kernel liveness: at a cycle boundary
 *                        every waiting RS entry is reachable by some
 *                        future event — a pending producer broadcast,
 *                        a live future arm, membership in the ready
 *                        or next-cycle set, or the parked-load list.
 *   store-phase-a        A store issues only in Phase A (conventional
 *                        select): EGPW's evalEager rejects memory ops
 *                        and MOS fusion needs a slack-eligible op. So
 *                        a store's park-list wakeups always run while
 *                        the Phase-A cursor is live, and a woken load
 *                        re-enters the ready set the same cycle.
 *   ring-owner           Every window-lane slot (a ring of
 *                        bit_ceil(rob_entries) slots at seq & mask,
 *                        OooCore::slot) is taken for an in-flight op,
 *                        seq in [commit, fetch). A slot-aliasing bug
 *                        hits both kernels alike, so Scan == Event
 *                        cannot catch it; this check can.
 *
 * The audit is debug-gated: OooCore reads REDSOC_AUDIT=1 from the
 * environment once at construction, and a disabled audit costs one
 * predictable branch per cycle (and per slot() call for
 * ring-owner). Each check is a pure static function
 * returning the violation (if any) so unit tests can corrupt inputs
 * directly and assert the exact failure message without death tests;
 * the member hooks gather real core state and panic on a violation.
 */

#ifndef REDSOC_CORE_INVARIANT_AUDIT_H
#define REDSOC_CORE_INVARIANT_AUDIT_H

#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace redsoc {

class OooCore;

/** The invariant catalogue (DESIGN.md §11). */
enum class InvariantAudit : u8 {
    RsOccupancy,
    RsPendingCount,
    LsqProgramOrder,
    CiRange,
    EgpwLeftoverSlot,
    TransparentLink,
    ReadyRsAgreement,
    StorePhaseA,
    RingOwner,
    NUM,
};

const char *invariantAuditName(InvariantAudit kind);

/** A failed check: which invariant, and a human-readable account. */
struct AuditViolation
{
    InvariantAudit kind = InvariantAudit::NUM;
    std::string message;
};

class InvariantAuditor
{
  public:
    /** "armed at no cycle" sentinel, mirrors OooCore::kNoCycle. */
    static constexpr Cycle kNeverArmed = ~Cycle{0};

    /** True iff REDSOC_AUDIT is set to a non-empty, non-"0" value. */
    static bool enabledFromEnv();

    // --- Pure checks (unit-testable without a core) -----------------

    /** rs-occupancy: the RS counter equals the InRs recount. */
    static std::optional<AuditViolation>
    checkRsOccupancy(size_t counted, size_t recounted);

    /** rs-pending-count: recorded pending == producer recount. */
    static std::optional<AuditViolation>
    checkPendingCount(SeqNum seq, unsigned recorded, unsigned recounted);

    /** lsq-program-order: @p order strictly ascending. */
    static std::optional<AuditViolation>
    checkLsqOrder(const std::vector<SeqNum> &order);

    /** ci-range: @p ci < @p ticks_per_cycle. */
    static std::optional<AuditViolation>
    checkCiRange(SeqNum seq, Tick ci, Tick ticks_per_cycle);

    /** egpw-leftover-slot: a grant needs @p free_units > 0. */
    static std::optional<AuditViolation>
    checkEgpwLeftover(SeqNum seq, unsigned free_units);

    /** transparent-link: @p producer exists and wrote back exactly at
     *  the consumer's @p start_tick, strictly mid-cycle (ci != 0). */
    static std::optional<AuditViolation>
    checkTransparentLink(SeqNum seq, SeqNum producer,
                         Tick producer_complete, Tick start_tick,
                         Tick ci);

    /** ready-rs-agreement: a waiting entry must have @p pending > 0,
     *  a live arm strictly after @p now, sit in the ready or
     *  next-cycle set (walked next cycle), or be parked. */
    static std::optional<AuditViolation>
    checkReadyAgreement(SeqNum seq, unsigned pending, Cycle armed_cycle,
                        Cycle now, bool parked, bool in_ready_set);

    /** store-phase-a: a store issued with @p in_phase_a set. */
    static std::optional<AuditViolation>
    checkStorePhaseA(SeqNum seq, bool in_phase_a);

    /** ring-owner: a window-lane access for @p seq lies in the
     *  in-flight window [@p commit, @p fetch). */
    static std::optional<AuditViolation>
    checkRingOwner(SeqNum seq, SeqNum commit, SeqNum fetch);

    // --- Core hooks (friend access; defined in the .cc) -------------

    /** End-of-cycle sweep: structure order, pending counts, liveness. */
    void onCycleEnd(const OooCore &core);
    /** Issue-time checks for one granted candidate. */
    void onIssue(const OooCore &core, SeqNum seq);
    /** EGPW grant-time check (called before the unit is booked). */
    void onEgpwGrant(const OooCore &core, SeqNum seq,
                     unsigned free_units);
    /** Window-lane slot check (every OooCore::slot call); reads only
     *  the core's window, so OooCore may call it as a pure function. */
    static void onSlot(const OooCore &core, SeqNum seq);

  private:
    /** Panic with the audit tag if @p v holds a violation. */
    static void report(const std::optional<AuditViolation> &v);

    std::vector<SeqNum> order_scratch_;
};

} // namespace redsoc

#endif // REDSOC_CORE_INVARIANT_AUDIT_H
