#include "core/invariant_audit.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/logging.h"
#include "core/ooo_core.h"

namespace redsoc {

const char *
invariantAuditName(InvariantAudit kind)
{
    switch (kind) {
      case InvariantAudit::RsOccupancy: return "rs-occupancy";
      case InvariantAudit::RsPendingCount: return "rs-pending-count";
      case InvariantAudit::LsqProgramOrder: return "lsq-program-order";
      case InvariantAudit::CiRange: return "ci-range";
      case InvariantAudit::EgpwLeftoverSlot: return "egpw-leftover-slot";
      case InvariantAudit::TransparentLink: return "transparent-link";
      case InvariantAudit::ReadyRsAgreement:
        return "ready-rs-agreement";
      case InvariantAudit::StorePhaseA: return "store-phase-a";
      case InvariantAudit::RingOwner: return "ring-owner";
      case InvariantAudit::NUM: break;
    }
    return "?";
}

bool
InvariantAuditor::enabledFromEnv()
{
    const char *v = std::getenv("REDSOC_AUDIT");
    return v && *v && std::string(v) != "0";
}

namespace {

AuditViolation
make(InvariantAudit kind, const std::ostringstream &os)
{
    return AuditViolation{kind, os.str()};
}

} // namespace

std::optional<AuditViolation>
InvariantAuditor::checkRsOccupancy(size_t counted, size_t recounted)
{
    if (counted == recounted)
        return std::nullopt;
    std::ostringstream os;
    os << "RS counts " << counted << " entries but " << recounted
       << " in-flight ops are InRs";
    return make(InvariantAudit::RsOccupancy, os);
}

std::optional<AuditViolation>
InvariantAuditor::checkPendingCount(SeqNum seq, unsigned recorded,
                                    unsigned recounted)
{
    if (recorded == recounted)
        return std::nullopt;
    std::ostringstream os;
    os << "op " << seq << " records " << recorded
       << " pending wakeups but " << recounted
       << " distinct producers are still in the RS";
    return make(InvariantAudit::RsPendingCount, os);
}

std::optional<AuditViolation>
InvariantAuditor::checkLsqOrder(const std::vector<SeqNum> &order)
{
    for (size_t i = 1; i < order.size(); ++i) {
        if (order[i - 1] >= order[i]) {
            std::ostringstream os;
            os << "LSQ violates program order: entry " << i - 1
               << " holds seq " << order[i - 1] << " >= entry " << i
               << " seq " << order[i];
            return make(InvariantAudit::LsqProgramOrder, os);
        }
    }
    return std::nullopt;
}

std::optional<AuditViolation>
InvariantAuditor::checkCiRange(SeqNum seq, Tick ci,
                               Tick ticks_per_cycle)
{
    if (ci < ticks_per_cycle)
        return std::nullopt;
    std::ostringstream os;
    os << "op " << seq << " has completion instant " << ci
       << " outside [0, " << ticks_per_cycle << ")";
    return make(InvariantAudit::CiRange, os);
}

std::optional<AuditViolation>
InvariantAuditor::checkEgpwLeftover(SeqNum seq, unsigned free_units)
{
    if (free_units > 0)
        return std::nullopt;
    std::ostringstream os;
    os << "EGPW grant for op " << seq
       << " with no leftover FU slot (skewed select books "
          "conventional grants first)";
    return make(InvariantAudit::EgpwLeftoverSlot, os);
}

std::optional<AuditViolation>
InvariantAuditor::checkTransparentLink(SeqNum seq, SeqNum producer,
                                       Tick producer_complete,
                                       Tick start_tick, Tick ci)
{
    std::ostringstream os;
    if (producer == kNoSeq) {
        os << "transparent op " << seq << " names no producer";
        return make(InvariantAudit::TransparentLink, os);
    }
    if (producer_complete != start_tick) {
        os << "transparent op " << seq << " starts at tick "
           << start_tick << " but its latched producer " << producer
           << " wrote back at tick " << producer_complete;
        return make(InvariantAudit::TransparentLink, os);
    }
    if (ci == 0) {
        os << "transparent op " << seq << " starts on a cycle boundary "
           << "(tick " << start_tick
           << "): nothing was recycled mid-cycle";
        return make(InvariantAudit::TransparentLink, os);
    }
    return std::nullopt;
}

std::optional<AuditViolation>
InvariantAuditor::checkReadyAgreement(SeqNum seq, unsigned pending,
                                      Cycle armed_cycle, Cycle now,
                                      bool parked, bool in_ready_set)
{
    if (pending > 0 || parked || in_ready_set)
        return std::nullopt;
    if (armed_cycle != kNeverArmed && armed_cycle > now)
        return std::nullopt;
    std::ostringstream os;
    os << "waiting op " << seq << " is unreachable at end of cycle "
       << now << ": no pending wakeup, not parked, not in a ready "
       << "set, ";
    if (armed_cycle == kNeverArmed)
        os << "never armed";
    else
        os << "last armed for past cycle " << armed_cycle;
    return make(InvariantAudit::ReadyRsAgreement, os);
}

std::optional<AuditViolation>
InvariantAuditor::checkStorePhaseA(SeqNum seq, bool in_phase_a)
{
    if (in_phase_a)
        return std::nullopt;
    std::ostringstream os;
    os << "store " << seq
       << " issued outside Phase A: its park-list wakeups would miss "
          "this cycle's select";
    return make(InvariantAudit::StorePhaseA, os);
}

std::optional<AuditViolation>
InvariantAuditor::checkRingOwner(SeqNum seq, SeqNum commit, SeqNum fetch)
{
    if (seq >= commit && seq < fetch)
        return std::nullopt;
    std::ostringstream os;
    os << "window lane accessed for op " << seq
       << " outside the in-flight window [" << commit << ", " << fetch
       << ")";
    return make(InvariantAudit::RingOwner, os);
}

void
InvariantAuditor::report(const std::optional<AuditViolation> &v)
{
    if (v)
        panic("invariant-audit [", invariantAuditName(v->kind), "] ",
              v->message);
}

void
InvariantAuditor::onCycleEnd(const OooCore &core)
{
    // The ROB is the in-flight window and the RS its InRs members.
    size_t in_rs = 0;
    for (SeqNum seq = core.commit_ptr_; seq < core.next_fetch_; ++seq)
        in_rs += core.inRs(seq) ? 1 : 0;
    report(checkRsOccupancy(core.rs_.size(), in_rs));
    core.lsq_.seqs(order_scratch_);
    report(checkLsqOrder(order_scratch_));

    if (!core.event_kernel_)
        return;
    for (SeqNum seq = core.commit_ptr_; seq < core.next_fetch_; ++seq) {
        if (!core.inRs(seq))
            continue;
        const OooCore::Slot w = core.slot(seq);
        const auto &oc = core.cold_[w];
        unsigned recount = 0;
        for (unsigned i = 0; i < oc.nprod; ++i) {
            bool dup = false;
            for (unsigned j = 0; j < i; ++j)
                dup = dup || oc.prod[j] == oc.prod[i];
            if (!dup && core.inRs(oc.prod[i]))
                ++recount;
        }
        report(checkPendingCount(seq, core.pending_[w], recount));
        const bool parked = core.armed_[w] == OooCore::kParkLoad;
        const bool in_ready =
            core.ready_.contains(w.i) || core.next_.contains(w.i);
        report(checkReadyAgreement(seq, core.pending_[w], core.armed_[w],
                                   core.cycle_, parked, in_ready));
    }
}

void
InvariantAuditor::onIssue(const OooCore &core, SeqNum seq)
{
    if (core.st_[seq] & OooCore::kIsStore)
        report(checkStorePhaseA(seq, core.in_phase_a_));
    const auto &oc = core.cold_[core.slot(seq)];
    const Tick start = oc.start_tick;
    const Tick tpc = core.clock_.ticksPerCycle();
    report(checkCiRange(seq, core.clock_.ciOf(start), tpc));
    report(checkCiRange(seq, core.clock_.ciOf(core.done_[seq]), tpc));
    if (oc.cflags & OooCore::kColdTransparent) {
        const SeqNum producer = core.lastProducer(seq);
        const Tick producer_complete =
            producer == kNoSeq ? 0 : core.done_[producer];
        report(checkTransparentLink(seq, producer, producer_complete,
                                    start,
                                    core.clock_.ciOf(start)));
    }
}

void
InvariantAuditor::onEgpwGrant(const OooCore &core, SeqNum seq,
                              unsigned free_units)
{
    (void)core;
    report(checkEgpwLeftover(seq, free_units));
}

void
InvariantAuditor::onSlot(const OooCore &core, SeqNum seq)
{
    report(checkRingOwner(seq, core.commit_ptr_, core.next_fetch_));
}

} // namespace redsoc
