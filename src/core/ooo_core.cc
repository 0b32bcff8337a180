#include "core/ooo_core.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <sstream>

#include "common/logging.h"
#include "common/shutdown.h"
#include "sim/profile.h"

namespace redsoc {

namespace {

std::string
deadlockMessage(Cycle cycle, SeqNum committed, SeqNum total)
{
    std::ostringstream os;
    os << "no commit progress at cycle " << cycle << " (committed "
       << committed << "/" << total << ")";
    return os.str();
}

} // namespace

DeadlockError::DeadlockError(Cycle cycle, SeqNum committed, SeqNum total)
    : std::runtime_error(deadlockMessage(cycle, committed, total)),
      cycle_(cycle)
{
}

StatGroup
toStatGroup(const CoreStats &stats, const std::string &name)
{
    StatGroup group(name);
    forEachLeaf(stats, [&group](const std::string &path, const auto &v) {
        if constexpr (std::is_arithmetic_v<std::decay_t<decltype(v)>>)
            group.recordScalar(path, static_cast<double>(v));
    });
    group.recordScalar("ipc", stats.ipc());
    group.recordScalar("fu_stall_rate", stats.fuStallRate());
    group.recordScalar("la_mispredict_rate", stats.laMispredictRate());
    group.recordScalar("width_aggressive_rate",
                       stats.widthAggressiveRate());
    group.recordScalar("branch_mispredict_rate",
                       stats.branchMispredictRate());
    group.recordScalar("sim_mips", stats.simMips());
    return group;
}

OooCore::OooCore(CoreConfig config)
    : config_(checkedConfig(std::move(config), "core")),
      clock_(config_.ci_precision_bits, config_.timing.clock_period_ps),
      timing_(config_.timing),
      lut_(timing_, clock_),
      memory_(config_.memory),
      branch_pred_(config_.branch_pred),
      width_pred_(config_.width_pred),
      la_pred_(config_.last_arrival),
      lsq_(config_.lsq_entries),
      rs_(config_.rs_entries),
      fu_(config_),
      chains_(config_.rob_entries)
{
    event_kernel_ = config_.sched_kernel == SchedKernel::Event;
    audit_on_ = InvariantAuditor::enabledFromEnv();
    // The EGPW candidate set only exists where a separate Phase-B
    // scan does: skewed selection. The non-skewed ablation evaluates
    // EGPW inline in Phase A on the same ready set.
    collect_eager_ = event_kernel_ &&
                     config_.mode == SchedMode::ReDSOC && config_.egpw &&
                     config_.skewed_select;
    wake_eval_ = event_kernel_ &&
                 !(config_.mode == SchedMode::ReDSOC && config_.egpw &&
                   !config_.skewed_select);

    // Window lanes and candidate-set rings sized for the in-flight
    // window, and every per-cycle scratch vector reserved up front:
    // the scheduler loops must never allocate (redsoc_lint R8
    // hot-alloc).
    const size_t slots = std::bit_ceil(size_t{config_.rob_entries});
    ring_mask_ = slots - 1;
    cls_.allocate(slots);
    pending_.allocate(slots);
    gate_.allocate(slots);
    armed_.allocate(slots);
    cold_.allocate(slots);
    park_head_.allocate(slots);
    park_next_.allocate(slots);
    cons_edges_ = std::make_unique_for_overwrite<ConsumerEdge[]>(
        kMaxProducers * slots);
    ready_.configure(slots);
    next_.configure(slots);
    eager_.configure(slots);
    conv_grants_.reserve(config_.rs_entries);
}

size_t
OooCore::ringAudit(SeqNum seq) const
{
    InvariantAuditor::onSlot(*this, seq);
    return 0;
}

bool
OooCore::widthSensitive(const Inst &inst) const
{
    // Only carry-chain (arithmetic) operations have width-dependent
    // delay; logic and move/shift rows of the LUT collapse widths.
    return aluKind(inst.op) == AluKind::Arith;
}

void
OooCore::buildInstMeta(const Program &program)
{
    meta_.resize(program.size());
    lut_ticks_.resize(program.size());
    for (u32 pc = 0; pc < program.size(); ++pc) {
        const Inst &inst = program.inst(pc);
        InstMeta m;

        const bool is_mem = isMem(inst.op);
        const bool is_halt = inst.op == Opcode::HALT;
        const bool needs_rs = !is_halt && inst.op != Opcode::B &&
                              inst.op != Opcode::BL &&
                              inst.op != Opcode::RET;
        u8 flags = 0;
        if (is_mem)
            flags |= kMetaMem;
        if (is_halt)
            flags |= kMetaHalt;
        if (needs_rs)
            flags |= kMetaNeedsRs;
        if (isSimd(inst.op))
            flags |= kMetaSimd;
        if (widthSensitive(inst))
            flags |= kMetaWidthSens;
        m.flags = flags;

        u8 seed = 0;
        if (TimingModel::isSlackEligible(inst.op))
            seed |= kEligible;
        if (isLoad(inst.op))
            seed |= kIsLoad;
        if (isStore(inst.op))
            seed |= kIsStore;
        if (isBranch(inst.op))
            seed |= kIsBranch;
        m.seed = seed;

        // Frontend-resolved ops never touch a pool: fuPoolKind(None)
        // is a modelling error by contract, so pin them to Alu|None.
        const FuClass fu = needs_rs ? fuClass(inst.op) : FuClass::None;
        m.cls = needs_rs ? packCls(fuPoolKind(fu), fu)
                         : packCls(FuPoolKind::Alu, FuClass::None);
        m.mem_size =
            is_mem ? static_cast<u8>(memAccessSize(inst.op)) : u8{0};
        m.src = inst.sources();
        m.dst = inst.destination();
        meta_[pc] = m;

        // EX-TIME per width class: the LUT at decode reads it for the
        // predicted class, a width replay for the actual one.
        lut_ticks_[pc] = {};
        if (seed & kEligible)
            for (u8 wc = 0; wc < lut_ticks_[pc].size(); ++wc)
                // Bounded by ticksPerCycle <= 2^ci_precision_bits, so
                // 16 bits are exact. redsoc-lint: allow(cycle-narrow)
                lut_ticks_[pc][wc] = static_cast<u16>(
                    // redsoc-lint: allow(cycle-narrow)
                    lut_.lookupTicks(inst, static_cast<WidthClass>(wc)));
    }
}

SeqNum
OooCore::lastProducer(SeqNum seq) const
{
    const OpCold &oc = cold_[slot(seq)];
    SeqNum last = kNoSeq;
    Tick best = 0;
    for (unsigned i = 0; i < oc.nprod; ++i) {
        const SeqNum p = oc.prod[i];
        if (last == kNoSeq || done_[p] >= best) {
            best = done_[p];
            last = p;
        }
    }
    return last;
}

Tick
OooCore::producersComplete(SeqNum seq) const
{
    const OpCold &oc = cold_[slot(seq)];
    Tick t = 0;
    for (unsigned i = 0; i < oc.nprod; ++i)
        t = std::max(t, done_[oc.prod[i]]);
    return t;
}

Cycle
OooCore::selGate(SeqNum seq) const
{
    const OpCold &oc = cold_[slot(seq)];
    Cycle gate = oc.dispatch_cycle + 1;
    for (unsigned i = 0; i < oc.nprod; ++i)
        gate = std::max(gate, sel_[oc.prod[i]] + 1);
    return gate;
}

u16
OooCore::recordFlags(const InstMeta &m)
{
    u16 f = 0;
    if (m.flags & kMetaMem)
        f |= kOpMem;
    if (m.seed & kIsLoad)
        f |= kOpLoad;
    if (m.seed & kIsStore)
        f |= kOpStore;
    if (m.seed & kIsBranch)
        f |= kOpBranch;
    if (m.seed & kEligible)
        f |= kOpEligible;
    if (!(m.flags & kMetaNeedsRs))
        f |= kOpFrontendResolved;
    return f;
}

void
OooCore::emitIssue(const Candidate &cand)
{
    // Every input below is part of the committed schedule, so both
    // scheduler kernels report identical issues.
    const SeqNum seq = cand.seq;
    const OpCold &oc = cold_[slot(seq)];
    IssueRecord op;
    op.seq = seq;
    op.select = clock_.cycleStart(cycle_);
    op.start = oc.start_tick;
    op.done = done_[seq];
    op.prod = oc.prod.data();
    op.nprod = oc.nprod;
    // The entry's conventional wakeup cycle is the select gate; an
    // EGPW grant (and a MOS fusion) is woken in the grant cycle
    // itself.
    op.wake = clock_.cycleStart(cand.speculative
                                    ? cycle_
                                    : std::min(selGate(seq), cycle_));
    op.last = lastProducer(seq);
    op.speculative = cand.speculative;
    op.transparent = (oc.cflags & kColdTransparent) != 0;
    op.width_replayed = (oc.cflags & kColdWidthReplayed) != 0;
    recorder_->issue(op);
}

void
OooCore::dispatchPhase(const Trace &trace)
{
    if (fetch_blocked_on_ != kNoSeq) {
        if (!issued(fetch_blocked_on_))
            return; // mispredicted branch not resolved yet
        // The redirect starts at the clock edge after the cycle in
        // which resolution finished (a boundary-tick completion
        // belongs to the cycle it ends, hence the -1).
        fetch_stall_until_ =
            clock_.cycleOf(done_[fetch_blocked_on_] - 1) + 1 +
            config_.redirect_penalty;
        fetch_blocked_on_ = kNoSeq;
    }
    if (cycle_ < fetch_stall_until_)
        return;

    for (unsigned k = 0; k < config_.frontend_width; ++k) {
        if (next_fetch_ >= trace.size())
            return;
        const DynOp &dyn = dyn_[next_fetch_];
        const InstMeta &m = meta_[dyn.pc];
        const bool is_mem = (m.flags & kMetaMem) != 0;
        const bool needs_rs = (m.flags & kMetaNeedsRs) != 0;

        if (robFull())
            return;
        if (needs_rs && rs_.full())
            return;
        if (is_mem && lsq_.full())
            return;

        const SeqNum seq = next_fetch_++;
        observe([&](auto &h) {
            h.dispatch(seq, clock_.cycleStart(cycle_), recordFlags(m),
                       static_cast<u8>(m.cls & kClsPoolMask));
        });

        const Slot w = slot(seq);

        // Direct unconditional control flow is resolved entirely in
        // the front end (target known at decode, RAS for returns):
        // it occupies a ROB slot but no RS entry or execution port.
        if (!needs_rs) {
            st_[seq] = kStDone | (m.seed & kIsBranch);
            cls_[w] = packCls(FuPoolKind::Alu, FuClass::None);
            sel_[seq] = cycle_;
            OpCold &oc = cold_[w];
            oc = kFreshCold;
            oc.dispatch_cycle = cycle_;
            oc.start_tick = clock_.cycleStart(cycle_ + 1);
            done_[seq] = oc.start_tick;
            // Frontend-resolved: no RS life, straight to writeback.
            observe([&](auto &h) { h.frontendWriteback(seq, done_[seq]); });
            if (m.seed & kIsBranch) {
                // Rename the link register and predict as usual.
                if (m.dst != kNoReg)
                    rat_.setWriter(m.dst, seq);
                ++stats_.branch_lookups;
                oc.predicted_next = branch_pred_.predict(
                    dyn.pc, trace.inst(seq), dyn.pc + 1);
                if (oc.predicted_next != trace.nextPc(seq)) {
                    oc.cflags |= kColdBranchMispred;
                    fetch_blocked_on_ = seq;
                    return;
                }
            }
            continue;
        }

        const Inst &inst = trace.inst(seq);
        st_[seq] = kStInRs | m.seed;
        cls_[w] = m.cls;
        gate_[w] = cycle_ + 1;
        armed_[w] = kNoCycle;
        pending_[w] = 0;
        OpCold &oc = cold_[w];
        oc = kFreshCold;
        oc.dispatch_cycle = cycle_;

        // Rename: derive true dependencies and claim the destination.
        for (RegIdx r : m.src) {
            if (r == kNoReg)
                break; // sources are compacted
            const SeqNum writer = rat_.writer(r);
            if (writer != kNoSeq)
                oc.prod[oc.nprod++] = writer;
        }
        if (m.dst != kNoReg)
            rat_.setWriter(m.dst, seq);

        // EX-TIME estimate (Sec.IV-C step 5): LUT at decode, using
        // the predicted width class for width-sensitive scalar ops.
        if (m.seed & kEligible) {
            if ((m.flags & (kMetaSimd | kMetaWidthSens)) ==
                kMetaWidthSens) {
                oc.pred_wc = width_pred_.predict(dyn.pc);
                oc.actual_wc = classifyWidth(dyn.eff_width);
                oc.cflags |= kColdWidthPredicted;
                ++stats_.width_predictions;
            }
            oc.est_ticks =
                lut_ticks_[dyn.pc][static_cast<u8>(oc.pred_wc)];
        }

        // Operational design: predict the last-arriving parent for
        // two-source slack-eligible ops.
        if (config_.rs_design == RsDesign::Operational &&
            (m.seed & kEligible) && oc.nprod == 2) {
            oc.pred_last_slot =
                static_cast<u8>(la_pred_.predict(dyn.pc));
            ++stats_.la_predictions;
        }

        if (m.seed & kIsBranch) {
            ++stats_.branch_lookups;
            oc.predicted_next =
                branch_pred_.predict(dyn.pc, inst, dyn.pc + 1);
            if (oc.predicted_next != trace.nextPc(seq))
                oc.cflags |= kColdBranchMispred;
        }

        rs_.insert();
        if (is_mem) {
            lsq_.dispatch(seq, (m.seed & kIsStore) != 0);
            st_[seq] |= kInLsq;
            park_head_[w] = kNoSeq;
            park_next_[w] = kNoSeq;
        }

        if (event_kernel_) {
            // Wire the wakeup network: one consumer edge per distinct
            // producer still waiting in the RS. An op whose producers
            // are all already scheduled self-arms for its first
            // eligible cycle (dispatch_cycle + 1).
            u8 pending = 0;
            for (unsigned i = 0; i < oc.nprod; ++i) {
                bool dup = false;
                for (unsigned j = 0; j < i; ++j)
                    dup = dup || oc.prod[j] == oc.prod[i];
                if (dup)
                    continue;
                const SeqNum p = oc.prod[i];
                if (!inRs(p))
                    continue;
                const u32 e =
                    static_cast<u32>(kMaxProducers * w.i + pending++);
                cons_edges_[e] = {seq, kNoEdge};
                OpCold &pcold = cold_[slot(p)];
                if (pcold.cons_tail == kNoEdge)
                    pcold.cons_head = e;
                else
                    cons_edges_[pcold.cons_tail].next = e;
                pcold.cons_tail = e;
            }
            pending_[w] = pending;
            if (pending == 0)
                ready_.insert(w.i); // walked next cycle
        }

        if (oc.cflags & kColdBranchMispred) {
            // Everything younger is wrong-path until this resolves.
            fetch_blocked_on_ = seq;
            return;
        }
    }
}

bool
OooCore::evalConventional(SeqNum seq, Candidate &cand, Cycle *next_try)
{
    const u8 st = st_[seq];
    if ((st & kStMask) != kStInRs)
        return false;
    const Slot w = slot(seq);
    // gate_ folds max(dispatch_cycle + 1, LA-replay retry cycle).
    if (cycle_ < gate_[w]) {
        if (next_try)
            *next_try = gate_[w];
        return false;
    }

    // A steady requester (kReadyConv) already passed every monotone
    // check below on the cycle it was first denied an FU: producers
    // stay issued, the LA validation latched, the select gate and the
    // data boundary only recede into the past. Re-running them every
    // cycle is the single hottest redundancy in ILP-dense workloads,
    // so the fast path skips straight to the (cycle-dependent)
    // completion shaping.
    const bool steady = (st & kReadyConv) != 0;
    const bool maybe_transparent =
        config_.mode == SchedMode::ReDSOC && (st & kEligible);
    OpCold &oc = cold_[w];
    if (!steady) {
        for (unsigned i = 0; i < oc.nprod; ++i) {
            if (!issued(oc.prod[i]))
                return false;
        }

        // Operational design: validate the last-arrival prediction
        // once all producers are scheduled. A wrong prediction means
        // the entry woke on the wrong tag and replays (Sec.IV-C).
        if (!(oc.cflags & kColdLaChecked) && oc.pred_last_slot != 0xff) {
            oc.cflags |= kColdLaChecked;
            auto gate_of = [&](SeqNum p) {
                const Cycle structural = sel_[p] + 1;
                const Cycle data_cycle =
                    clock_.cycleOf(clock_.ceilToBoundary(done_[p]));
                return std::max(structural,
                                data_cycle == 0 ? 0 : data_cycle - 1);
            };
            Cycle pred_ready =
                std::max(oc.dispatch_cycle + 1,
                         gate_of(oc.prod[oc.pred_last_slot]));
            Cycle true_ready = oc.dispatch_cycle + 1;
            for (unsigned i = 0; i < oc.nprod; ++i)
                true_ready = std::max(true_ready, gate_of(oc.prod[i]));
            // The scoreboard validation (Sec.IV-C): the prediction is
            // correct iff the other operand was already available when
            // the predicted-last tag woke the entry.
            const bool correct = pred_ready >= true_ready;
            la_pred_.recordOutcome(correct);
            if (!correct) {
                ++stats_.la_mispredictions;
                observe([&](auto &h) { h.laReplay(seq); });
                // Woke early on the wrong tag: replay penalty.
                // true_ready >= dispatch_cycle + 1, so the gate fold
                // stays valid.
                static constexpr Cycle kLaReplayPenalty = 2;
                gate_[w] = true_ready + kLaReplayPenalty;
                if (next_try)
                    *next_try = gate_[w];
                return false;
            }
        }

        const Cycle sg = selGate(seq);
        if (cycle_ < sg) {
            if (next_try) {
                // Fold the data bound into the structural re-arm: the
                // first cycle whose *evaluation* can request is known
                // now (the LA validation above has latched, so every
                // cycle in between fails either this check or the
                // data check below with no side effect). An eligible
                // op still lands on c_data - 1 to test transparency.
                Cycle t = sg;
                const Tick producers_t = producersComplete(seq);
                if (producers_t > clock_.cycleStart(sg + 1)) {
                    const Cycle c_data =
                        clock_.cycleOf(clock_.ceilToBoundary(producers_t)) - 1;
                    const Cycle c_try =
                        (maybe_transparent && clock_.ciOf(producers_t) != 0)
                            ? c_data - 1
                            : c_data;
                    t = std::max(sg, c_try);
                }
                *next_try = t;
                // The re-arm cycle is chosen so every monotone check
                // above — and, for a non-eligible op, the data bound
                // too — is already proven there: promote to steady so
                // the next evaluation takes the fast path.
                st_[seq] |= kReadyConv;
            }
            return false;
        }
    }

    const Tick arrival = clock_.cycleStart(cycle_ + 1);

    bool transparent = false;
    Tick start = arrival;
    if (steady && !maybe_transparent) {
        // Data availability was proven at the first full evaluation
        // (producers_t <= that cycle's earlier arrival), and without
        // recycling eligibility the start is always the boundary.
    } else {
        const Tick producers_t = producersComplete(seq);
        if (producers_t <= arrival) {
            start = arrival;
        } else if (maybe_transparent &&
                   canRecycle(producers_t, arrival, clock_,
                              cur_threshold_)) {
            start = producers_t;
            transparent = true;
        } else {
            if (next_try) {
                // Data arrives by the boundary entering c_data; the
                // one cycle in which the producer's mid-cycle
                // completion can be recycled (arrival < completion <
                // arrival + period) is c_data - 1, so an eligible
                // consumer re-evaluates there first to test the
                // (possibly dynamic) threshold.
                const Cycle c_data =
                    clock_.cycleOf(clock_.ceilToBoundary(producers_t)) - 1;
                Cycle t = c_data;
                if (maybe_transparent && clock_.ciOf(producers_t) != 0 &&
                    cycle_ < c_data - 1)
                    t = c_data - 1;
                *next_try = t;
                st_[seq] |= kReadyConv; // proven at t: see above
            }
            return false;
        }
    }

    if ((st & kIsLoad) && lsq_.olderStoreUnresolved(seq)) {
        if (next_try)
            *next_try = kParkLoad;
        return false;
    }

    cand.seq = seq;
    cand.speculative = false;
    cand.recycle_ok = true;
    fillCompletion(cand, seq, arrival, start, transparent);
    return true;
}

void
OooCore::fillCompletion(Candidate &cand, SeqNum seq, Tick arrival,
                        Tick start, bool transparent)
{
    const Tick tpc = clock_.ticksPerCycle();
    const u8 st = st_[seq];
    cand.start = start;
    cand.transparent = transparent;

    if (st & (kIsLoad | kIsStore)) {
        // Real completion computed at issue (cache side effects).
        cand.start = arrival;
        cand.transparent = false;
        cand.complete = arrival; // placeholder
        cand.span = 1;
        return;
    }

    if (!(st & kEligible)) {
        const FuClass fu = fuOf(seq);
        const unsigned lat = fuLatency(fu);
        cand.start = arrival;
        cand.transparent = false;
        cand.complete = arrival + Tick{lat} * tpc;
        cand.span = fuPipelined(fu) ? 1 : lat;
        return;
    }

    // Slack-eligible single-cycle operation.
    if (config_.mode != SchedMode::ReDSOC) {
        cand.start = arrival;
        cand.transparent = false;
        cand.complete = arrival + tpc;
        cand.span = 1;
        return;
    }

    OpCold &oc = cold_[slot(seq)];
    if ((oc.cflags & kColdWidthPredicted) && oc.actual_wc > oc.pred_wc) {
        // Aggressive width misprediction, detected at execute:
        // conservative re-execution from the next boundary
        // (selective-reissue recovery, Sec.II-B).
        const Tick est =
            lut_ticks_[dyn_[seq].pc][static_cast<u8>(oc.actual_wc)];
        cand.start = arrival;
        cand.transparent = false;
        cand.complete = arrival + tpc + est;
        cand.span = 2;
        oc.cflags |= kColdWidthReplayed;
        return;
    }

    cand.complete = start + oc.est_ticks;
    cand.span = clock_.crossesBoundary(start, cand.complete) ? 2 : 1;
}

bool
OooCore::evalEager(SeqNum seq, Candidate &cand)
{
    const u8 st = st_[seq];
    if ((st & kStMask) != kStInRs || !(st & kEligible))
        return false;
    const Slot w = slot(seq);
    if (cycle_ < gate_[w])
        return false;
    const OpCold &oc = cold_[w];
    if (oc.nprod == 0)
        return false;
    if (st & (kIsLoad | kIsStore))
        return false;

    for (unsigned i = 0; i < oc.nprod; ++i) {
        if (!issued(oc.prod[i]))
            return false;
    }

    const SeqNum parent = lastProducer(seq);

    // The EGPW window: the (last-arriving) parent was granted this
    // very cycle, so the child's conventional wakeup is one cycle
    // away, but the grandparent broadcast (last cycle) can wake it.
    if (sel_[parent] != cycle_ || stateOf(parent) != St::Done)
        return false;
    const OpCold &pc = cold_[slot(parent)];
    if (pc.nprod == 0)
        return false; // no grandparent tags ever broadcast
    for (unsigned i = 0; i < pc.nprod; ++i) {
        // Grandparents must have broadcast in an earlier cycle.
        if (sel_[pc.prod[i]] >= cycle_)
            return false;
    }
    // Other parents must have been scheduled before this cycle too
    // (their tags cannot have woken the entry yet otherwise).
    for (unsigned i = 0; i < oc.nprod; ++i) {
        if (oc.prod[i] != parent && sel_[oc.prod[i]] >= cycle_)
            return false;
    }

    if (config_.rs_design == RsDesign::Operational) {
        // The single tracked parent tag must be the actual last
        // arriver, and the grandparent tag (the parent's predicted
        // last parent) must be the parent's actual last producer.
        if (oc.pred_last_slot != 0xff &&
            oc.prod[oc.pred_last_slot] != parent)
            return false;
        if (pc.nprod >= 2) {
            const SeqNum actual_gp = lastProducer(parent);
            const SeqNum predicted_gp =
                pc.pred_last_slot != 0xff ? pc.prod[pc.pred_last_slot]
                                          : actual_gp;
            if (predicted_gp != actual_gp)
                return false;
        }
    }

    const Tick arrival = clock_.cycleStart(cycle_ + 1);
    const Tick producers_t = producersComplete(seq);

    cand.seq = seq;
    cand.speculative = true;
    cand.recycle_ok = canRecycle(producers_t, arrival, clock_,
                                 cur_threshold_);
    if (cand.recycle_ok)
        fillCompletion(cand, seq, arrival, producers_t, true);
    else
        cand.span = 1;
    return true;
}

void
OooCore::issueOp(const Candidate &cand)
{
    const SeqNum seq = cand.seq;
    panic_if(!inRs(seq), "issue of op not in RS");
    setState(seq, St::Done);
    sel_[seq] = cycle_;
    const Slot w = slot(seq);
    OpCold &oc = cold_[w];
    oc.start_tick = cand.start;
    done_[seq] = cand.complete;
    if (cand.transparent)
        oc.cflags |= kColdTransparent;
    rs_.remove();
    if (event_kernel_) {
        // It may be resident (Phase-A retention), armed for the next
        // cycle, or woken for Phase B: no set keeps a stale member.
        ready_.erase(w.i);
        next_.erase(w.i);
        eager_.erase(w.i);
    }

    const u8 st = st_[seq];
    if (st & (kIsLoad | kIsStore))
        done_[seq] = memCompleteTick(seq, cand.start);

    // Predictors train at execute, where operand values (and the
    // actual arrival order) become visible.
    if (oc.cflags & kColdWidthPredicted) {
        if (oc.actual_wc > oc.pred_wc)
            ++stats_.width_aggressive;
        else if (oc.actual_wc < oc.pred_wc)
            ++stats_.width_conservative;
        width_pred_.update(dyn_[seq].pc, oc.actual_wc);
    }
    if (oc.pred_last_slot != 0xff) {
        const Tick t0 = done_[oc.prod[0]];
        const Tick t1 = done_[oc.prod[1]];
        la_pred_.update(dyn_[seq].pc, t1 > t0 ? 1 : 0);
        if (!(oc.cflags & kColdLaChecked)) {
            // EGPW-issued: the tracked tag was verified to be the
            // actual last arriver on the eager path.
            oc.cflags |= kColdLaChecked;
            la_pred_.recordOutcome(true);
        }
    }

    if (st & kInLsq) {
        const DynOp &dyn = dyn_[seq];
        lsq_.resolve(seq, dyn.mem_addr, meta_[dyn.pc].mem_size,
                     done_[seq]);
    }

    if (cand.transparent) {
        ++stats_.recycled_ops;
        stats_.slack_recycled_ticks +=
            clock_.ceilToBoundary(cand.start) - cand.start;
        chains_.onExtend(lastProducer(seq), seq);
    } else if ((st & kEligible) && config_.mode == SchedMode::ReDSOC) {
        chains_.onRoot(seq);
    }
    if (cand.span == 2 && (st & kEligible) &&
        !(oc.cflags & kColdWidthReplayed))
        ++stats_.two_cycle_holds;

    if (recorder_)
        emitIssue(cand);
    if (audit_on_)
        audit_.onIssue(*this, seq);

    if (event_kernel_)
        broadcastWakeup(seq);
}

void
OooCore::armAt(SeqNum seq, Cycle c)
{
    armed_[slot(seq)] = c;
    wake_pq_.emplace(c, seq);
}

void
OooCore::scheduleEval(SeqNum seq)
{
    const Slot w = slot(seq);
    // A newly-woken entry is an EGPW candidate this same cycle (its
    // last parent was granted this cycle).
    if (collect_eager_)
        eager_.insert(w.i);
    if (!(in_phase_a_ && wake_eval_)) {
        // Inside Phase A (interleaved EGPW): the waker is older, so
        // the cursor has not reached this entry yet and it is
        // evaluated this cycle, where the scan kernel's full pass
        // would visit it. After Phase A: next cycle's walk.
        ready_.insert(w.i);
        return;
    }
    // Evaluate now what the walk would evaluate later this cycle. The
    // waker was selected this cycle, so selGate is at least the next
    // cycle and the evaluation stops there, before the LSQ and FU
    // checks: it cannot request. Every input it reads is final (all
    // producers have issued), and what it writes (the LA outcome,
    // this entry's gate and steady bit) nothing else reads before the
    // entry's own next evaluation.
    Candidate cand;
    Cycle next_try = kNoCycle;
    const bool requested = evalConventional(seq, cand, &next_try);
    panic_if(requested || next_try <= cycle_ || next_try >= kParkLoad,
             "woken entry evaluated to a request or no re-arm");
    if (next_try == cycle_ + 1)
        next_.insert(w.i);
    else
        armAt(seq, next_try);
}

void
OooCore::broadcastWakeup(SeqNum seq)
{
    prof::ScopedTimer wt(prof::Phase::Wakeup, profiling_);
    const Slot w = slot(seq);
    const OpCold &oc = cold_[w];
    for (u32 e = oc.cons_head; e != kNoEdge; e = cons_edges_[e].next) {
        const SeqNum cseq = cons_edges_[e].consumer;
        if (--pending_[slot(cseq)] == 0)
            scheduleEval(cseq);
    }
    // A store resolving its address unblocks exactly the loads parked
    // on it (memory-order wakeup rides the same broadcast port). A
    // woken load still blocked by a different older store re-parks on
    // that blocker. Stores issue only in Phase A (evalEager rejects
    // memory ops, and MOS fusion needs a slack-eligible op), so each
    // woken load is younger than the running Phase-A cursor: it
    // re-enters the ready set ahead of it and is evaluated this
    // cycle, where its request may be granted. The audit's
    // store-phase-a check (REDSOC_AUDIT=1) holds both kernels to it.
    if (st_[seq] & kIsStore) {
        for (SeqNum l = park_head_[w]; l != kNoSeq;
             l = park_next_[slot(l)])
            if (inRs(l)) {
                const Slot lw = slot(l);
                ready_.insert(lw.i);
                armed_[lw] = cycle_; // no longer parked
            }
        park_head_[w] = kNoSeq;
    }
}

void
OooCore::drainWakeQueue()
{
    // Arms made inside last cycle's Phase A for this one (fastForward
    // never jumps over a pending next-cycle arm). Their ops are still
    // waiting: issueOp takes an op out of every set.
    if (!next_.empty())
        ready_.take(next_);
    while (!wake_pq_.empty() && wake_pq_.top().first <= cycle_) {
        const auto [c, seq] = wake_pq_.top();
        wake_pq_.pop();
        if (!inRs(seq) || armed_[slot(seq)] != c)
            continue; // stale arm (issued, or re-armed since)
        ready_.insert(slot(seq).i);
    }
}

Tick
OooCore::memCompleteTick(SeqNum seq, Tick arrival)
{
    const Tick tpc = clock_.ticksPerCycle();
    const DynOp &dyn = dyn_[seq];

    if (st_[seq] & kIsStore) {
        ++stats_.stores;
        memory_.access(dyn.pc, dyn.mem_addr, true, cycle_);
        return arrival + tpc;
    }

    ++stats_.loads;
    const unsigned size = meta_[dyn.pc].mem_size;
    const auto fwd = lsq_.forwardFrom(seq, dyn.mem_addr, size);
    if (fwd && fwd->full_cover) {
        ++stats_.store_forwards;
        const Tick ready =
            std::max(arrival, clock_.ceilToBoundary(fwd->store_complete));
        return ready + Tick{config_.memory.l1_latency} * tpc;
    }

    Tick ready = arrival;
    if (fwd && fwd->partial)
        ready = std::max(arrival,
                         clock_.ceilToBoundary(fwd->store_complete));
    const auto result =
        memory_.access(dyn.pc, dyn.mem_addr, false, cycle_);
    if (!result.l1_hit)
        ++stats_.l1_load_misses;
    return ready + Tick{result.latency} * tpc;
}

bool
OooCore::phaseAEntry(SeqNum seq, bool interleave_spec, bool &fu_denied,
                     Cycle *next_try)
{
    Candidate cand;
    bool is_req = evalConventional(seq, cand, next_try);
    if (!is_req && interleave_spec) {
        is_req = evalEager(seq, cand);
        if (is_req) {
            ++stats_.egpw_requests;
            observe([&](auto &h) {
                const SeqNum parent = lastProducer(seq);
                h.egpwArm(seq, parent == kNoSeq ? kNoSeq
                                                : lastProducer(parent));
            });
        }
    }
    if (!is_req)
        return false;

    const FuPoolKind pool = poolOf(seq);
    if (cand.speculative) {
        if (fu_.freeUnits(pool, cycle_ + 1) == 0) {
            fu_denied = true;
            return true;
        }
        if (audit_on_)
            audit_.onEgpwGrant(*this, seq,
                               fu_.freeUnits(pool, cycle_ + 1));
        ++stats_.egpw_grants;
        if (!cand.recycle_ok) {
            fu_.book(pool, cycle_ + 1, 1);
            ++stats_.egpw_wasted;
            observe([&](auto &h) {
                h.egpwWaste(seq, EgpwWaste::NoSlack);
            });
            return true;
        }
    }
    if (!fu_.freeSpan(pool, cycle_ + 1, cand.span)) {
        if (cand.speculative) {
            fu_.book(pool, cycle_ + 1, 1);
            ++stats_.egpw_wasted;
            observe([&](auto &h) {
                h.egpwWaste(seq, EgpwWaste::SpanDenied);
            });
        } else {
            fu_denied = true;
            st_[seq] |= kReadyConv; // steady requester: see Phase A
            // Park the requester until the pool can plausibly admit
            // its span. Bookings only accumulate, so the first cycle
            // where the span fits today is a lower bound on the first
            // cycle it can ever be granted; every request in between
            // is a provable re-denial with no simulated side effect.
            // ReDSOC-eligible entries are exempt: their span/start
            // shape depends on the (cycle-varying) transparency test,
            // so they stay resident and re-evaluate. The denied
            // cycles a parked entry skips still count as FU stalls
            // via denied_horizon_.
            if (next_try && !(config_.mode == SchedMode::ReDSOC &&
                              (st_[seq] & kEligible))) {
                const Cycle book_at = fu_.nextFreeSpanCycle(
                    pool, cycle_ + 1, cand.span);
                *next_try = book_at - 1; // request cycle for book_at
                denied_horizon_ =
                    std::max(denied_horizon_, book_at - 1);
            }
        }
        return true;
    }
    fu_.book(pool, cycle_ + 1, cand.span);
    issueOp(cand);
    if (!cand.speculative && config_.mode == SchedMode::MOS)
        conv_grants_.push_back(cand); // MOS fusion's producers
    return true;
}

bool
OooCore::tryFuse(const Candidate &pg, SeqNum cseq)
{
    const Tick tpc = clock_.ticksPerCycle();
    const Tick arrival = clock_.cycleStart(cycle_ + 1);
    const u8 cst = st_[cseq];
    if ((cst & kStMask) != kStInRs || !(cst & kEligible))
        return false;
    const Slot cw = slot(cseq);
    if (cycle_ < gate_[cw])
        return false;
    if (poolOf(cseq) != poolOf(pg.seq))
        return false;
    OpCold &cc = cold_[cw];
    bool all_sched = true;
    bool parent_is_last = false;
    Tick others = 0;
    for (unsigned i = 0; i < cc.nprod; ++i) {
        const SeqNum p = cc.prod[i];
        if (!issued(p)) {
            all_sched = false;
            break;
        }
        if (p == pg.seq)
            parent_is_last = true;
        else
            others = std::max(others, done_[p]);
    }
    if (!all_sched || !parent_is_last || others > arrival)
        return false;
    const Tick pg_est = cold_[slot(pg.seq)].est_ticks;
    if (pg_est + cc.est_ticks > tpc)
        return false;

    Candidate fc;
    fc.seq = cseq;
    fc.speculative = false;
    fc.recycle_ok = true;
    fc.start = arrival + pg_est;
    fc.complete = arrival + tpc;
    fc.span = 0;
    fc.transparent = false;
    issueOp(fc);
    cc.cflags |= kColdFused;
    ++stats_.fused_ops;
    observe([&](auto &h) { h.fuse(cseq, pg.seq); });
    return true;
}

void
OooCore::issuePhase()
{
    bool fu_denied = false;
    conv_grants_.clear();
    const bool redsoc = config_.mode == SchedMode::ReDSOC;
    const bool interleave_spec = redsoc && config_.egpw &&
                                 !config_.skewed_select;

    // Phase A: conventional (parent-woken) requests, oldest first.
    // With skewed selection disabled (ablation), speculative EGPW
    // requests compete purely by age and are interleaved here.
    if (event_kernel_) {
        // Only entries with a due re-arm or a fresh broadcast wakeup
        // can request (or have a side effect) this cycle; every entry
        // skipped here would evaluate to a pure false under the scan
        // kernel. A mid-scan wakeup is evaluated at wake time
        // (scheduleEval), where the scan kernel's evaluation of it
        // later in this pass could not request either; a woken parked
        // load, or any wakeup under interleaved EGPW, lands ahead of
        // the cursor instead (a consumer is always younger than its
        // producer), preserving the full scan's age-ordered select.
        {
            prof::ScopedTimer wt(prof::Phase::Wakeup, profiling_);
            drainWakeQueue();
        }
        prof::ScopedTimer st(prof::Phase::Select, profiling_);
        in_phase_a_ = true;
        for (SeqNum seq = commit_ptr_;
             (seq = nextIn(ready_, seq)) != kNoSeq; ++seq) {
            Cycle next_try = kNoCycle;
            const bool requested =
                phaseAEntry(seq, interleave_spec, fu_denied, &next_try);
            if (!inRs(seq))
                continue; // issued (issueOp erases it from the set)
            if (requested && next_try == kNoCycle)
                continue; // denied or wasted: stays resident
            if (next_try == cycle_ + 1)
                continue; // re-evaluated next cycle: stays resident
            // Not ready, or denied with a provable re-grant bound
            // (span parking): sleep until the verdict can change.
            ready_.erase(slot(seq).i);
            if (next_try == kParkLoad) {
                // Park on one concrete blocker: the youngest older
                // unresolved store. Its resolve (at issue) re-inserts
                // this load; if another blocker remains, the load
                // re-parks on it, consuming one blocker per wake.
                const SeqNum blocker =
                    lsq_.youngestUnresolvedStoreBefore(seq);
                panic_if(blocker == kNoSeq,
                         "parked load without a blocking store");
                const Slot w = slot(seq);
                const Slot bw = slot(blocker);
                park_next_[w] = park_head_[bw];
                park_head_[bw] = seq;
                armed_[w] = kParkLoad; // audit: "parked" marker
            } else if (next_try != kNoCycle) {
                armAt(seq, next_try);
            }
            // else: wake-driven (a producer broadcast re-inserts it)
        }
        in_phase_a_ = false;
    } else {
        // The oracle evaluates every RS entry, oldest first: the
        // in-flight window filtered on InRs. Nothing dispatches during
        // issue, so the window is fixed for the whole phase, and an
        // entry issued mid-scan fails every later InRs test.
        prof::ScopedTimer st(prof::Phase::Select, profiling_);
        in_phase_a_ = true;
        for (SeqNum seq = commit_ptr_; seq < next_fetch_; ++seq)
            if (inRs(seq))
                phaseAEntry(seq, interleave_spec, fu_denied, nullptr);
        in_phase_a_ = false;
    }

    // Phase B: EGPW speculative requests from leftover units (the
    // skewed-select ordering: conventional grants always first).
    if (redsoc && config_.egpw && !interleave_spec) {
        prof::ScopedTimer st(prof::Phase::Select, profiling_);
        auto phase_b = [&](SeqNum seq) {
            Candidate cand;
            if (!evalEager(seq, cand))
                return;
            ++stats_.egpw_requests;
            observe([&](auto &h) {
                const SeqNum parent = lastProducer(seq);
                h.egpwArm(seq, parent == kNoSeq ? kNoSeq
                                                : lastProducer(parent));
            });
            const FuPoolKind pool = poolOf(seq);
            if (fu_.freeUnits(pool, cycle_ + 1) == 0) {
                // Not granted (no conventional op was displaced), but
                // a ready request stalled on busy units all the same.
                fu_denied = true;
                return;
            }
            if (audit_on_)
                audit_.onEgpwGrant(*this, seq,
                                   fu_.freeUnits(pool, cycle_ + 1));
            ++stats_.egpw_grants;
            if (!cand.recycle_ok) {
                // Granted, but there is no slack to recycle this
                // cycle: the reserved unit idles (Fig.7 grant AND
                // recycle gating).
                fu_.book(pool, cycle_ + 1, 1);
                ++stats_.egpw_wasted;
                observe([&](auto &h) {
                h.egpwWaste(seq, EgpwWaste::NoSlack);
            });
                return;
            }
            if (!fu_.freeSpan(pool, cycle_ + 1, cand.span)) {
                fu_.book(pool, cycle_ + 1, 1);
                ++stats_.egpw_wasted;
                observe([&](auto &h) {
                h.egpwWaste(seq, EgpwWaste::SpanDenied);
            });
                return;
            }
            fu_.book(pool, cycle_ + 1, cand.span);
            issueOp(cand);
        };
        if (event_kernel_) {
            // Exactly the entries woken this cycle can pass the
            // evalEager window (their last parent was granted this
            // cycle); Phase-B cascades insert ahead of the cursor.
            for (SeqNum seq = commit_ptr_;
                 (seq = nextIn(eager_, seq)) != kNoSeq; ++seq) {
                eager_.erase(slot(seq).i);
                phase_b(seq);
            }
        } else {
            // The same oldest-first window walk as Phase A.
            for (SeqNum seq = commit_ptr_; seq < next_fetch_; ++seq)
                if (inRs(seq))
                    phase_b(seq);
        }
    }

    // MOS: dynamic operation fusion. A granted producer may pull one
    // ready consumer into its own cycle when both computations fit.
    // Entries issued by earlier grants in this loop are filtered by
    // the InRs check in tryFuse. The event kernel walks the granted
    // producer's age-ordered consumer list instead (fusion requires
    // the producer among the consumer's sources, so non-consumers can
    // never match); the scan kernel walks every RS entry in the window.
    if (config_.mode == SchedMode::MOS) {
        prof::ScopedTimer st(prof::Phase::Select, profiling_);
        if (event_kernel_) {
            for (const Candidate &pg : conv_grants_) {
                const OpCold &pcold = cold_[slot(pg.seq)];
                if (!(st_[pg.seq] & kEligible) || pcold.est_ticks == 0)
                    continue;
                for (u32 e = pcold.cons_head; e != kNoEdge;
                     e = cons_edges_[e].next)
                    if (tryFuse(pg, cons_edges_[e].consumer))
                        break; // one fusion per producer
            }
        } else {
            for (const Candidate &pg : conv_grants_) {
                if (!(st_[pg.seq] & kEligible) ||
                    cold_[slot(pg.seq)].est_ticks == 0)
                    continue;
                for (SeqNum cseq = commit_ptr_; cseq < next_fetch_; ++cseq)
                    if (inRs(cseq) && tryFuse(pg, cseq))
                        break; // one fusion per producer
            }
        }
    }

    // A cycle under denied_horizon_ holds a parked steady requester
    // the scan kernel would have evaluated to a request-and-deny, so
    // it is an FU-stall cycle even when nothing touched the pool here.
    if (fu_denied || cycle_ < denied_horizon_)
        ++stats_.fu_stall_cycles;
}

void
OooCore::adaptThreshold()
{
    // The Sec.IV-C dynamic-threshold extension: hill-climb on
    // observed commit throughput. If the last epoch's change hurt,
    // reverse direction; otherwise keep walking, clamped to
    // [0, ticksPerCycle].
    const SeqNum committed_this = commit_ptr_ - epoch_start_commits_;
    if (committed_this < last_epoch_commits_)
        adapt_direction_ = -adapt_direction_;
    last_epoch_commits_ = committed_this;
    epoch_start_commits_ = commit_ptr_;

    s64 next = static_cast<s64>(cur_threshold_) + adapt_direction_;
    const s64 tpc = static_cast<s64>(clock_.ticksPerCycle());
    if (next < 0) {
        next = 0;
        adapt_direction_ = 1;
    } else if (next > tpc) {
        next = tpc;
        adapt_direction_ = -1;
    }
    cur_threshold_ = static_cast<Tick>(next);
    stats_.threshold_min = std::min(stats_.threshold_min, cur_threshold_);
    stats_.threshold_max = std::max(stats_.threshold_max, cur_threshold_);
}

void
OooCore::commitPhase()
{
    unsigned committed = 0;
    const Tick now = clock_.cycleStart(cycle_);
    while (committed < config_.commit_width && !robEmpty()) {
        const SeqNum seq = commit_ptr_;
        if (stateOf(seq) != St::Done || done_[seq] > now)
            break;

        const u8 st = st_[seq];
        if (st & kInLsq)
            lsq_.commit(seq);
        setState(seq, St::Committed);

        const OpCold &oc = cold_[slot(seq)];
        if (st & kIsBranch) {
            const DynOp &dyn = dyn_[seq];
            if (branch_pred_.resolve(dyn.pc, trace_->inst(seq),
                                     dyn.taken, trace_->nextPc(seq),
                                     oc.predicted_next))
                ++stats_.branch_mispredicts;
        }

        chains_.onRetire(seq);

        // Fold the op's architectural schedule into the commit-trace
        // checksum (FNV-1a) so differential runs can prove the whole
        // schedule matched, not just the aggregate counters.
        auto fold = [this](u64 v) {
            stats_.commit_checksum ^= v;
            stats_.commit_checksum *= 0x100000001b3ull;
        };
        fold(seq);
        fold(sel_[seq]);
        fold(oc.start_tick);
        fold(done_[seq]);
        fold(((oc.cflags & kColdTransparent) ? 1u : 0u) |
             ((oc.cflags & kColdFused) ? 2u : 0u));

        observe([&](auto &h) {
            h.commit(seq, now, (oc.cflags & kColdBranchMispred) != 0);
        });

        ++commit_ptr_;
        ++committed;
        last_commit_cycle_ = cycle_;
    }
}

void
OooCore::fastForward(bool adapting)
{
    // Arms made during the just-finished cycle for this one are due
    // exactly now (cycle_ already advanced), and FU-denied entries
    // resident in the ready set re-request every cycle: nothing to
    // skip.
    if (!next_.empty() || !ready_.empty())
        return;

    // The next cycle the scheduler can do non-trivial work: the
    // earliest live arm in the wake queue. Every waiting RS entry is
    // either armed here, resident in the ready set, parked behind an
    // older store (itself an armed-or-parked chain rooted at an armed
    // entry), or waiting on a producer broadcast from one of those.
    Cycle target = kNoCycle;
    while (!wake_pq_.empty()) {
        const auto &[c, seq] = wake_pq_.top();
        if (!inRs(seq) || armed_[slot(seq)] != c) {
            wake_pq_.pop(); // stale arm
            continue;
        }
        target = c;
        break;
    }

    // The next commit: the ROB head's completion boundary. (A head
    // still in the RS becomes Done through a wake-queue event.)
    if (!robEmpty() && stateOf(commit_ptr_) == St::Done)
        target = std::min(target, clock_.cycleOf(clock_.ceilToBoundary(
                                      done_[commit_ptr_])));

    // The next dispatch. Structural stalls (ROB/RS/LSQ full) clear
    // through commits or issues, which the two events above already
    // bound; an unresolved-branch block clears when the blocker
    // issues (a wake event) or, once it is Done, at the redirect.
    if (next_fetch_ < trace_->size()) {
        if (fetch_blocked_on_ != kNoSeq) {
            if (issued(fetch_blocked_on_)) {
                const Cycle redirect =
                    clock_.cycleOf(done_[fetch_blocked_on_] - 1) + 1 +
                    config_.redirect_penalty;
                target = std::min(target, std::max(cycle_, redirect));
            }
        } else {
            const InstMeta &m = meta_[dyn_[next_fetch_].pc];
            const bool blocked =
                robFull() ||
                ((m.flags & kMetaNeedsRs) != 0 && rs_.full()) ||
                ((m.flags & kMetaMem) != 0 && lsq_.full());
            if (!blocked)
                target = std::min(
                    target, std::max(cycle_, fetch_stall_until_));
        }
    }

    // Never jump past the no-commit watchdog horizon (a deadlocked
    // simulation must still abort at the same cycle as the scan
    // kernel: the clamp lands exactly one cycle short of the strict->
    // check in run(), so both kernels throw at horizon + 1), nor past
    // a dynamic-threshold epoch boundary (the adaptation at each
    // boundary is a side effect of its own).
    const Cycle horizon = last_commit_cycle_ + config_.no_commit_horizon;
    if (target > horizon)
        target = horizon;
    if (adapting) {
        const Cycle epoch = config_.threshold_epoch;
        target = std::min(target, (cycle_ / epoch + 1) * epoch - 1);
    }
    if (target > cycle_) {
        // Cycles skipped under the denied horizon each hold a parked
        // steady requester the scan kernel would count as FU-stalled.
        if (cycle_ < denied_horizon_)
            stats_.fu_stall_cycles +=
                std::min(target, denied_horizon_) - cycle_;
        cycle_ = target;
    }
}

void
OooCore::beginRun(const Trace &trace)
{
    // Host time for sim_seconds. redsoc-lint: allow(nondet-api)
    wall_start_ = std::chrono::steady_clock::now();

    // Reset all run state so a core object can be reused. A reused
    // core gets back the cold predictors, caches and FU bookings of a
    // fresh one, and empty LSQ and RS (an aborted run, DeadlockError,
    // leaves entries in both). The SoA lanes, window rings and consumer
    // edges are neither zeroed nor cleared: every field is written at
    // the op's dispatch before any read (DESIGN.md §12), so
    // uninitialized or stale values are unobservable.
    if (trace_ != nullptr) {
        memory_.reset();
        branch_pred_ = BranchPredictor(config_.branch_pred);
        width_pred_ = WidthPredictor(config_.width_pred);
        la_pred_ = LastArrivalPredictor(config_.last_arrival);
        fu_ = FuPool(config_);
        lsq_ = Lsq(config_.lsq_entries);
        rs_ = ReservationStations(config_.rs_entries);
    }
    trace_ = &trace;
    dyn_ = trace.ops().data();
    buildInstMeta(trace.program());
    const size_t n = static_cast<size_t>(trace.size());
    if (n > lane_ops_) {
        st_ = std::make_unique_for_overwrite<u8[]>(n);
        sel_ = std::make_unique_for_overwrite<Cycle[]>(n);
        done_ = std::make_unique_for_overwrite<Tick[]>(n);
        lane_ops_ = n;
    }
    next_fetch_ = 0;
    commit_ptr_ = 0;
    cycle_ = 0;
    fetch_stall_until_ = 0;
    fetch_blocked_on_ = kNoSeq;
    last_commit_cycle_ = 0;
    rat_.reset();
    stats_ = CoreStats{};
    chains_.reset();
    cur_threshold_ = config_.slack_threshold_ticks;
    adapt_direction_ = 1;
    epoch_start_commits_ = 0;
    last_epoch_commits_ = 0;
    stats_.threshold_min = cur_threshold_;
    stats_.threshold_max = cur_threshold_;
    {
        // Rebuild the wake heap on reserved storage (move-from keeps
        // the capacity) so steady-state arms never allocate.
        std::vector<std::pair<Cycle, SeqNum>> pq_store;
        pq_store.reserve(2 * config_.rs_entries);
        wake_pq_ = decltype(wake_pq_)(std::greater<>{},
                                      std::move(pq_store));
    }
    ready_.clear();
    next_.clear();
    eager_.clear();
    denied_horizon_ = 0;
    in_phase_a_ = false;
    if (recorder_)
        recorder_->beginRun(clock_.ticksPerCycle());

    adapting_ = config_.dynamic_threshold &&
                config_.mode == SchedMode::ReDSOC;
    profiling_ = prof::enabled();
}

bool
OooCore::stepRun()
{
    const SeqNum total = trace_->size();
    if (commit_ptr_ >= total)
        return false;
    if (profiling_) {
        {
            prof::ScopedTimer t(prof::Phase::Commit, true);
            commitPhase();
        }
        {
            prof::ScopedTimer t(prof::Phase::Issue, true);
            issuePhase();
        }
        {
            prof::ScopedTimer t(prof::Phase::Dispatch, true);
            dispatchPhase(*trace_);
        }
    } else {
        commitPhase();
        issuePhase();
        dispatchPhase(*trace_);
    }
    if (audit_on_)
        audit_.onCycleEnd(*this);
    ++cycle_;
    if (adapting_ && cycle_ % config_.threshold_epoch == 0)
        adaptThreshold();
    if (cycle_ - last_commit_cycle_ > config_.no_commit_horizon)
        throw DeadlockError(cycle_, commit_ptr_, total);
    if (event_kernel_ && commit_ptr_ < total)
        fastForward(adapting_);
    return commit_ptr_ < total;
}

CoreStats
OooCore::finishRun()
{
    stats_.threshold_final = cur_threshold_;
    stats_.cycles = cycle_;
    stats_.committed = trace_->size();
    stats_.chain_lengths = chains_.lengths();
    stats_.expected_chain_length = chains_.expectedRecycledLength();
    stats_.sim_seconds =
        // Host time; comparisons skip it. redsoc-lint: allow(nondet-api)
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start_)
            .count();
    return stats_;
}

CoreStats
OooCore::run(const Trace &trace)
{
    beginRun(trace);
    prof::ScopedTimer run_timer(prof::Phase::Run, profiling_);
    // The shutdown poll lives here rather than in stepRun() so the
    // Processor lockstep (which drives stepRun() directly) stays
    // byte-identical to the seed hot path; Processor::run has its own
    // poll at the same granularity.
    u64 steps = 0;
    while (stepRun()) {
        if ((++steps & 0x3fffu) == 0 && shutdownRequested())
            throw ShutdownInterrupt();
    }
    return finishRun();
}

} // namespace redsoc
