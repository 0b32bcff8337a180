#include "core/ooo_core.h"

#include <algorithm>
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
    group.recordScalar("cycles", static_cast<double>(stats.cycles));
    group.recordScalar("committed",
                       static_cast<double>(stats.committed));
    group.recordScalar("ipc", stats.ipc());
    group.recordScalar("fu_stall_rate", stats.fuStallRate());
    group.recordScalar("recycled_ops",
                       static_cast<double>(stats.recycled_ops));
    group.recordScalar("two_cycle_holds",
                       static_cast<double>(stats.two_cycle_holds));
    group.recordScalar("slack_recycled_ticks",
                       static_cast<double>(stats.slack_recycled_ticks));
    group.recordScalar("egpw_requests",
                       static_cast<double>(stats.egpw_requests));
    group.recordScalar("egpw_grants",
                       static_cast<double>(stats.egpw_grants));
    group.recordScalar("egpw_wasted",
                       static_cast<double>(stats.egpw_wasted));
    group.recordScalar("fused_ops",
                       static_cast<double>(stats.fused_ops));
    group.recordScalar("la_mispredict_rate", stats.laMispredictRate());
    group.recordScalar("width_aggressive_rate",
                       stats.widthAggressiveRate());
    group.recordScalar("branch_mispredict_rate",
                       stats.branchMispredictRate());
    group.recordScalar("loads", static_cast<double>(stats.loads));
    group.recordScalar("stores", static_cast<double>(stats.stores));
    group.recordScalar("l1_load_misses",
                       static_cast<double>(stats.l1_load_misses));
    group.recordScalar("store_forwards",
                       static_cast<double>(stats.store_forwards));
    group.recordScalar("expected_chain_length",
                       stats.expected_chain_length);
    group.recordScalar("threshold_final",
                       static_cast<double>(stats.threshold_final));
    group.recordScalar("sim_seconds", stats.sim_seconds);
    group.recordScalar("sim_mips", stats.simMips());
    return group;
}

OooCore::OooCore(CoreConfig config)
    : config_(std::move(config)),
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
    fatal_if(config_.slack_threshold_ticks > clock_.ticksPerCycle(),
             "slack threshold exceeds a full cycle");
    fatal_if(config_.no_commit_horizon == 0,
             "zero no-commit watchdog horizon");
    event_kernel_ = config_.sched_kernel == SchedKernel::Event;
    audit_on_ = InvariantAuditor::enabledFromEnv();
    // The EGPW candidate set only exists where a separate Phase-B
    // scan does: skewed selection. The non-skewed ablation evaluates
    // EGPW inline in Phase A on the same ready set.
    collect_eager_ = event_kernel_ &&
                     config_.mode == SchedMode::ReDSOC && config_.egpw &&
                     config_.skewed_select;

    // Candidate-set rings sized for the in-flight window, and every
    // per-cycle scratch vector reserved up front: the scheduler loops
    // must never allocate (redsoc_lint R8 hot-alloc).
    ready_.configure(config_.rob_entries);
    eager_.configure(config_.rob_entries);
    conv_grants_.reserve(config_.rs_entries);
    next_arms_.reserve(2 * config_.rs_entries);
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
    }
}

SeqNum
OooCore::lastProducer(SeqNum seq) const
{
    const OpCold &oc = cold_[seq];
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
    const OpCold &oc = cold_[seq];
    Tick t = 0;
    for (unsigned i = 0; i < oc.nprod; ++i)
        t = std::max(t, done_[oc.prod[i]]);
    return t;
}

Cycle
OooCore::selGate(SeqNum seq) const
{
    const OpCold &oc = cold_[seq];
    Cycle gate = oc.dispatch_cycle + 1;
    for (unsigned i = 0; i < oc.nprod; ++i)
        gate = std::max(gate, sel_[oc.prod[i]] + 1);
    return gate;
}

void
OooCore::emitFrontend(SeqNum seq)
{
    // The model's frontend is one macro-stage: all four events carry
    // the dispatch cycle's tick (trace_events.h).
    const Tick t = clock_.cycleStart(cycle_);
    emit(PipeEventKind::Fetch, seq, t);
    emit(PipeEventKind::Decode, seq, t);
    emit(PipeEventKind::Rename, seq, t);
    emit(PipeEventKind::Dispatch, seq, t);
}

void
OooCore::emitIssue(const Candidate &cand)
{
    // The entry's conventional wakeup cycle is the select gate; an
    // EGPW grant (and a MOS fusion) is woken in the grant cycle
    // itself. Every input below is part of the committed schedule,
    // so both scheduler kernels emit identical events.
    const SeqNum seq = cand.seq;
    const OpCold &oc = cold_[seq];
    const SeqNum last = lastProducer(seq);
    const Cycle wake = cand.speculative
                           ? cycle_
                           : std::min(selGate(seq), cycle_);
    emit(PipeEventKind::Wakeup, seq, clock_.cycleStart(wake), 0, last);
    emit(PipeEventKind::Select, seq, clock_.cycleStart(cycle_),
         cand.speculative ? u8{1} : u8{0});
    if (cand.speculative)
        emit(PipeEventKind::EgpwFire, seq, clock_.cycleStart(cycle_));
    if (oc.cflags & kColdTransparent) {
        emit(PipeEventKind::TransparentPass, seq, oc.start_tick,
             ciArg(oc.start_tick));
        emit(PipeEventKind::RecycleLink, seq, oc.start_tick, 0, last);
    }
    if (oc.cflags & kColdWidthReplayed)
        emit(PipeEventKind::Replay, seq, clock_.cycleStart(cycle_), 2);
    emit(PipeEventKind::ExecBegin, seq, oc.start_tick,
         ciArg(oc.start_tick));
    emit(PipeEventKind::Writeback, seq, done_[seq], ciArg(done_[seq]));
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

    for (unsigned w = 0; w < config_.frontend_width; ++w) {
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
        emitFrontend(seq);

        // Direct unconditional control flow is resolved entirely in
        // the front end (target known at decode, RAS for returns):
        // it occupies a ROB slot but no RS entry or execution port.
        if (!needs_rs) {
            st_[seq] = kStDone | (m.seed & kIsBranch);
            cls_[seq] = packCls(FuPoolKind::Alu, FuClass::None);
            sel_[seq] = cycle_;
            OpCold &oc = cold_[seq];
            oc = kFreshCold;
            oc.dispatch_cycle = cycle_;
            oc.start_tick = clock_.cycleStart(cycle_ + 1);
            done_[seq] = oc.start_tick;
            // Frontend-resolved: no RS life, straight to writeback.
            emit(PipeEventKind::Writeback, seq, done_[seq],
                 ciArg(done_[seq]));
            if (m.seed & kIsBranch) {
                // Rename the link register and predict as usual.
                if (m.dst != kNoReg)
                    rat_.setWriter(m.dst, seq);
                ++stats_.branch_lookups;
                oc.predicted_next = branch_pred_.predict(
                    dyn.pc, trace.inst(seq), dyn.pc + 1);
                if (oc.predicted_next != dyn.next_pc) {
                    oc.cflags |= kColdBranchMispred;
                    fetch_blocked_on_ = seq;
                    return;
                }
            }
            continue;
        }

        const Inst &inst = trace.inst(seq);
        st_[seq] = kStInRs | m.seed;
        cls_[seq] = m.cls;
        gate_[seq] = cycle_ + 1;
        armed_[seq] = kNoCycle;
        pending_[seq] = 0;
        OpCold &oc = cold_[seq];
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
            // Bounded by ticksPerCycle <= 2^ci_precision_bits, so 16
            // bits are exact. redsoc-lint: allow(cycle-narrow)
            oc.est_ticks = static_cast<u16>(
                // redsoc-lint: allow(cycle-narrow)
                lut_.lookupTicks(inst, oc.pred_wc));
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
            if (oc.predicted_next != dyn.next_pc)
                oc.cflags |= kColdBranchMispred;
        }

        rs_.insert();
        if (is_mem) {
            lsq_.dispatch(seq, (m.seed & kIsStore) != 0);
            st_[seq] |= kInLsq;
            park_head_[seq] = kNoSeq;
            park_next_[seq] = kNoSeq;
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
                ++pending;
                const u32 e = static_cast<u32>(cons_edges_.size());
                cons_edges_.push_back({seq, kNoEdge});
                OpCold &pcold = cold_[p];
                if (pcold.cons_tail == kNoEdge)
                    pcold.cons_head = e;
                else
                    cons_edges_[pcold.cons_tail].next = e;
                pcold.cons_tail = e;
            }
            pending_[seq] = pending;
            if (pending == 0)
                armAt(seq, cycle_ + 1);
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
    // gate_ folds max(dispatch_cycle + 1, LA-replay retry cycle).
    if (cycle_ < gate_[seq]) {
        if (next_try)
            *next_try = gate_[seq];
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
    OpCold &oc = cold_[seq];
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
                emit(PipeEventKind::Replay, seq,
                     clock_.cycleStart(cycle_), 1);
                // Woke early on the wrong tag: replay penalty.
                // true_ready >= dispatch_cycle + 1, so the gate fold
                // stays valid.
                static constexpr Cycle kLaReplayPenalty = 2;
                gate_[seq] = true_ready + kLaReplayPenalty;
                if (next_try)
                    *next_try = gate_[seq];
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

    OpCold &oc = cold_[seq];
    if ((oc.cflags & kColdWidthPredicted) && oc.actual_wc > oc.pred_wc) {
        // Aggressive width misprediction, detected at execute:
        // conservative re-execution from the next boundary
        // (selective-reissue recovery, Sec.II-B).
        const Tick est = lut_.lookupTicks(trace_->inst(seq),
                                          oc.actual_wc);
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
    if (cycle_ < gate_[seq])
        return false;
    const OpCold &oc = cold_[seq];
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
    const OpCold &pc = cold_[parent];
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
    OpCold &oc = cold_[seq];
    oc.start_tick = cand.start;
    done_[seq] = cand.complete;
    if (cand.transparent)
        oc.cflags |= kColdTransparent;
    rs_.remove();
    if (event_kernel_)
        ready_.erase(seq); // may be resident (Phase-A retention)

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

    if (tracer_)
        emitIssue(cand);
    if (audit_on_)
        audit_.onIssue(*this, seq);

    if (event_kernel_)
        broadcastWakeup(seq);
}

void
OooCore::armAt(SeqNum seq, Cycle c)
{
    armed_[seq] = c;
    if (c == cycle_ + 1)
        next_arms_.push_back(seq);
    else
        wake_pq_.emplace(c, seq);
}

void
OooCore::scheduleEval(SeqNum seq, bool newly_woken)
{
    if (in_phase_a_) {
        // The waker is older (smaller seq), so the Phase-A cursor has
        // not reached this entry yet: it gets evaluated this cycle,
        // exactly where the scan kernel's full pass would visit it.
        ready_.insert(seq);
        armed_[seq] = cycle_;
    } else {
        armAt(seq, cycle_ + 1);
    }
    // A newly-woken entry is an EGPW candidate this same cycle (its
    // last parent was granted this cycle).
    if (newly_woken && collect_eager_)
        eager_.insert(seq);
}

void
OooCore::broadcastWakeup(SeqNum seq)
{
    prof::ScopedTimer wt(prof::Phase::Wakeup, profiling_);
    const OpCold &oc = cold_[seq];
    for (u32 e = oc.cons_head; e != kNoEdge; e = cons_edges_[e].next) {
        const SeqNum cseq = cons_edges_[e].consumer;
        if (--pending_[cseq] == 0)
            scheduleEval(cseq, true);
    }
    // A store resolving its address unblocks exactly the loads parked
    // on it (memory-order wakeup rides the same broadcast port). A
    // woken load still blocked by a different older store re-parks on
    // that blocker.
    if (st_[seq] & kIsStore) {
        for (SeqNum l = park_head_[seq]; l != kNoSeq;
             l = park_next_[l])
            if (inRs(l))
                scheduleEval(l, false);
        park_head_[seq] = kNoSeq;
    }
}

void
OooCore::drainWakeQueue()
{
    if (!next_arms_.empty()) {
        // Arms pushed last cycle for this one (fastForward never
        // jumps over a pending next-cycle arm).
        for (SeqNum seq : next_arms_)
            if (inRs(seq) && armed_[seq] == cycle_)
                ready_.insert(seq);
        next_arms_.clear();
    }
    while (!wake_pq_.empty() && wake_pq_.top().first <= cycle_) {
        const auto [c, seq] = wake_pq_.top();
        wake_pq_.pop();
        if (!inRs(seq) || armed_[seq] != c)
            continue; // stale arm (issued, or re-armed since)
        ready_.insert(seq);
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
            if (tracer_) {
                const SeqNum parent = lastProducer(seq);
                emit(PipeEventKind::EgpwArm, seq,
                     clock_.cycleStart(cycle_), 0,
                     parent == kNoSeq ? kNoSeq : lastProducer(parent));
            }
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
            emit(PipeEventKind::EgpwWaste, seq,
                 clock_.cycleStart(cycle_), 0);
            return true;
        }
    }
    if (!fu_.freeSpan(pool, cycle_ + 1, cand.span)) {
        if (cand.speculative) {
            fu_.book(pool, cycle_ + 1, 1);
            ++stats_.egpw_wasted;
            emit(PipeEventKind::EgpwWaste, seq,
                 clock_.cycleStart(cycle_), 1);
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
    if (!cand.speculative)
        conv_grants_.push_back(cand);
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
    if (cycle_ < gate_[cseq])
        return false;
    if (poolOf(cseq) != poolOf(pg.seq))
        return false;
    const OpCold &cc = cold_[cseq];
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
    if (Tick{cold_[pg.seq].est_ticks} + cc.est_ticks > tpc)
        return false;

    Candidate fc;
    fc.seq = cseq;
    fc.speculative = false;
    fc.recycle_ok = true;
    fc.start = arrival + cold_[pg.seq].est_ticks;
    fc.complete = arrival + tpc;
    fc.span = 0;
    fc.transparent = false;
    issueOp(fc);
    cold_[cseq].cflags |= kColdFused;
    ++stats_.fused_ops;
    emit(PipeEventKind::Fuse, cseq, clock_.cycleStart(cycle_), 0,
         pg.seq);
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
        // kernel. Mid-scan wakeups land ahead of the cursor (a
        // consumer is always younger than its producer), preserving
        // the full scan's age-ordered select.
        {
            prof::ScopedTimer wt(prof::Phase::Wakeup, profiling_);
            drainWakeQueue();
        }
        prof::ScopedTimer st(prof::Phase::Select, profiling_);
        in_phase_a_ = true;
        SeqNum cur = 0;
        for (SeqNum seq; (seq = ready_.nextAtOrAfter(cur)) != kNoSeq;) {
            cur = seq + 1;
            Cycle next_try = kNoCycle;
            const bool requested =
                phaseAEntry(seq, interleave_spec, fu_denied, &next_try);
            if (!inRs(seq))
                continue; // issued (issueOp erases it from the set)
            if (requested && next_try == kNoCycle)
                continue; // denied or wasted: stays resident
            // Not ready, or denied with a provable re-grant bound
            // (span parking): sleep until the verdict can change.
            ready_.erase(seq);
            if (next_try == kParkLoad) {
                // Park on one concrete blocker: the youngest older
                // unresolved store. Its resolve (at issue) re-inserts
                // this load; if another blocker remains, the load
                // re-parks on it, consuming one blocker per wake.
                const SeqNum blocker =
                    lsq_.youngestUnresolvedStoreBefore(seq);
                panic_if(blocker == kNoSeq,
                         "parked load without a blocking store");
                park_next_[seq] = park_head_[blocker];
                park_head_[blocker] = seq;
                armed_[seq] = kParkLoad; // audit: "parked" marker
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
        for (SeqNum seq = commit_ptr_; seq < next_fetch_; ++seq)
            if (inRs(seq))
                phaseAEntry(seq, interleave_spec, fu_denied, nullptr);
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
            if (tracer_) {
                const SeqNum parent = lastProducer(seq);
                emit(PipeEventKind::EgpwArm, seq,
                     clock_.cycleStart(cycle_), 0,
                     parent == kNoSeq ? kNoSeq : lastProducer(parent));
            }
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
                emit(PipeEventKind::EgpwWaste, seq,
                     clock_.cycleStart(cycle_), 0);
                return;
            }
            if (!fu_.freeSpan(pool, cycle_ + 1, cand.span)) {
                fu_.book(pool, cycle_ + 1, 1);
                ++stats_.egpw_wasted;
                emit(PipeEventKind::EgpwWaste, seq,
                     clock_.cycleStart(cycle_), 1);
                return;
            }
            fu_.book(pool, cycle_ + 1, cand.span);
            issueOp(cand);
        };
        if (event_kernel_) {
            // Exactly the entries woken this cycle can pass the
            // evalEager window (their last parent was granted this
            // cycle); Phase-B cascades insert ahead of the cursor.
            SeqNum cur = 0;
            for (SeqNum seq;
                 (seq = eager_.popAtOrAfter(cur)) != kNoSeq;) {
                cur = seq + 1;
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
                const OpCold &pcold = cold_[pg.seq];
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
                    cold_[pg.seq].est_ticks == 0)
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

        const OpCold &oc = cold_[seq];
        if (st & kIsBranch) {
            const DynOp &dyn = dyn_[seq];
            if (branch_pred_.resolve(dyn.pc, trace_->inst(seq),
                                     dyn.taken, dyn.next_pc,
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

        emit(PipeEventKind::Commit, seq, now,
             (oc.cflags & kColdBranchMispred) ? u8{1} : u8{0});

        ++commit_ptr_;
        ++committed;
        last_commit_cycle_ = cycle_;
    }
}

void
OooCore::fastForward(bool adapting)
{
    // Arms buffered during the just-finished cycle are due exactly
    // now (cycle_ already advanced), and FU-denied entries resident
    // in the ready set re-request every cycle: nothing to skip.
    if (!next_arms_.empty() || !ready_.empty())
        return;

    // The next cycle the scheduler can do non-trivial work: the
    // earliest live arm in the wake queue. Every waiting RS entry is
    // either armed here, resident in the ready set, parked behind an
    // older store (itself an armed-or-parked chain rooted at an armed
    // entry), or waiting on a producer broadcast from one of those.
    Cycle target = kNoCycle;
    while (!wake_pq_.empty()) {
        const auto &[c, seq] = wake_pq_.top();
        if (!inRs(seq) || armed_[seq] != c) {
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
    wall_start_ = std::chrono::steady_clock::now();

    // Reset all run state so a core object can be reused. A reused
    // core gets back the cold predictors, caches and FU bookings of a
    // fresh one, and empty LSQ and RS (an aborted run, DeadlockError,
    // leaves entries in both). The SoA lanes are neither zeroed nor
    // cleared: every lane field is written at the op's dispatch before
    // any read (DESIGN.md §12), so uninitialized or stale values are
    // unobservable.
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
        cls_ = std::make_unique_for_overwrite<u8[]>(n);
        pending_ = std::make_unique_for_overwrite<u8[]>(n);
        gate_ = std::make_unique_for_overwrite<Cycle[]>(n);
        armed_ = std::make_unique_for_overwrite<Cycle[]>(n);
        sel_ = std::make_unique_for_overwrite<Cycle[]>(n);
        done_ = std::make_unique_for_overwrite<Tick[]>(n);
        cold_ = std::make_unique_for_overwrite<OpCold[]>(n);
        park_head_ = std::make_unique_for_overwrite<SeqNum[]>(n);
        park_next_ = std::make_unique_for_overwrite<SeqNum[]>(n);
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
    cons_edges_.clear();
    // Pre-size the consumer-edge pool to the common case (about one
    // in-RS consumer edge per op); heavier fan-out traces grow it
    // amortized, outside the per-cycle loops (redsoc_lint R8).
    cons_edges_.reserve(n);
    {
        // Rebuild the wake heap on reserved storage (move-from keeps
        // the capacity) so steady-state arms never allocate.
        std::vector<std::pair<Cycle, SeqNum>> pq_store;
        pq_store.reserve(2 * config_.rs_entries);
        wake_pq_ = decltype(wake_pq_)(std::greater<>{},
                                      std::move(pq_store));
    }
    next_arms_.clear();
    ready_.clear();
    eager_.clear();
    denied_horizon_ = 0;
    in_phase_a_ = false;
    if (tracer_)
        tracer_->beginRun(clock_.ticksPerCycle());

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
