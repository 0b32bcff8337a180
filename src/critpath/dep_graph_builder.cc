#include "critpath/dep_graph_builder.h"

#include <algorithm>

#include "common/logging.h"
#include "timing/timing_model.h"

namespace redsoc {

DepGraphBuilder::DepGraphBuilder(const Trace &trace,
                                 const CoreConfig &config)
    : trace_(&trace), config_(&config)
{
}

void
DepGraphBuilder::onBeginRun(Tick ticks_per_cycle)
{
    fatal_if(trace_->size() > SeqNum{~u32{0}} - 1,
             "trace too large for the dependence graph's 32-bit op ids");
    const u32 n = static_cast<u32>(trace_->size());

    graph_ = DepGraph{};
    graph_.num_ops = n;
    graph_.params.frontend_width = config_->frontend_width;
    graph_.params.commit_width = config_->commit_width;
    graph_.params.rob_entries = config_->rob_entries;
    graph_.params.rs_entries = config_->rs_entries;
    graph_.params.lsq_entries = config_->lsq_entries;
    graph_.params.units = {config_->alu_units, config_->simd_units,
                           config_->fp_units, config_->mem_ports};
    graph_.params.redirect_penalty = config_->redirect_penalty;
    graph_.params.ticks_per_cycle = ticks_per_cycle;
    graph_.params.ci_precision_bits = config_->ci_precision_bits;
    graph_.params.slack_threshold_ticks = config_->slack_threshold_ticks;

    graph_.obs_d.assign(n, 0);
    graph_.obs_s.assign(n, 0);
    graph_.obs_x.assign(n, 0);
    graph_.obs_w.assign(n, 0);
    graph_.obs_c.assign(n, 0);
    graph_.flags.assign(n, 0);
    graph_.pool.assign(n, 0);
    graph_.pool_pos.assign(n, kNoPoolPos);
    graph_.edges.clear();
    // Reserve the per-op worst case (~15 edges per op in practice):
    // the array never regrows mid-run, and the never-written tail
    // costs address space, not resident memory.
    graph_.edges.reserve(size_t{n} * kMaxEdgesPerOp);
    graph_.edge_begin.assign(1, 0);
    graph_.edge_begin.reserve(size_t{n} + 1);
    graph_.topo.clear();
    graph_.topo.reserve(size_t{n} * kNumMilestones);
    for (auto &order : graph_.pool_order) {
        order.clear();
        order.reserve(n / 2);
    }

    pending_.assign(n, Pending{});
    reg_writer_.fill(kNoOp);
    rs_issue_order_.clear();
    rs_issue_order_.reserve(n);
    mem_order_.clear();
    mem_order_.reserve(n / 2);
    mem_block_ = kNoOp;
    rs_dispatched_ = 0;
    commits_ = 0;
    events_seen_ = 0;
    run_open_ = true;
}

void
DepGraphBuilder::onDispatch(const PipeEvent &e)
{
    const u32 i = static_cast<u32>(e.seq);
    graph_.obs_d[i] = e.tick;
    graph_.topo.push_back(nodeId(i, Milestone::D));

    const Inst &inst = trace_->inst(e.seq);
    // Mirror OooCore::buildInstMeta: direct unconditional control flow
    // (and HALT) is resolved entirely in the frontend — no RS entry,
    // no execution port, and only the branch link register is renamed.
    const bool needs_rs = inst.op != Opcode::HALT &&
                          inst.op != Opcode::B &&
                          inst.op != Opcode::BL && inst.op != Opcode::RET;

    u16 flags = 0;
    if (isMem(inst.op))
        flags |= kOpMem;
    if (isLoad(inst.op))
        flags |= kOpLoad;
    if (isStore(inst.op))
        flags |= kOpStore;
    if (isBranch(inst.op))
        flags |= kOpBranch;
    if (TimingModel::isSlackEligible(inst.op))
        flags |= kOpEligible;
    graph_.flags[i] |= flags;

    Pending &p = pending_[i];
    if (needs_rs) {
        // Rename replay: identical source walk and destination claim
        // to OooCore::dispatchPhase (duplicates preserved there are
        // deduplicated only when edges are emitted).
        for (const RegIdx r : inst.sources()) {
            if (r == kNoReg)
                continue;
            const u32 writer = reg_writer_[r];
            if (writer != kNoOp)
                p.prod[p.nprod++] = writer;
        }
        const RegIdx dst = inst.destination();
        if (dst != kNoReg)
            reg_writer_[dst] = i;
        graph_.pool[i] =
            static_cast<u8>(fuPoolKind(fuClass(inst.op)));

        // RS back-pressure: a slot frees at select, so at least
        // (k - rs_entries + 1) grants precede the (k+1)'th RS
        // dispatch; the (k - rs_entries)'th grant is the binding one.
        const u32 k = rs_dispatched_++;
        if (k >= graph_.params.rs_entries &&
            k - graph_.params.rs_entries < rs_issue_order_.size())
            p.rs_src = rs_issue_order_[k - graph_.params.rs_entries];
    } else {
        if (flags & kOpBranch) {
            const RegIdx dst = inst.destination();
            if (dst != kNoReg)
                reg_writer_[dst] = i;
        }
        // Frontend-resolved: no RS life, so select collapses onto
        // dispatch (sel_ is recorded as the dispatch cycle) and the
        // execution window onto the writeback tick — the S node is
        // placed here and the X node at the Writeback event so both
        // sit at their emission-order position for the topo lane.
        graph_.flags[i] |= kOpFrontendResolved;
        graph_.obs_s[i] = e.tick;
        graph_.topo.push_back(nodeId(i, Milestone::S));
    }

    if (flags & kOpMem) {
        // LSQ entries free at commit, and both dispatch and commit
        // are in program order: the (k - lsq_entries)'th memory op's
        // commit gates the (k+1)'th memory dispatch exactly.
        const u32 k = static_cast<u32>(mem_order_.size());
        mem_order_.push_back(i);
        if (k >= graph_.params.lsq_entries)
            p.lsq_src = mem_order_[k - graph_.params.lsq_entries];
    }
}

void
DepGraphBuilder::onSelect(const PipeEvent &e)
{
    const u32 i = static_cast<u32>(e.seq);
    graph_.obs_s[i] = e.tick;
    graph_.topo.push_back(nodeId(i, Milestone::S));
    pending_[i].selected = true;
    if (e.arg & 1)
        graph_.flags[i] |= kOpEgpwSelect;
    rs_issue_order_.push_back(i);
    auto &order = graph_.pool_order[graph_.pool[i]];
    graph_.pool_pos[i] = static_cast<u32>(order.size());
    order.push_back(i);
}

void
DepGraphBuilder::flushEdges(u32 i)
{
    auto append = [&](EdgeKind kind, u32 src, u32 aux = 0) {
        graph_.edges.push_back(Edge{src, aux, kind});
    };
    const MachineParams &mp = graph_.params;
    const Pending &p = pending_[i];

    // Deduplicate the replayed producer set (the core keeps
    // duplicates in OpCold::prod; one edge per distinct producer).
    std::array<u32, kMaxProducers> prod{};
    unsigned nprod = 0;
    for (unsigned a = 0; a < p.nprod; ++a) {
        bool dup = false;
        for (unsigned b = 0; b < nprod; ++b)
            dup = dup || prod[b] == p.prod[a];
        if (!dup)
            prod[nprod++] = p.prod[a];
    }

    // -> D.
    if (i > 0 && (graph_.flags[i - 1] & kOpBranchMispred))
        append(EdgeKind::BranchRecover, i - 1);
    if (i > 0)
        append(EdgeKind::FrontendOrder, i - 1);
    if (i >= mp.frontend_width)
        append(EdgeKind::FrontendWidth, i - mp.frontend_width);
    if (i >= mp.rob_entries)
        append(EdgeKind::RobCap, i - mp.rob_entries);
    if (p.rs_src != kNoOp)
        append(EdgeKind::RsCap, p.rs_src);
    if (p.lsq_src != kNoOp)
        append(EdgeKind::LsqCap, p.lsq_src);

    // -> S.
    append(EdgeKind::DispatchToSelect, i);
    const bool spec = (graph_.flags[i] & kOpEgpwSelect) != 0;
    for (unsigned a = 0; a < nprod; ++a) {
        u32 aux = 0;
        // Same-cycle select windows: an EGPW grant rides its parent's
        // own grant cycle; a MOS fusion rides its producer's.
        if (spec && graph_.obs_s[prod[a]] == graph_.obs_s[i])
            aux |= kEdgeWakeSpeculative;
        if (prod[a] == p.fuse_link)
            aux |= kEdgeWakeFused;
        append(EdgeKind::Wake, prod[a], aux);
    }
    if (graph_.pool_pos[i] != kNoPoolPos) {
        const auto &order = graph_.pool_order[graph_.pool[i]];
        const u32 units = mp.units[graph_.pool[i]];
        if (graph_.pool_pos[i] >= units)
            append(EdgeKind::FuStruct,
                   order[graph_.pool_pos[i] - units],
                   u32{graph_.pool[i]});
    }
    // Conservative memory ordering: a load is not selectable until
    // every older store has resolved its address, which happens at
    // the store's select (address-generation grant). One edge from
    // the latest-selecting older store replays the binding blocker —
    // but only when the block actually overlapped this load's RS wait
    // (the store selected after the load dispatched); long-resolved
    // stores impose nothing.
    if ((graph_.flags[i] & kOpLoad) && mem_block_ != kNoOp &&
        graph_.obs_s[mem_block_] > graph_.obs_d[i]) {
        // Tick equality is the common shape: the store's grant and
        // the un-parked load's share one issue phase (the grant
        // resolves the address, the same-cycle re-evaluation then
        // admits the load), and the store's Select event is emitted
        // first within that phase, so the edge still goes forward in
        // the topo order. A store selecting strictly *after* the
        // load is impossible by the blocking rule; count it if the
        // event stream ever shows one rather than storing a
        // non-monotone edge.
        if (graph_.obs_s[mem_block_] > graph_.obs_s[i])
            ++graph_.dropped_nonmonotone_mem;
        else
            append(EdgeKind::MemOrder, mem_block_);
    }
    // A conventional grant requires every operand to land within the
    // arrival window (OooCore::evalConventional): the producer's
    // completion gates the *select*, not just the execution start.
    // Stored for every RS op; the Retimer nulls it for fused and
    // honored-EGPW grants, which select ahead of their data.
    if (!(graph_.flags[i] & kOpFrontendResolved))
        for (unsigned a = 0; a < nprod; ++a)
            append(EdgeKind::DataReady, prod[a]);

    // -> X.
    append(EdgeKind::SelectToExec, i);
    for (unsigned a = 0; a < nprod; ++a) {
        if (graph_.obs_w[prod[a]] > graph_.obs_x[i]) {
            // Width-replay conservative re-execution (and MOS fusion
            // under a replayed producer) can nominally start before a
            // producer's mid-cycle completion; the schedule is still
            // bounded through Wake + the conservative Exec window, so
            // the non-monotone data edge is dropped, not stored.
            ++graph_.dropped_nonmonotone_data;
            continue;
        }
        u32 aux = 0;
        if ((graph_.flags[i] & kOpTransparent) &&
            graph_.obs_w[prod[a]] == graph_.obs_x[i])
            aux |= kEdgeDataTransparent;
        append(EdgeKind::Data, prod[a], aux);
    }

    // -> W.
    append(EdgeKind::Exec, i);

    // -> C.
    append(EdgeKind::WbToCommit, i);
    if (i > 0)
        append(EdgeKind::CommitOrder, i - 1);
    if (i >= mp.commit_width)
        append(EdgeKind::CommitWidth, i - mp.commit_width);

    graph_.edge_begin.push_back(static_cast<u32>(graph_.edges.size()));
}

void
DepGraphBuilder::onCommit(const PipeEvent &e)
{
    const u32 i = static_cast<u32>(e.seq);
    graph_.obs_c[i] = e.tick;
    graph_.topo.push_back(nodeId(i, Milestone::C));
    if (e.arg & 1)
        graph_.flags[i] |= kOpBranchMispred;
    fatal_if(pending_[i].selected ==
                 ((graph_.flags[i] & kOpFrontendResolved) != 0),
             "op ", i, " select/frontend-resolved disagreement");
    fatal_if(i != commits_,
             "commit order violated the seq-order contract: op ", i,
             " committed as #", commits_);
    flushEdges(i);
    // In-order commit means every store committed so far is older
    // than any op flushed later: keep the running latest-resolver.
    if ((graph_.flags[i] & kOpStore) &&
        (mem_block_ == kNoOp ||
         graph_.obs_s[i] > graph_.obs_s[mem_block_]))
        mem_block_ = i;
    ++commits_;
}

void
DepGraphBuilder::onEvent(const PipeEvent &e)
{
    ++events_seen_;
    if (e.kind < PipeEventKind::NUM)
        ++graph_.event_counts[static_cast<size_t>(e.kind)];

    // No default: -Werror=switch enforces completeness.
    switch (e.kind) {
    case PipeEventKind::Fetch:
    case PipeEventKind::Decode:
    case PipeEventKind::Rename:
        break; // one macro-stage with Dispatch (same tick)
    case PipeEventKind::Dispatch:
        onDispatch(e);
        break;
    case PipeEventKind::Wakeup:
        break; // counted; edges derive from producer Select ticks
    case PipeEventKind::Select:
        onSelect(e);
        break;
    case PipeEventKind::ExecBegin:
        graph_.obs_x[static_cast<u32>(e.seq)] = e.tick;
        graph_.topo.push_back(
            nodeId(static_cast<u32>(e.seq), Milestone::X));
        break;
    case PipeEventKind::Writeback: {
        const u32 i = static_cast<u32>(e.seq);
        graph_.obs_w[i] = e.tick;
        if (graph_.flags[i] & kOpFrontendResolved) {
            // No ExecBegin is ever emitted for these; the execution
            // window collapses onto the writeback tick.
            graph_.obs_x[i] = e.tick;
            graph_.topo.push_back(nodeId(i, Milestone::X));
        }
        graph_.topo.push_back(nodeId(i, Milestone::W));
        break;
    }
    case PipeEventKind::Commit:
        onCommit(e);
        break;
    case PipeEventKind::Squash:
        break; // reserved: never emitted (counted above if it ever is)
    case PipeEventKind::EgpwArm:
    case PipeEventKind::EgpwFire:
    case PipeEventKind::EgpwWaste:
        break; // speculation outcomes: counts only
    case PipeEventKind::TransparentPass:
        graph_.flags[static_cast<u32>(e.seq)] |= kOpTransparent;
        break;
    case PipeEventKind::RecycleLink:
        break; // the recycled producer is recovered via Data edge ticks
    case PipeEventKind::Fuse: {
        const u32 i = static_cast<u32>(e.seq);
        graph_.flags[i] |= kOpFused;
        pending_[i].fuse_link = static_cast<u32>(e.link);
        // A fused op rides its producer's FU and books none of its
        // own (the pool can exceed its unit count on fusion cycles),
        // so it must not constrain — or be constrained by — FU
        // structural order. Its Select was emitted just before this
        // event, so it is the tail of its pool's order list.
        auto &order = graph_.pool_order[graph_.pool[i]];
        fatal_if(order.empty() || order.back() != i,
                 "Fuse event for op ", i,
                 " did not follow its own Select");
        order.pop_back();
        graph_.pool_pos[i] = kNoPoolPos;
        break;
    }
    case PipeEventKind::Replay:
        graph_.flags[static_cast<u32>(e.seq)] |=
            e.arg == 1 ? kOpLaReplay : kOpWidthReplay;
        break;
    case PipeEventKind::NUM:
        break;
    }
}

DepGraph
DepGraphBuilder::finalize()
{
    fatal_if(!run_open_, "finalize() before any onBeginRun()");
    fatal_if(commits_ != graph_.num_ops,
             "incomplete run: ", commits_, " of ", graph_.num_ops,
             " ops committed");
    run_open_ = false;
    pending_.clear();
    pending_.shrink_to_fit();
#ifndef NDEBUG
    const std::string err = graph_.validate();
    fatal_if(!err.empty(), "dependence graph invalid: ", err);
#endif
    return std::move(graph_);
}

} // namespace redsoc
