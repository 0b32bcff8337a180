#include "critpath/dep_graph_builder.h"

#include <vector>

#include "common/logging.h"

namespace redsoc {

namespace {

/** finalize()'s per-op edge bound failed: kept out of line so the
 *  per-edge append stays a compare, a store and an increment. With a
 *  formatted fatal() inline, each of append's ~20 inlined copies grew
 *  finalize() by ~25 insns; a whole-library (LTO) build then hit
 *  --param inline-unit-growth, left several calls out of line and
 *  made finalize() ~35% slower. */
[[noreturn, gnu::cold, gnu::noinline]] void
edgeBoundExceeded(u32 op)
{
    fatal("op ", op, " has more edges than the per-op bound ",
          kMaxEdgesPerOp);
}

} // namespace

DepGraphBuilder::DepGraphBuilder(const Trace &trace,
                                 const CoreConfig &config)
    : GraphRecorder(trace.size()), config_(&config)
{
}

DepGraph
DepGraphBuilder::finalize()
{
    fatal_if(!run_open_, "finalize() before any run began");
    fatal_if(commits_ != num_ops_, "incomplete run: ", commits_, " of ",
             num_ops_, " ops committed");
    run_open_ = false;
    const u32 n = num_ops_;

    DepGraph g;
    g.num_ops = n;
    MachineParams &mp = g.params;
    mp.frontend_width = config_->frontend_width;
    mp.commit_width = config_->commit_width;
    mp.rob_entries = config_->rob_entries;
    mp.rs_entries = config_->rs_entries;
    mp.lsq_entries = config_->lsq_entries;
    mp.units = {config_->alu_units, config_->simd_units, config_->fp_units,
                config_->mem_ports};
    mp.redirect_penalty = config_->redirect_penalty;
    mp.ticks_per_cycle = ticks_per_cycle_;
    mp.ci_precision_bits = config_->ci_precision_bits;
    mp.slack_threshold_ticks = config_->slack_threshold_ticks;

    g.obs_d = std::move(obs_d_);
    g.obs_s = std::move(obs_s_);
    g.obs_x = std::move(obs_x_);
    g.obs_w = std::move(obs_w_);
    g.obs_c = std::move(obs_c_);
    g.flags = std::move(flags_);
    g.pool = std::move(pool_);
    g.pool_pos = std::move(pool_pos_);
    for (size_t p = 0; p < g.pool_order.size(); ++p)
        g.pool_order[p] = std::move(pool_order_[p]);
    g.topo = std::move(topo_);

    // Reserve the per-op worst case (~15 edges per op in practice):
    // the array never regrows. The never-written tail is page-region
    // address space, resident only where other arrays have used those
    // pages before.
    g.edges.reserve(size_t{n} * kMaxEdgesPerOp);
    g.edge_begin.reserve(size_t{n} * kNumMilestones + 1);

    // One op's edges and node fences are staged here and appended to
    // the CSR with one copy each: a push_back per edge would reload
    // and store the vector's end on every write.
    u32 i = 0;
    Edge buf[kMaxEdgesPerOp];
    u32 n_buf = 0;
    u32 fence[kNumMilestones];
    u32 n_fence = 0;
    auto append = [&](EdgeKind kind, u32 src, u32 aux = 0) {
        if (n_buf == kMaxEdgesPerOp)
            edgeBoundExceeded(i);
        buf[n_buf++] = Edge{src, aux, kind};
    };
    // Opens node (i, ms): its in-edges are appended next.
    auto open = [&]() {
        fence[n_fence++] = static_cast<u32>(g.edges.size()) + n_buf;
    };

    // The last lsq_entries memory ops, oldest at mem_ring[mem_next].
    std::vector<u32> mem_ring(mp.lsq_entries, kNoOp);
    u32 mem_next = 0;
    u32 rs_dispatched = 0;
    // The committed store with the latest select so far: the op
    // whose address resolution (at its select) lifted the
    // conservative older-store block last (MemOrder source).
    u32 mem_block = kNoOp;

    for (; i < n; ++i) {
        n_buf = 0;
        n_fence = 0;
        const u16 fl = g.flags[i];
        const bool resolved = (fl & kOpFrontendResolved) != 0;
        const Links links = resolved ? Links{} : links_[i];
        u32 nprod = 0;
        while (nprod < kMaxProducers && links.prod[nprod] != kNoOp)
            ++nprod;
        const std::array<u32, kMaxProducers> &prod = links.prod;

        // RS back-pressure: a slot frees at select, so at least
        // (k - rs_entries + 1) grants precede the (k+1)'th RS
        // dispatch (the core never dispatches into a full RS); the
        // (k - rs_entries)'th grant is the binding one.
        u32 rs_src = kNoOp;
        if (!resolved) {
            const u32 k = rs_dispatched++;
            if (k >= mp.rs_entries)
                rs_src = rs_issue_order_[k - mp.rs_entries];
        }
        // LSQ entries free at commit, and both dispatch and commit
        // are in program order: the (k - lsq_entries)'th memory op's
        // commit gates the (k+1)'th memory dispatch exactly.
        u32 lsq_src = kNoOp;
        if (fl & kOpMem) {
            lsq_src = mem_ring[mem_next];
            mem_ring[mem_next] = i;
            if (++mem_next == mp.lsq_entries)
                mem_next = 0;
        }

        // -> D.
        open();
        if (i > 0 && (g.flags[i - 1] & kOpBranchMispred))
            append(EdgeKind::BranchRecover, i - 1);
        if (i > 0)
            append(EdgeKind::FrontendOrder, i - 1);
        if (i >= mp.frontend_width)
            append(EdgeKind::FrontendWidth, i - mp.frontend_width);
        if (i >= mp.rob_entries)
            append(EdgeKind::RobCap, i - mp.rob_entries);
        if (rs_src != kNoOp)
            append(EdgeKind::RsCap, rs_src);
        if (lsq_src != kNoOp)
            append(EdgeKind::LsqCap, lsq_src);

        // -> S.
        open();
        append(EdgeKind::DispatchToSelect, i);
        const bool spec = (fl & kOpEgpwSelect) != 0;
        for (u32 a = 0; a < nprod; ++a) {
            u32 aux = 0;
            // Same-cycle select windows: an EGPW grant rides its
            // parent's own grant cycle; a MOS fusion rides its
            // producer's.
            if (spec && g.obs_s[prod[a]] == g.obs_s[i])
                aux |= kEdgeWakeSpeculative;
            if (prod[a] == links.fuse)
                aux |= kEdgeWakeFused;
            append(EdgeKind::Wake, prod[a], aux);
        }
        if (g.pool_pos[i] != kNoPoolPos) {
            const auto &order = g.pool_order[g.pool[i]];
            const u32 units = mp.units[g.pool[i]];
            if (g.pool_pos[i] >= units)
                append(EdgeKind::FuStruct, order[g.pool_pos[i] - units],
                       u32{g.pool[i]});
        }
        // Conservative memory ordering: a load is not selectable until
        // every older store has resolved its address, which happens at
        // the store's select (address-generation grant). One edge from
        // the latest-selecting older store replays the binding blocker
        // — but only when the block actually overlapped this load's RS
        // wait (the store selected after the load dispatched);
        // long-resolved stores impose nothing.
        if ((fl & kOpLoad) && mem_block != kNoOp &&
            g.obs_s[mem_block] > g.obs_d[i]) {
            // Tick equality is the common shape: the store's grant and
            // the un-parked load's share one issue phase (the grant
            // resolves the address, the same-cycle re-evaluation then
            // admits the load), and the store's select is reported
            // first within that phase, so the edge still goes forward
            // in the topo order. A store selecting strictly *after*
            // the load is impossible by the blocking rule; count it if
            // the recorded ticks ever show one rather than storing a
            // non-monotone edge.
            if (g.obs_s[mem_block] > g.obs_s[i])
                ++g.dropped_nonmonotone_mem;
            else
                append(EdgeKind::MemOrder, mem_block);
        }
        // A conventional grant requires every operand to land within
        // the arrival window (OooCore::evalConventional): the
        // producer's completion gates the *select*, not just the
        // execution start. Stored for every RS op; the Retimer nulls
        // it for fused and honored-EGPW grants, which select ahead of
        // their data.
        for (u32 a = 0; a < nprod; ++a)
            append(EdgeKind::DataReady, prod[a]);

        // -> X.
        open();
        append(EdgeKind::SelectToExec, i);
        for (u32 a = 0; a < nprod; ++a) {
            if (g.obs_w[prod[a]] > g.obs_x[i]) {
                // Width-replay conservative re-execution (and MOS
                // fusion under a replayed producer) can nominally
                // start before a producer's mid-cycle completion; the
                // schedule is still bounded through Wake + the
                // conservative Exec window, so the non-monotone data
                // edge is dropped, not stored.
                ++g.dropped_nonmonotone_data;
                continue;
            }
            u32 aux = 0;
            if ((fl & kOpTransparent) && g.obs_w[prod[a]] == g.obs_x[i])
                aux |= kEdgeDataTransparent;
            append(EdgeKind::Data, prod[a], aux);
        }

        // -> W.
        open();
        append(EdgeKind::Exec, i);

        // -> C.
        open();
        append(EdgeKind::WbToCommit, i);
        if (i > 0)
            append(EdgeKind::CommitOrder, i - 1);
        if (i >= mp.commit_width)
            append(EdgeKind::CommitWidth, i - mp.commit_width);

        g.edges.insert(g.edges.end(), buf, buf + n_buf);
        g.edge_begin.insert(g.edge_begin.end(), fence, fence + n_fence);
        // In-order commit means every store before this op is older
        // than every op after it: keep the running latest-resolver.
        if ((fl & kOpStore) &&
            (mem_block == kNoOp || g.obs_s[i] > g.obs_s[mem_block]))
            mem_block = i;
    }
    g.edge_begin.push_back(static_cast<u32>(g.edges.size()));

    links_ = {};
    rs_issue_order_ = {};
    moments_ = {};
#ifndef NDEBUG
    const std::string err = g.validate();
    fatal_if(!err.empty(), "dependence graph invalid: ", err);
#endif
    return g;
}

} // namespace redsoc
