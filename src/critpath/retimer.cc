#include "critpath/retimer.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

#include "common/logging.h"

namespace redsoc {

Retimer::Retimer(const DepGraph &graph)
    : graph_(&graph),
      // Only the tick arithmetic of the clock is used here; the
      // physical period is irrelevant to re-timing.
      clock_(graph.params.ci_precision_bits, Picos{1000})
{
    fatal_if(clock_.ticksPerCycle() != graph.params.ticks_per_cycle,
             "graph tpc ", graph.params.ticks_per_cycle,
             " inconsistent with ci_precision_bits ",
             graph.params.ci_precision_bits);
    buildPlan();
}

void
Retimer::buildPlan()
{
    const DepGraph &g = *graph_;
    const Tick tpc = clock_.ticksPerCycle();

    // A producer is "plain" when its select, execute, and writeback
    // are model-invariantly chained: conventional select (not EGPW,
    // so its own operands are bounded by its select via DataReady),
    // not transparent (fixed +tpc select-to-exec), not fused, not
    // frontend-resolved. For such p, every model re-times
    // X(p) = S(p) + tpc and W(p) = X(p) + kx(p), with S-lane values
    // cycle-aligned — which is what the dominance proofs below rest
    // on (DESIGN.md section 13).
    const auto plainOp = [&g](u32 op) {
        return !(g.flags[op] &
                 (kOpTransparent | kOpFused | kOpEgpwSelect |
                  kOpFrontendResolved));
    };

    // Fold X into W unconditionally: structurally W's only in-edge is
    // Exec (W = X + kx verbatim in every model) and X's only consumer
    // is that Exec edge (Data, DataReady and BranchRecover all source
    // from W), so the W node takes X's in-edges, and both the Exec
    // edge and the X node disappear. Linear entries (SelectToExec)
    // absorb kx into k; arrival-masked Data entries switch to the
    // post-mask-add classes, which add kx *after* the model's arrival
    // quantization — exactly max(sel + kx, ceil(arrival) + kx) =
    // X + kx = W. Returns false for an edge no model needs.
    const auto classify = [&](const Edge &edge, u32 i, PlanEntry &p) {
        const u16 fl = g.flags[i];
        p.src = nodeId(edge.src, edgeSrcMilestone(edge.kind));
        p.k = 0;
        p.op = PlanOp::InvAdd;
        switch (edge.kind) {
        case EdgeKind::FrontendOrder:
        case EdgeKind::RobCap:
        case EdgeKind::RsCap:
        case EdgeKind::LsqCap:
        case EdgeKind::CommitOrder:
        case EdgeKind::MemOrder:
            return true; // InvAdd k=0
        case EdgeKind::FrontendWidth:
        case EdgeKind::CommitWidth:
            p.k = static_cast<u32>(tpc);
            return true;
        case EdgeKind::BranchRecover:
            p.op = PlanOp::Branch;
            return true;
        case EdgeKind::DispatchToSelect:
            if (!(fl & kOpFrontendResolved))
                p.k = static_cast<u32>(tpc);
            return true;
        case EdgeKind::Wake:
            if (edge.aux & kEdgeWakeFused)
                return true; // k=0
            if (edge.aux & kEdgeWakeSpeculative)
                p.op = PlanOp::WakeSpec;
            else
                p.k = static_cast<u32>(tpc);
            return true;
        case EdgeKind::FuStruct:
            // Re-derived per model from the pool grant order (the
            // retimeAll FU gather); at fu_scale 1 the derivation
            // reproduces this edge exactly.
            return false;
        case EdgeKind::DataReady:
            if (fl & kOpFused)
                return false; // no constraint in any model
            if (fl & kOpEgpwSelect)
                p.op = (fl & kOpTransparent) ? PlanOp::DrEgpwTransp
                                             : PlanOp::DrEgpwPlain;
            else
                p.op = (fl & kOpTransparent) ? PlanOp::DrTransp
                                             : PlanOp::DrPlain;
            return true;
        case EdgeKind::SelectToExec:
            if (fl & (kOpFused | kOpFrontendResolved))
                p.k = static_cast<u32>(g.obs_x[i] - g.obs_s[i]);
            else if (fl & kOpTransparent)
                p.op = PlanOp::SelTransp;
            else
                p.k = static_cast<u32>(tpc);
            p.k += static_cast<u32>(g.obs_w[i] - g.obs_x[i]);
            return true;
        case EdgeKind::Data:
            p.op = (edge.aux & kEdgeDataTransparent) ? PlanOp::DataTranspW
                                                     : PlanOp::DataPlainW;
            p.k = static_cast<u32>(g.obs_w[i] - g.obs_x[i]);
            return true;
        case EdgeKind::WbToCommit:
            p.op = PlanOp::Ceil;
            return true;
        case EdgeKind::Exec: // W's own range: replaced by the fold
        case EdgeKind::NUM:
            break;
        }
        panic("edge kind ", edgeKindName(edge.kind),
              " outside the ranges the plan walks");
        return false;
    };

    // Capacity-edge dominance: C-lane values are monotone in op index
    // in every model (every C node chains off C(i-1) via CommitOrder),
    // so of a D node's C-sourced k=0 capacity bounds (RobCap, LsqCap)
    // only the youngest source can ever bind — drop the rest.
    const auto pruneCapacity = [](PlanEntry *buf, u32 n) {
        const auto isCapBound = [](const PlanEntry &p) {
            return p.op == PlanOp::InvAdd && p.k == 0 &&
                   nodeMilestone(p.src) == Milestone::C;
        };
        u32 youngest = 0;
        u32 n_cap = 0;
        for (u32 j = 0; j < n; ++j)
            if (isCapBound(buf[j])) {
                ++n_cap;
                youngest = std::max(youngest, buf[j].src);
            }
        if (n_cap <= 1)
            return n;
        return static_cast<u32>(
            std::remove_if(buf, buf + n,
                           [&](const PlanEntry &p) {
                               return isCapBound(p) && p.src != youngest;
                           }) -
            buf);
    };

    // Wake/DataReady pair dominance: a producer p constrains an op's
    // select twice — Wake (S(p) side) and DataReady (W(p) side). For
    // plain p both sides are fixed functions of S(p) in every model,
    // so one always dominates: exec latency kx(p) <= tpc means
    // ceil(W(p)) - window <= S(p) + tpc (the Wake bound) in all
    // models — drop DataReady; kx(p) > tpc means ceil(kx) >= 2tpc, so
    // DataReady clears the Wake bound even at the widest window —
    // drop a plain Wake (a speculative Wake must stay: EGPW-honoring
    // models collapse DataReady to zero but still need the
    // same-cycle S(p) bound).
    const auto pruneWakePairs = [&](PlanEntry *buf, u32 n) {
        const auto erase = [&](u32 at) {
            std::copy(buf + at + 1, buf + n, buf + at);
            --n;
        };
        for (u32 d = 0; d < n; ++d) {
            const PlanOp op = buf[d].op;
            if (op != PlanOp::DrPlain && op != PlanOp::DrTransp &&
                op != PlanOp::DrEgpwPlain && op != PlanOp::DrEgpwTransp)
                continue;
            const u32 prod = nodeOp(buf[d].src);
            if (!plainOp(prod))
                continue;
            if (g.obs_w[prod] - g.obs_x[prod] <= tpc) {
                erase(d--);
                continue;
            }
            const u32 wake_src = nodeId(prod, Milestone::S);
            for (u32 w = 0; w < n; ++w) {
                if (buf[w].op == PlanOp::InvAdd &&
                    buf[w].src == wake_src && buf[w].k == tpc) {
                    erase(w);
                    if (w < d)
                        --d;
                    break;
                }
            }
        }
        return n;
    };

    // One walk in topological order writes the rank-ordered stream:
    // the batched pass settles nodes in g.topo order, so both the
    // per-node headers and the entry array are read strictly
    // sequentially. Each node classifies its own CSR range
    // (W takes X's), applies the prunes, and groups same-class entries
    // (max is commutative, so intra-group order is free): InvAdd
    // first — it dominates the mix and the batched pass has a
    // table-free fast path for it. A node's stream index is its rank;
    // sources are rewritten to ranks as they are written, and each
    // rank's last reader is noted, so retimeAll can hold a row only
    // while it is still to be read. The X nodes keep kNoNode.
    const auto classKey = [](PlanOp op) {
        return op == PlanOp::InvAdd ? 0u : 1u + static_cast<u32>(op);
    };
    const size_t n_ranks = size_t{g.num_ops} * (kNumMilestones - 1);
    node_refs_.clear();
    node_refs_.reserve(n_ranks);
    plan_.clear();
    plan_.reserve(g.edges.size());
    RegionVector<u32> rank(size_t{g.num_ops} * kNumMilestones, kNoNode);
    last_use_.clear();
    last_use_.reserve(n_ranks);
    PlanEntry buf[kMaxEdgesPerOp];
    for (const u32 node : g.topo) {
        const Milestone ms = nodeMilestone(node);
        if (ms == Milestone::X)
            continue; // folded into W: no in-edges, no readers
        const u32 i = nodeOp(node);
        const u32 range =
            ms == Milestone::W ? nodeId(i, Milestone::X) : node;
        u32 n = 0;
        for (u32 e = g.edge_begin[range]; e < g.edge_begin[range + 1];
             ++e)
            if (classify(g.edges[e], i, buf[n]))
                ++n;
        if (ms == Milestone::D)
            n = pruneCapacity(buf, n);
        else if (ms == Milestone::S)
            n = pruneWakePairs(buf, n);
        // Stable insertion sort by class over the few entries.
        for (u32 a = 1; a < n; ++a) {
            const PlanEntry p = buf[a];
            u32 j = a;
            for (; j > 0 && classKey(buf[j - 1].op) > classKey(p.op); --j)
                buf[j] = buf[j - 1];
            buf[j] = p;
        }

        const u32 r = static_cast<u32>(node_refs_.size());
        rank[node] = r;
        last_use_.push_back(r);
        node_refs_.push_back(NodeRef{node, n});
        for (u32 j = 0; j < n; ++j) {
            PlanEntry p = buf[j];
            p.src = rank[p.src];
            fatal_if(p.src == kNoNode, "node ", node,
                     " reads a node not yet emitted in topo order");
            last_use_[p.src] = r;
            plan_.push_back(p);
        }
    }

    // The FU gathers address S nodes by pool position and read
    // pos - units before pos is settled, so ranks must rise along each
    // pool's grant order (the core reports grants so).
    for (size_t p = 0; p < pool_rank_.size(); ++p) {
        const RegionVector<u32> &order = g.pool_order[p];
        pool_rank_[p].resize(order.size());
        for (size_t k = 0; k < order.size(); ++k) {
            pool_rank_[p][k] = rank[nodeId(order[k], Milestone::S)];
            fatal_if(k > 0 && pool_rank_[p][k] <= pool_rank_[p][k - 1],
                     "pool grant ", k, " reported out of grant order");
        }
    }
    end_rank_ = g.num_ops == 0
                    ? kNoNode
                    : rank[nodeId(g.num_ops - 1, Milestone::C)];
}

Tick
Retimer::edgeCandidate(const WhatIfModel &m, const Edge &edge,
                       u32 dst_op, Tick src_t) const
{
    const DepGraph &g = *graph_;
    const Tick tpc = clock_.ticksPerCycle();
    switch (edge.kind) {
    case EdgeKind::FrontendOrder:
    case EdgeKind::RobCap:
    case EdgeKind::RsCap:
    case EdgeKind::LsqCap:
    case EdgeKind::CommitOrder:
        // Same-cycle resource recycling: the freeing phase runs
        // before the consuming phase of the same cycle.
        return src_t;
    case EdgeKind::FrontendWidth:
    case EdgeKind::CommitWidth:
        return src_t + tpc;
    case EdgeKind::BranchRecover: {
        const Cycle done = clock_.cycleOf(src_t == 0 ? 0 : src_t - 1);
        return clock_.cycleStart(done + 1 + g.params.redirect_penalty);
    }
    case EdgeKind::DispatchToSelect:
        return (g.flags[dst_op] & kOpFrontendResolved) ? src_t
                                                       : src_t + tpc;
    case EdgeKind::Wake:
        // EGPW grants ride the parent's select cycle; MOS fusions
        // ride the producer's. Everything else pays the broadcast.
        if ((edge.aux & kEdgeWakeFused) ||
            ((edge.aux & kEdgeWakeSpeculative) && m.egpw))
            return src_t;
        return src_t + tpc;
    case EdgeKind::FuStruct:
        // fu_scale == 1 replay; scaled models skip stored FuStruct
        // edges and re-derive the constraint from pool_order.
        return src_t + tpc;
    case EdgeKind::MemOrder:
        // The store's grant resolves its address and the same-cycle
        // re-evaluation can admit the parked load within the very
        // same issue phase, so the constraint is tick-equality.
        return src_t;
    case EdgeKind::DataReady: {
        // Grant only once the operand lands within the arrival
        // window: one cycle ahead conventionally, two for a
        // transparent recycle (the producer may complete mid-cycle
        // after the grant). EGPW grants exist precisely to break
        // this wait; fused ops ride their producer's grant.
        const u16 fl = g.flags[dst_op];
        if (fl & kOpFused)
            return 0;
        if ((fl & kOpEgpwSelect) && m.egpw)
            return 0;
        const Tick ahead = m.zero_latency_recycle ||
                                   ((fl & kOpTransparent) && !m.no_recycle)
                               ? 2 * tpc
                               : tpc;
        const Tick bound = clock_.ceilToBoundary(src_t);
        return bound > ahead ? bound - ahead : 0;
    }
    case EdgeKind::SelectToExec: {
        const u16 fl = g.flags[dst_op];
        if (fl & (kOpFused | kOpFrontendResolved))
            return src_t + (g.obs_x[dst_op] - g.obs_s[dst_op]);
        if ((fl & kOpTransparent) && !m.no_recycle)
            return src_t; // data arrival sets the transparent start
        return src_t + tpc;
    }
    case EdgeKind::Data: {
        if (m.zero_latency_recycle)
            return src_t;
        if (!(edge.aux & kEdgeDataTransparent) || m.no_recycle)
            return clock_.ceilToBoundary(src_t);
        // Transparent pass: the consumer latches at the producer's CI
        // rounded up to the model's precision grain (the latch can
        // only close on an instant the CI field can express).
        unsigned bits = m.ci_bits ? m.ci_bits : clock_.precisionBits();
        if (bits > clock_.precisionBits())
            bits = clock_.precisionBits();
        const Tick grain = tpc >> bits;
        return (src_t + grain - 1) / grain * grain;
    }
    case EdgeKind::Exec:
        // Execution latency is a property of the op, not the config.
        return src_t + (g.obs_w[dst_op] - g.obs_x[dst_op]);
    case EdgeKind::WbToCommit:
        return clock_.ceilToBoundary(src_t);
    case EdgeKind::NUM:
        break;
    }
    panic("unreachable edge kind");
    return 0;
}

Retimer::PoolUnits
Retimer::effectiveUnits(double fu_scale) const
{
    fatal_if(!std::isfinite(fu_scale) || !(fu_scale > 0.0),
             "fu_scale must be finite and positive, got ", fu_scale);
    // A pool's units gate nothing at or past its grant count, so the
    // count caps them: the result fits u32, and so does pos + units.
    PoolUnits eff{};
    for (size_t p = 0; p < eff.size(); ++p) {
        const double grants = static_cast<double>(
            std::max<size_t>(graph_->pool_order[p].size(), 1));
        eff[p] = static_cast<u32>(std::clamp(
            graph_->params.units[p] * fu_scale, 1.0, grants));
    }
    return eff;
}

template <typename Candidate>
void
Retimer::settleNodes(const Candidate &cand, const PoolUnits *fu_units)
{
    const DepGraph &g = *graph_;
    const Tick tpc = clock_.ticksPerCycle();
    for (const u32 node : g.topo) {
        const u32 i = nodeOp(node);
        const u32 ms = static_cast<u32>(nodeMilestone(node));
        Tick best = 0;
        u32 best_src = kNoNode;
        u8 best_kind = static_cast<u8>(EdgeKind::NUM);
        for (u32 e = g.edge_begin[node]; e < g.edge_begin[node + 1]; ++e) {
            const Edge &edge = g.edges[e];
            if (fu_units && edge.kind == EdgeKind::FuStruct)
                continue;
            const u32 src_node =
                nodeId(edge.src, edgeSrcMilestone(edge.kind));
            const Tick c = cand(edge, i, ms, time_[src_node]);
            if (c > best) {
                best = c;
                best_src = src_node;
                best_kind = static_cast<u8>(edge.kind);
            }
        }
        if (fu_units && ms == static_cast<u32>(Milestone::S) &&
            g.pool_pos[i] != kNoPoolPos) {
            const u8 pool = g.pool[i];
            const u32 pos = g.pool_pos[i];
            const u32 units = (*fu_units)[pool];
            if (pos >= units) {
                const u32 src_node =
                    nodeId(g.pool_order[pool][pos - units], Milestone::S);
                const Tick c = time_[src_node] + tpc;
                if (c > best) {
                    best = c;
                    best_src = src_node;
                    best_kind = static_cast<u8>(EdgeKind::FuStruct);
                }
            }
        }
        time_[node] = best;
        arg_src_[node] = best_src;
        arg_kind_[node] = best_kind;
    }
}

RetimeResult
Retimer::retime(const WhatIfModel &model)
{
    const DepGraph &g = *graph_;
    RetimeResult r;
    r.model = model.name;
    r.ops = g.num_ops;

    const size_t n_nodes = size_t{g.num_ops} * kNumMilestones;
    time_.assign(n_nodes, 0);
    arg_src_.assign(n_nodes, kNoNode);
    arg_kind_.assign(n_nodes, static_cast<u8>(EdgeKind::NUM));

    // The rule is chosen once per pass, not per edge.
    if (model.exact_replay) {
        // Tight replay: re-apply the latency the simulator observed.
        // The source milestone varies per edge, so the observed lanes
        // are read through a pointer table.
        const std::array<const Tick *, kNumMilestones> obs{
            g.obs_d.data(), g.obs_s.data(), g.obs_x.data(),
            g.obs_w.data(), g.obs_c.data()};
        settleNodes(
            [&obs](const Edge &edge, u32 dst_op, u32 dst_ms, Tick src_t) {
                const u32 src_ms =
                    static_cast<u32>(edgeSrcMilestone(edge.kind));
                return src_t + (obs[dst_ms][dst_op] - obs[src_ms][edge.src]);
            },
            nullptr);
    } else {
        const PoolUnits eff_units = effectiveUnits(model.fu_scale);
        settleNodes(
            [this, &model](const Edge &edge, u32 dst_op, u32, Tick src_t) {
                return edgeCandidate(model, edge, dst_op, src_t);
            },
            model.fu_scale != 1.0 ? &eff_units : nullptr);
    }

    if (g.num_ops == 0)
        return r;

    // Commits are in order, so the last op's C node is the run's end;
    // the simulator's run loop exits one cycle after it.
    u32 node = nodeId(g.num_ops - 1, Milestone::C);
    r.cycles = clock_.cycleOf(time_[node]) + 1;

    // Walk the binding constraints back to a source node for the
    // critical-path breakdown.
    while (arg_src_[node] != kNoNode) {
        ++r.path_kinds[arg_kind_[node]];
        ++r.path_len;
        node = arg_src_[node];
    }
    return r;
}

std::vector<RetimeResult>
Retimer::retimeAll(const std::vector<WhatIfModel> &models)
{
    const DepGraph &g = *graph_;
    const u32 M = static_cast<u32>(models.size());
    fatal_if(M == 0 || M > 64, "retimeAll wants 1..64 models, got ",
             M);

    // The batched lanes are deliberately u32 (tick counts of a single
    // traced run fit with room to spare; the narrow rows are what
    // keeps the pass memory-bound instead of worse).
    // redsoc-lint: allow(cycle-narrow)
    const u32 tpc = static_cast<u32>(clock_.ticksPerCycle());
    fatal_if((tpc & (tpc - 1)) != 0,
             "retimeAll's mask arithmetic needs a power-of-two tick "
             "period, got ", tpc);
    const u32 ceil_add = tpc - 1;
    const u32 ceil_mask = ~ceil_add;
    constexpr u32 kSkip = ~u32{0};

    // Per-model constant vectors: everything edgeCandidate() decides
    // from the model alone, folded down so the lane loops are pure
    // add/and/max.
    std::vector<u32> wake_add(M), sel_add(M), dp_add(M),
        dp_mask(M), dt_add(M), dt_mask(M), dr_p_sub(M), dr_t_sub(M),
        dr_ep_sub(M), dr_et_sub(M);
    // Models re-deriving FU structural constraints, grouped by
    // effective unit-count signature (one gather per group).
    std::vector<PoolUnits> fu_groups;
    std::vector<u32> group_of(M);

    for (u32 m = 0; m < M; ++m) {
        const WhatIfModel &mod = models[m];
        fatal_if(mod.exact_replay, "retimeAll is for what-if models; "
                 "replay '", mod.name, "' via retime()");
        const bool zl = mod.zero_latency_recycle;
        const bool nr = mod.no_recycle;
        wake_add[m] = mod.egpw ? 0 : tpc;
        sel_add[m] = nr ? tpc : 0;
        dp_add[m] = zl ? 0 : ceil_add;
        dp_mask[m] = zl ? ~u32{0} : ceil_mask;
        if (zl) {
            dt_add[m] = 0;
            dt_mask[m] = ~u32{0};
        } else if (nr) {
            dt_add[m] = ceil_add;
            dt_mask[m] = ceil_mask;
        } else {
            unsigned bits =
                mod.ci_bits ? mod.ci_bits : clock_.precisionBits();
            if (bits > clock_.precisionBits())
                bits = clock_.precisionBits();
            const u32 grain = tpc >> bits;
            dt_add[m] = grain - 1;
            dt_mask[m] = ~(grain - 1);
        }
        dr_p_sub[m] = zl ? 2 * tpc : tpc;
        dr_t_sub[m] = zl ? 2 * tpc : (nr ? tpc : 2 * tpc);
        dr_ep_sub[m] = mod.egpw ? kSkip : dr_p_sub[m];
        dr_et_sub[m] = mod.egpw ? kSkip : dr_t_sub[m];
        const PoolUnits eff = effectiveUnits(mod.fu_scale);
        group_of[m] = static_cast<u32>(
            std::find(fu_groups.begin(), fu_groups.end(), eff) -
            fu_groups.begin());
        if (group_of[m] == fu_groups.size())
            fu_groups.push_back(eff);
    }
    const u32 n_groups = static_cast<u32>(fu_groups.size());
    const u32 redirect_add =
        (1 + static_cast<u32>(g.params.redirect_penalty)) * tpc;

    // Pad the lane count to a whole number of 8-wide vector steps so
    // the per-entry lane loops never run a scalar epilogue. Padding
    // lanes replay model 0's constants and join no FU group; their
    // results are ignored.
    const u32 MP = (M + 7u) & ~7u;
    for (std::vector<u32> *v :
         {&wake_add, &sel_add, &dp_add, &dp_mask, &dt_add,
          &dt_mask, &dr_p_sub, &dr_t_sub, &dr_ep_sub, &dr_et_sub})
        v->resize(MP, v->front());

    // Fold every edge class into one uniform per-lane formula
    //
    //   v = (src + k + add[cls][m]) & mask[cls][m]
    //   c = v >= sub[cls][m] ? v - sub[cls][m] : 0
    //
    // driven by three small class-indexed constant tables. Null rows
    // mask to zero, the EGPW-honored DataReady rows carry an
    // impossible subtrahend (~0) so they saturate to zero, and plain
    // adds use an all-ones mask with zero subtrahend — so the hot
    // loop has no per-entry class dispatch at all. An earlier
    // variant dispatched a switch per entry; its unpredictable
    // indirect branch cost ~3x the lane arithmetic. Only the rare
    // BranchRecover entries keep a special case (one well-predicted
    // compare per entry). The FU gathers get one lane mask per group:
    // all ones on its members, zero elsewhere. Tables and lanes are
    // whole LaneLines, so no vector load or store straddles a cache
    // line.
    const auto lineArray = [](auto &v, size_t n, u32 fill) {
        v.assign((n + 15) / 16, LaneLine{});
        u32 *const base = reinterpret_cast<u32 *>(v.data());
        std::fill_n(base, n, fill);
        return base;
    };
    const u32 n_cls = static_cast<u32>(PlanOp::Branch) + 1;
    std::vector<LaneLine> addtab_v, masktab_v, subtab_v, grpmask_v;
    u32 *const addtab = lineArray(addtab_v, size_t{n_cls} * MP, 0u);
    u32 *const masktab = lineArray(masktab_v, size_t{n_cls} * MP, ~u32{0});
    u32 *const subtab = lineArray(subtab_v, size_t{n_cls} * MP, 0u);
    u32 *const grpmask = lineArray(grpmask_v, size_t{n_groups} * MP, 0u);
    auto row = [MP](u32 *t, PlanOp op) {
        return &t[size_t{static_cast<u32>(op)} * MP];
    };
    for (u32 m = 0; m < MP; ++m) {
        row(masktab, PlanOp::Null)[m] = 0;
        row(subtab, PlanOp::Null)[m] = ~u32{0};
        row(addtab, PlanOp::WakeSpec)[m] = wake_add[m];
        row(addtab, PlanOp::SelTransp)[m] = sel_add[m];
        row(addtab, PlanOp::DataPlainW)[m] = dp_add[m];
        row(masktab, PlanOp::DataPlainW)[m] = dp_mask[m];
        row(addtab, PlanOp::DataTranspW)[m] = dt_add[m];
        row(masktab, PlanOp::DataTranspW)[m] = dt_mask[m];
        for (PlanOp op : {PlanOp::DrPlain, PlanOp::DrTransp,
                          PlanOp::DrEgpwPlain, PlanOp::DrEgpwTransp,
                          PlanOp::Ceil}) {
            row(addtab, op)[m] = ceil_add;
            row(masktab, op)[m] = ceil_mask;
        }
        row(subtab, PlanOp::DrPlain)[m] = dr_p_sub[m];
        row(subtab, PlanOp::DrTransp)[m] = dr_t_sub[m];
        row(subtab, PlanOp::DrEgpwPlain)[m] = dr_ep_sub[m];
        row(subtab, PlanOp::DrEgpwTransp)[m] = dr_et_sub[m];
        if (m < M)
            grpmask[size_t{group_of[m]} * MP + m] = ~u32{0};
    }

    // Row assignment (DESIGN.md section 13), in the pass itself: a
    // rank holds a lane row from its own rank up to its last reader's.
    // A rank takes its row (LIFO free list first, else a new one)
    // before the sources that die at it release theirs, so it never
    // lands on a row it still reads. Its last reader is known when it
    // is produced: the later of its last plan_ reader and its last FU
    // gather reader, the S node pos + units along its pool. The last
    // op's C row is pinned: the results read it after the pass.
    struct RowRec
    {
        u32 slot;
        u32 last;
    };
    const u32 n_ranks = static_cast<u32>(node_refs_.size());
    RegionVector<RowRec> rec;
    rec.reserve(n_ranks);
    // The free list is a plain array as long as the row capacity: a
    // row is never both live and free, so it cannot overflow, and the
    // entry loop makes no call (vector::push_back's out-of-line growth
    // path made the pass spill its lane registers).
    u32 cap = static_cast<u32>(lanes_.size() * 16 / MP);
    std::vector<u32> free_rows(cap);
    u32 n_free = 0;
    u32 rows = 0;
    u32 *lanes = reinterpret_cast<u32 *>(lanes_.data());
    const auto newRow = [&] {
        if (rows == cap) {
            cap = std::max(2 * cap, 64u);
            lanes_.resize((size_t{cap} * MP + 15) / 16);
            lanes = reinterpret_cast<u32 *>(lanes_.data());
            free_rows.resize(cap);
        }
        return rows++;
    };
    const auto release = [&](u32 s, u32 r) {
        if (rec[s].last == r) {
            rec[s].last = kNoNode;
            free_rows[n_free++] = rec[s].slot;
        }
    };

    // The node loop is instantiated per lane count: with the vector
    // width a compile-time constant the per-entry lane loops unroll
    // completely (no prologue/remainder control per entry), which is
    // where most of the per-entry fixed cost went in the
    // runtime-width variant.
    const auto pass = [&](auto mp_c) {
        constexpr u32 CMP = decltype(mp_c)::value;
        u32 best[CMP];
        size_t e = 0;
        for (u32 r = 0; r < n_ranks; ++r) {
            const NodeRef &ref = node_refs_[r];
            const size_t e_end = e + ref.count;
            const u32 own = n_free > 0 ? free_rows[--n_free] : newRow();
            for (u32 m = 0; m < CMP; ++m)
                best[m] = 0;
            for (; e < e_end; ++e) {
                const PlanEntry &p = plan_[e];
                const u32 *const src = &lanes[size_t{rec[p.src].slot} * CMP];
                // A released row is handed out by a later rank only.
                release(p.src, r);
                // InvAdd dominates the edge mix and needs none of the
                // class tables; buildPlan sorts classes within each
                // node's entries, so this branch flips at most twice
                // per node.
                if (p.op == PlanOp::InvAdd) {
                    const u32 k = p.k;
                    for (u32 m = 0; m < CMP; ++m) {
                        const u32 c = src[m] + k;
                        best[m] = best[m] < c ? c : best[m];
                    }
                    continue;
                }
                if (p.op == PlanOp::Branch) {
                    for (u32 m = 0; m < CMP; ++m) {
                        const u32 s = src[m];
                        const u32 c =
                            ((s == 0 ? 0 : s - 1) & ceil_mask) +
                            redirect_add;
                        best[m] = best[m] < c ? c : best[m];
                    }
                    continue;
                }
                const size_t row_off =
                    size_t{static_cast<u32>(p.op)} * CMP;
                const u32 *const av = &addtab[row_off];
                const u32 *const mv = &masktab[row_off];
                const u32 k = p.k;
                // Post-mask-add classes (X folded into W): the exec
                // latency k lands after the arrival quantization.
                if (p.op == PlanOp::DataPlainW ||
                    p.op == PlanOp::DataTranspW) {
                    for (u32 m = 0; m < CMP; ++m) {
                        const u32 c = ((src[m] + av[m]) & mv[m]) + k;
                        best[m] = best[m] < c ? c : best[m];
                    }
                    continue;
                }
                const u32 *const sv = &subtab[row_off];
                for (u32 m = 0; m < CMP; ++m) {
                    const u32 v = (src[m] + k + av[m]) & mv[m];
                    const u32 c = v >= sv[m] ? v - sv[m] : 0;
                    best[m] = best[m] < c ? c : best[m];
                }
            }
            // FU gathers: every model re-derives its structural bound
            // from the pool grant order, at fu_scale 1 reproducing the
            // traced FuStruct edge exactly, so the plan carries no
            // FuStruct entries and one masked full-width gather per
            // effective-unit group serves the whole lane block.
            u32 last = last_use_[r];
            const u32 i = nodeOp(ref.node);
            if (nodeMilestone(ref.node) == Milestone::S &&
                g.pool_pos[i] != kNoPoolPos) {
                const u8 pool = g.pool[i];
                const u32 pos = g.pool_pos[i];
                const RegionVector<u32> &ranks = pool_rank_[pool];
                const u32 ahead = static_cast<u32>(ranks.size()) - pos;
                for (u32 grp = 0; grp < n_groups; ++grp) {
                    const u32 units = fu_groups[grp][pool];
                    if (units < ahead)
                        last = std::max(last, ranks[pos + units]);
                    if (pos < units)
                        continue;
                    const u32 s = ranks[pos - units];
                    const u32 *const src = &lanes[size_t{rec[s].slot} * CMP];
                    release(s, r);
                    const u32 *const mk = &grpmask[size_t{grp} * CMP];
                    for (u32 m = 0; m < CMP; ++m) {
                        const u32 c = (src[m] + tpc) & mk[m];
                        best[m] = best[m] < c ? c : best[m];
                    }
                }
            }
            u32 *const lane = &lanes[size_t{own} * CMP];
            for (u32 m = 0; m < CMP; ++m)
                lane[m] = best[m];
            rec.push_back(RowRec{own, r == end_rank_ ? kNoNode : last});
            release(r, r); // read by nothing
        }
    };
    [&]<u32... W>(std::integer_sequence<u32, W...>) {
        ((MP == 8 * (W + 1) ? pass(std::integral_constant<u32, 8 * (W + 1)>{})
                            : void()),
         ...);
    }(std::make_integer_sequence<u32, 8>{});
    lane_rows_ = rows;

    std::vector<RetimeResult> results(M);
    for (u32 m = 0; m < M; ++m) {
        results[m].model = models[m].name;
        results[m].ops = g.num_ops;
        if (end_rank_ != kNoNode) {
            const u32 end = lanes[size_t{rec[end_rank_].slot} * MP + m];
            results[m].cycles = Cycle{end / tpc} + 1;
        }
    }
    return results;
}

} // namespace redsoc
