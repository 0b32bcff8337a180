#include "critpath/dep_graph.h"

#include <sstream>

namespace redsoc {

const char *
milestoneName(Milestone ms)
{
    switch (ms) {
    case Milestone::D: return "D";
    case Milestone::S: return "S";
    case Milestone::X: return "X";
    case Milestone::W: return "W";
    case Milestone::C: return "C";
    case Milestone::NUM: break;
    }
    return "?";
}

const char *
edgeKindName(EdgeKind kind)
{
    switch (kind) {
    case EdgeKind::FrontendOrder: return "frontend_order";
    case EdgeKind::FrontendWidth: return "frontend_width";
    case EdgeKind::RobCap: return "rob_cap";
    case EdgeKind::RsCap: return "rs_cap";
    case EdgeKind::LsqCap: return "lsq_cap";
    case EdgeKind::BranchRecover: return "branch_recover";
    case EdgeKind::DispatchToSelect: return "dispatch_to_select";
    case EdgeKind::Wake: return "wake";
    case EdgeKind::FuStruct: return "fu_struct";
    case EdgeKind::MemOrder: return "mem_order";
    case EdgeKind::DataReady: return "data_ready";
    case EdgeKind::SelectToExec: return "select_to_exec";
    case EdgeKind::Data: return "data";
    case EdgeKind::Exec: return "exec";
    case EdgeKind::WbToCommit: return "wb_to_commit";
    case EdgeKind::CommitOrder: return "commit_order";
    case EdgeKind::CommitWidth: return "commit_width";
    case EdgeKind::NUM: break;
    }
    return "unknown";
}

std::string
DepGraph::validate() const
{
    std::ostringstream err;
    const size_t n_nodes = size_t{num_ops} * kNumMilestones;
    if (edge_begin.size() != n_nodes + 1) {
        err << "edge_begin size " << edge_begin.size()
            << " != 5*num_ops+1";
        return err.str();
    }
    if (edge_begin.back() != edges.size()) {
        err << "edge_begin tail " << edge_begin.back() << " != edge count "
            << edges.size();
        return err.str();
    }
    for (size_t n = 0; n < n_nodes; ++n)
        if (edge_begin[n] > edge_begin[n + 1])
            return "edge_begin not monotone at node " +
                   std::to_string(n);
    for (u32 i = 0; i < num_ops; ++i) {
        // Milestones of one op must themselves be tick-ordered.
        if (!(obs_d[i] <= obs_s[i] && obs_s[i] <= obs_x[i] &&
              obs_x[i] <= obs_w[i] && obs_w[i] <= obs_c[i])) {
            err << "op " << i << " milestone order violated: D="
                << obs_d[i] << " S=" << obs_s[i] << " X=" << obs_x[i]
                << " W=" << obs_w[i] << " C=" << obs_c[i];
            return err.str();
        }
        for (u32 e = edge_begin[nodeId(i, Milestone::D)];
             e < edge_begin[nodeId(i + 1, Milestone::D)]; ++e) {
            const Edge &edge = edges[e];
            if (edge.src >= num_ops)
                return "edge source op out of range at op " +
                       std::to_string(i);
            const Milestone sms = edgeSrcMilestone(edge.kind);
            const Milestone dms = edgeDstMilestone(edge.kind);
            if (e < edge_begin[nodeId(i, dms)] ||
                e >= edge_begin[nodeId(i, dms) + 1])
                return std::string(edgeKindName(edge.kind)) +
                       " edge of op " + std::to_string(i) +
                       " filed outside its destination node";
            // DataReady is tick-non-monotone by design (the producer
            // may complete up to the arrival window after the grant);
            // the topo-forward check below still covers it.
            if (edge.kind != EdgeKind::DataReady &&
                obs(sms, edge.src) > obs(dms, i)) {
                err << "non-monotone " << edgeKindName(edge.kind)
                    << " edge op " << edge.src << ":"
                    << milestoneName(sms) << " (" << obs(sms, edge.src)
                    << ") -> op " << i << ":" << milestoneName(dms)
                    << " (" << obs(dms, i) << ")";
                return err.str();
            }
        }
    }
    for (const auto &order : pool_order)
        for (const u32 op : order)
            if (op >= num_ops)
                return "pool_order op out of range";

    // The reported node order must be a permutation of all milestone
    // nodes, and every stored edge must go forward in it — together
    // a constructive acyclicity proof.
    if (topo.size() != n_nodes) {
        err << "topo size " << topo.size() << " != " << n_nodes;
        return err.str();
    }
    std::vector<u32> rank(n_nodes, ~u32{0});
    for (size_t r = 0; r < topo.size(); ++r) {
        if (topo[r] >= n_nodes)
            return "topo node out of range";
        if (rank[topo[r]] != ~u32{0})
            return "topo node listed twice";
        rank[topo[r]] = static_cast<u32>(r);
    }
    for (u32 dst = 0; dst < n_nodes; ++dst) {
        for (u32 e = edge_begin[dst]; e < edge_begin[dst + 1]; ++e) {
            const Edge &edge = edges[e];
            const u32 src = nodeId(edge.src, edgeSrcMilestone(edge.kind));
            if (rank[src] >= rank[dst]) {
                err << edgeKindName(edge.kind) << " edge op "
                    << edge.src << " -> op " << nodeOp(dst)
                    << " goes backward in the topo order";
                return err.str();
            }
        }
    }
    return std::string();
}

std::string
renderDepGraph(const DepGraph &g)
{
    std::ostringstream os;
    os << "depgraph ops=" << g.num_ops << " edges=" << g.numEdges()
       << " tpc=" << g.params.ticks_per_cycle
       << " dropped_nonmonotone_data=" << g.dropped_nonmonotone_data
       << " dropped_nonmonotone_mem=" << g.dropped_nonmonotone_mem
       << "\n";
    for (u32 i = 0; i < g.num_ops; ++i) {
        os << "op " << i << " D=" << g.obs_d[i] << " S=" << g.obs_s[i]
           << " X=" << g.obs_x[i] << " W=" << g.obs_w[i]
           << " C=" << g.obs_c[i] << " flags=0x" << std::hex
           << g.flags[i] << std::dec;
        if (g.pool_pos[i] != kNoPoolPos)
            os << " pool=" << unsigned{g.pool[i]}
               << " pos=" << g.pool_pos[i];
        os << "\n";
        for (u32 e = g.edge_begin[nodeId(i, Milestone::D)];
             e < g.edge_begin[nodeId(i + 1, Milestone::D)]; ++e) {
            const Edge &edge = g.edges[e];
            os << "  " << edgeKindName(edge.kind) << " <- op "
               << edge.src << ":"
               << milestoneName(edgeSrcMilestone(edge.kind));
            if (edge.aux != 0)
                os << " aux=0x" << std::hex << edge.aux << std::dec;
            os << "\n";
        }
    }
    return os.str();
}

} // namespace redsoc
