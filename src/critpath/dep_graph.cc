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
    if (edge_begin.size() != size_t{num_ops} + 1) {
        err << "edge_begin size " << edge_begin.size() << " != num_ops+1";
        return err.str();
    }
    if (num_ops != 0 && edge_begin.back() != edges.size()) {
        err << "edge_begin tail " << edge_begin.back() << " != edge count "
            << edges.size();
        return err.str();
    }
    for (u32 i = 0; i < num_ops; ++i) {
        if (edge_begin[i] > edge_begin[i + 1])
            return "edge_begin not monotone at op " +
                   std::to_string(i);
        // Milestones of one op must themselves be tick-ordered.
        if (!(obs_d[i] <= obs_s[i] && obs_s[i] <= obs_x[i] &&
              obs_x[i] <= obs_w[i] && obs_w[i] <= obs_c[i])) {
            err << "op " << i << " milestone order violated: D="
                << obs_d[i] << " S=" << obs_s[i] << " X=" << obs_x[i]
                << " W=" << obs_w[i] << " C=" << obs_c[i];
            return err.str();
        }
        u8 last_ms = 0;
        for (u32 e = edge_begin[i]; e < edge_begin[i + 1]; ++e) {
            const Edge &edge = edges[e];
            if (edge.src >= num_ops)
                return "edge source op out of range at op " +
                       std::to_string(i);
            const Milestone sms = edgeSrcMilestone(edge.kind);
            const Milestone dms = edgeDstMilestone(edge.kind);
            if (static_cast<u8>(dms) < last_ms)
                return "edges of op " + std::to_string(i) +
                       " not in destination-milestone order";
            last_ms = static_cast<u8>(dms);
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

    // The emission-order node list must be a permutation of all
    // milestone nodes, and every stored edge must go forward in it —
    // together a constructive acyclicity proof.
    const size_t n_nodes = size_t{num_ops} * kNumMilestones;
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
    for (u32 i = 0; i < num_ops; ++i) {
        for (u32 e = edge_begin[i]; e < edge_begin[i + 1]; ++e) {
            const Edge &edge = edges[e];
            const u32 src = nodeId(edge.src, edgeSrcMilestone(edge.kind));
            const u32 dst = nodeId(i, edgeDstMilestone(edge.kind));
            if (rank[src] >= rank[dst]) {
                err << edgeKindName(edge.kind) << " edge op "
                    << edge.src << " -> op " << i
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
        for (u32 e = g.edge_begin[i]; e < g.edge_begin[i + 1]; ++e) {
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
