/**
 * @file
 * Dependence-graph schema for the analytic critical-path what-if
 * engine (DESIGN.md section 13). One traced simulator run is frozen
 * into a compact edge-typed DAG over five scheduling milestones per
 * committed op — Dispatch (D), Select (S), ExecBegin (X), Writeback
 * (W), Commit (C) — with the *observed* tick of every milestone kept
 * alongside. The Retimer then replays the graph under pluggable
 * machine models in one topological longest-path pass each: a config
 * sweep becomes O(configs x edges) instead of O(configs x cycles).
 *
 * The edge taxonomy covers every constraint class the core enforces:
 * true data dependencies (with transparent-recycle and CI
 * annotations), wakeup/select timing (including the EGPW and MOS
 * same-cycle windows), FU structural hazards (per-pool issue order),
 * ROB/RS/LSQ capacity back-pressure, frontend and commit bandwidth,
 * and branch-mispredict redirects. Every stored edge is
 * tick-monotone (obs(src) <= obs(dst)), which makes the base replay
 * model exact by construction: each edge carries its observed
 * latency, so the longest-path time of every node equals its
 * observed tick and the re-timed cycle count is bit-identical to the
 * simulator's (tests/test_critpath.cc proves this over the full
 * differential grid under both scheduler kernels).
 */

#ifndef REDSOC_CRITPATH_DEP_GRAPH_H
#define REDSOC_CRITPATH_DEP_GRAPH_H

#include <array>
#include <string>
#include <vector>

#include "common/page_region.h"
#include "common/types.h"
#include "core/fu_pool.h"

namespace redsoc {

/** The five per-op scheduling milestones, in pipeline order. */
enum class Milestone : u8 { D, S, X, W, C, NUM };

const char *milestoneName(Milestone ms);

/**
 * Edge kinds. Each kind has a fixed (source, destination) milestone
 * pair — see edgeSrcMilestone()/edgeDstMilestone() — so an Edge only
 * stores its source *op*. Kinds are grouped by destination milestone
 * because the builder appends a committed op's edges in exactly this
 * order (all D-targeted edges, then S, X, W, C): the Retimer walks
 * one contiguous CSR range per op and never re-sorts.
 */
enum class EdgeKind : u8 {
    // -> D: dispatch ordering, bandwidth, capacity and recovery.
    FrontendOrder, ///< D(i-1) -> D(i): in-order dispatch
    FrontendWidth, ///< D(i-fw) -> D(i): frontend_width per cycle
    RobCap,        ///< C(i-rob) -> D(i): ROB entry recycled in order
    RsCap,   ///< S(j) -> D(i): j = (k-rs)'th RS *issue*; an RS slot
             ///< frees at select, and at least k-rs+1 issues must
             ///< precede the (k+1)'th RS dispatch
    LsqCap,  ///< C(j) -> D(i): j = (k-lsq)'th mem op (in-order commit
             ///< frees LSQ entries in mem-op order)
    BranchRecover, ///< W(b) -> D(b+1): mispredict redirect + penalty

    // -> S: wakeup and select-port constraints.
    DispatchToSelect, ///< D(i) -> S(i): earliest select is dispatch+1
    Wake,     ///< S(p) -> S(i), p a producer: tag broadcast to grant
              ///< (aux: EGPW-speculative / MOS-fused same-cycle)
    FuStruct, ///< S(j) -> S(i), j = same-pool op units grants earlier
    MemOrder, ///< S(s) -> S(l), l a load, s = the latest-selecting
              ///< older store: a load is not selectable until every
              ///< older store has resolved its address (resolution
              ///< happens at the store's select, when its address
              ///< generation is granted)
    DataReady, ///< W(p) -> S(i), p a producer: a conventional grant
               ///< requires every operand to land within the arrival
               ///< window (one cycle ahead; two for a transparent
               ///< recycle). The one deliberately tick-NON-monotone
               ///< kind — obs W(p) may trail obs S(i) by up to the
               ///< window — but still topo-safe: an op's whole event
               ///< bundle (through Writeback) is emitted at its
               ///< issue, before any dependent select.

    // -> X: data arrival and execution start.
    SelectToExec, ///< S(i) -> X(i): grant to execution start
    Data, ///< W(p) -> X(i), p a producer: operand arrival (aux bit0:
          ///< arrived through a transparent latch mid-cycle)

    // -> W / -> C: completion and retirement.
    Exec,       ///< X(i) -> W(i): the op's execution latency
    WbToCommit, ///< W(i) -> C(i): completion to retirement
    CommitOrder, ///< C(i-1) -> C(i): in-order commit
    CommitWidth, ///< C(i-cw) -> C(i): commit_width per cycle

    NUM,
};

const char *edgeKindName(EdgeKind kind);

/** Source milestone of every edge of @p kind. Inline: the graph
 *  validator, the Retimer's fence split, plan build and replay all
 *  call it once per edge. */
constexpr Milestone
edgeSrcMilestone(EdgeKind kind)
{
    switch (kind) {
    case EdgeKind::FrontendOrder:
    case EdgeKind::FrontendWidth:
    case EdgeKind::DispatchToSelect: return Milestone::D;
    case EdgeKind::RsCap:
    case EdgeKind::Wake:
    case EdgeKind::FuStruct:
    case EdgeKind::MemOrder:
    case EdgeKind::SelectToExec: return Milestone::S;
    case EdgeKind::Exec: return Milestone::X;
    case EdgeKind::BranchRecover:
    case EdgeKind::Data:
    case EdgeKind::DataReady:
    case EdgeKind::WbToCommit: return Milestone::W;
    case EdgeKind::RobCap:
    case EdgeKind::LsqCap:
    case EdgeKind::CommitOrder:
    case EdgeKind::CommitWidth: return Milestone::C;
    case EdgeKind::NUM: break;
    }
    return Milestone::NUM;
}

/** Destination milestone of every edge of @p kind (the grouping key
 *  of an op's CSR range). */
constexpr Milestone
edgeDstMilestone(EdgeKind kind)
{
    switch (kind) {
    case EdgeKind::FrontendOrder:
    case EdgeKind::FrontendWidth:
    case EdgeKind::RobCap:
    case EdgeKind::RsCap:
    case EdgeKind::LsqCap:
    case EdgeKind::BranchRecover: return Milestone::D;
    case EdgeKind::DispatchToSelect:
    case EdgeKind::Wake:
    case EdgeKind::FuStruct:
    case EdgeKind::MemOrder:
    case EdgeKind::DataReady: return Milestone::S;
    case EdgeKind::SelectToExec:
    case EdgeKind::Data: return Milestone::X;
    case EdgeKind::Exec: return Milestone::W;
    case EdgeKind::WbToCommit:
    case EdgeKind::CommitOrder:
    case EdgeKind::CommitWidth: return Milestone::C;
    case EdgeKind::NUM: break;
    }
    return Milestone::NUM;
}

/** Most distinct producers one op names: the rename replay walks at
 *  most three source registers. */
inline constexpr u32 kMaxProducers = 3;

/**
 * Worst-case edges of one op, counted per destination milestone from
 * the EdgeKind taxonomy: the builder reserves this many per op up
 * front, so the edge array never regrows mid-run.
 */
inline constexpr u32 kMaxEdgesPerOp =
    6 +                     // -> D: BranchRecover, FrontendOrder,
                            //    FrontendWidth, RobCap, RsCap, LsqCap
    3 + 2 * kMaxProducers + // -> S: DispatchToSelect, FuStruct,
                            //    MemOrder; Wake + DataReady per producer
    1 + kMaxProducers +     // -> X: SelectToExec; Data per producer
    1 +                     // -> W: Exec
    3;                      // -> C: WbToCommit, CommitOrder, CommitWidth
static_assert(kMaxEdgesPerOp == 23);

/** Edge aux-payload flag bits (kind-specific; see EdgeKind docs). */
inline constexpr u32 kEdgeWakeSpeculative = 1u << 0; ///< Wake: EGPW
inline constexpr u32 kEdgeWakeFused = 1u << 1;       ///< Wake: MOS
inline constexpr u32 kEdgeDataTransparent = 1u << 0; ///< Data

/**
 * One dependence edge. The destination op (and via the kind, both
 * milestones) is implied by the CSR grouping; 12 bytes per edge keeps
 * a 2M-op trace's graph in the hundreds of megabytes, not gigabytes.
 */
struct Edge
{
    u32 src = 0;  ///< source op id
    u32 aux = 0;  ///< kind-specific payload (flag bits / pool)
    EdgeKind kind = EdgeKind::FrontendOrder;
};

static_assert(sizeof(Edge) <= 12, "Edge must stay compact");

/** Per-op flag bits (DepGraph::flags). */
inline constexpr u16 kOpFrontendResolved = 1u << 0; ///< no RS life
inline constexpr u16 kOpMem = 1u << 1;
inline constexpr u16 kOpLoad = 1u << 2;
inline constexpr u16 kOpStore = 1u << 3;
inline constexpr u16 kOpBranch = 1u << 4;
inline constexpr u16 kOpBranchMispred = 1u << 5;
inline constexpr u16 kOpTransparent = 1u << 6;  ///< recycled start
inline constexpr u16 kOpEgpwSelect = 1u << 7;   ///< speculative grant
inline constexpr u16 kOpFused = 1u << 8;        ///< MOS fusion
inline constexpr u16 kOpWidthReplay = 1u << 9;
inline constexpr u16 kOpLaReplay = 1u << 10;
inline constexpr u16 kOpEligible = 1u << 11; ///< slack-eligible class

/** Machine parameters frozen from the traced run's CoreConfig: the
 *  knobs the what-if transfer functions need. */
struct MachineParams
{
    unsigned frontend_width = 4;
    unsigned commit_width = 4;
    unsigned rob_entries = 80;
    unsigned rs_entries = 64;
    unsigned lsq_entries = 32;
    /** Units per FuPoolKind (Alu, Simd, Fp, Mem). */
    std::array<unsigned, static_cast<size_t>(FuPoolKind::NUM)> units{};
    Cycle redirect_penalty = 10;
    Tick ticks_per_cycle = 8;
    unsigned ci_precision_bits = 3;
    Tick slack_threshold_ticks = 6;
};

/** "no pool position" marker (frontend-resolved / fused ops). */
inline constexpr u32 kNoPoolPos = ~u32{0};

/** Milestone-node addressing: the graph has 5 nodes per op. */
inline constexpr u32 kNumMilestones =
    static_cast<u32>(Milestone::NUM);

inline u32
nodeId(u32 op, Milestone ms)
{
    return op * kNumMilestones + static_cast<u32>(ms);
}

inline u32 nodeOp(u32 node) { return node / kNumMilestones; }

inline Milestone
nodeMilestone(u32 node)
{
    return static_cast<Milestone>(node % kNumMilestones);
}

/**
 * The frozen dependence graph: SoA observed-milestone lanes, per-op
 * flags, per-pool issue order, and a CSR edge list grouped by
 * destination op. Built once by DepGraphBuilder; read-only afterward.
 */
struct DepGraph
{
    MachineParams params;
    u32 num_ops = 0;

    /** Observed milestone ticks, indexed [op]. */
    RegionVector<Tick> obs_d, obs_s, obs_x, obs_w, obs_c;
    RegionVector<u16> flags;
    /** FU pool of the op's issue (valid when pool_pos != kNoPoolPos). */
    RegionVector<u8> pool;
    /** Position in pool_order[pool[op]] (kNoPoolPos = never issued
     *  through a pool: frontend-resolved). */
    RegionVector<u32> pool_pos;
    /** Per-pool op ids in select (issue) order — lets the Retimer
     *  re-derive FU structural constraints under N x unit counts. */
    std::array<RegionVector<u32>, static_cast<size_t>(FuPoolKind::NUM)>
        pool_order;

    /** CSR: edges[edge_begin[i] .. edge_begin[i+1]) target op i, in
     *  destination-milestone order (D, S, X, W, C). */
    RegionVector<Edge> edges;
    RegionVector<u32> edge_begin;

    /**
     * A topological order over all 5*num_ops milestone nodes
     * (nodeId() encoding): the event *emission* order of the traced
     * run, which the core's fixed phase order (commit, issue,
     * dispatch) makes consistent with every stored edge — including
     * FuStruct edges whose source op id exceeds the destination's.
     * The Retimer replays models in exactly this order; validate()
     * proves every stored edge goes forward in it (acyclicity).
     */
    RegionVector<u32> topo;

    // --- Build provenance / bookkeeping -----------------------------
    /** Events the builder consumed, by raw kind ordinal. */
    std::array<u64, 18> event_counts{};
    /** Data edges dropped because the observed source tick exceeded
     *  the destination (width-replay conservative re-execution and
     *  MOS fusion can overlap a producer's mid-cycle completion; the
     *  dependence is still bounded via Wake + the conservative Exec
     *  window, so dropping keeps the stored graph tick-monotone). */
    u64 dropped_nonmonotone_data = 0;
    /** MemOrder edges dropped for the same reason. Expected to stay
     *  zero: the blocking rule forbids a load selecting before an
     *  older store resolves, so the store's Select can never
     *  strictly exceed the load's — the counter guards the stored
     *  graph's monotonicity if the event stream ever disagrees. */
    u64 dropped_nonmonotone_mem = 0;

    Tick obs(Milestone ms, u32 op) const
    {
        switch (ms) {
        case Milestone::D: return obs_d[op];
        case Milestone::S: return obs_s[op];
        case Milestone::X: return obs_x[op];
        case Milestone::W: return obs_w[op];
        case Milestone::C: return obs_c[op];
        case Milestone::NUM: break;
        }
        return 0;
    }

    u64 numEdges() const { return edges.size(); }

    /**
     * Structural validation: CSR well-formed, every edge's source op
     * in range, every stored edge tick-monotone, milestone order
     * respected within each op. Returns an empty string when valid,
     * else a description of the first violation (test hook; the
     * builder's finalize() asserts this in debug builds).
     */
    std::string validate() const;
};

/**
 * Deterministic text rendering of the whole graph (ops, milestones,
 * edges with kinds and aux annotations) for the golden-snapshot test:
 * byte-identical across scheduler kernels and platforms.
 */
std::string renderDepGraph(const DepGraph &graph);

} // namespace redsoc

#endif // REDSOC_CRITPATH_DEP_GRAPH_H
