/**
 * @file
 * Analytic re-timing of a frozen dependence graph under what-if
 * machine models. One Retimer::retime() call is a single longest-path
 * pass over the graph in its recorded topological order — O(edges) —
 * so sweeping dozens of configurations over one traced run costs
 * milliseconds where re-simulation costs minutes.
 *
 * Exactness contract (DESIGN.md section 13): the *base* model
 * (exact_replay) re-applies every edge's observed latency, so every
 * node's re-timed tick equals its observed tick and the final cycle
 * count is bit-identical to the simulator's. What-if models replace
 * observed latencies with analytic transfer functions; they are
 * approximations whose error runs both ways (they re-time the traced
 * schedule's dependence structure and cannot invent events the traced
 * run never exhibited, e.g. new EGPW windows or new transparent
 * passes at higher CI precision, nor drop orderings the new timing
 * would not have produced).
 */

#ifndef REDSOC_CRITPATH_RETIMER_H
#define REDSOC_CRITPATH_RETIMER_H

#include <array>
#include <string>
#include <vector>

#include "critpath/dep_graph.h"
#include "timing/completion_instant.h"

namespace redsoc {

/**
 * A machine model for one re-timing pass. The default-constructed
 * model is the exact base replay; what-if models clear exact_replay
 * and adjust the knobs they care about.
 */
struct WhatIfModel
{
    std::string name = "base";
    /** Replay every edge with its observed latency (exact). */
    bool exact_replay = true;
    /** CI precision in bits for transparent-recycle arrival
     *  quantization; 0 = the traced run's precision. Precisions above
     *  the traced tpc's log2 cannot add information and clamp. */
    unsigned ci_bits = 0;
    /** Honor the traced run's same-cycle EGPW wakeup windows; when
     *  false every wakeup costs a full broadcast cycle. */
    bool egpw = true;
    /** FU unit-count scale per pool (floor, min 1 unit). 1.0 replays
     *  the traced structural order; other values re-derive the
     *  constraints from the per-pool issue order. */
    double fu_scale = 1.0;
    /** Ideal recycling: every operand arrives the instant its
     *  producer completes (optimistic bound on slack recycling). */
    bool zero_latency_recycle = false;
    /** No recycling at all: every operand waits for the next cycle
     *  boundary (conventional baseline bound). */
    bool no_recycle = false;
};

/** Result of one re-timing pass. */
struct RetimeResult
{
    std::string model;
    Cycle cycles = 0; ///< re-timed committed-run length in cycles
    u64 ops = 0;
    /**
     * Critical-path breakdown: walking back from the last-committing
     * node along each node's binding (argmax) constraint, how many
     * path steps each edge kind contributed. Derived FU constraints
     * (fu_scale != 1) are charged to FuStruct.
     */
    std::array<u64, static_cast<size_t>(EdgeKind::NUM)> path_kinds{};
    u64 path_len = 0;
};

class Retimer
{
  public:
    /** @p graph must outlive the Retimer. Builds the batched-pass
     *  plan here; retime() sizes its per-node arrays on each call. */
    explicit Retimer(const DepGraph &graph);

    RetimeResult retime(const WhatIfModel &model);

    /**
     * Batched what-if sweep: one topological pass advancing every
     * model's time lane simultaneously. Edge classification is
     * hoisted into a model-independent plan (built once per graph),
     * so the per-model marginal cost is a handful of u32 adds and
     * maxes per edge — the inner lane loops autovectorize. Results
     * match retime() model-for-model (test_critpath proves it), but
     * no critical-path breakdown is produced (path_kinds stays
     * zero). exact_replay models are rejected: the base replay is a
     * single retime() call and needs no batching.
     */
    std::vector<RetimeResult>
    retimeAll(const std::vector<WhatIfModel> &models);

    /** Re-timed tick per milestone node (nodeId() indexing), valid
     *  after the last retime() call — the exactness tests compare
     *  this against the graph's observed lanes. */
    const RegionVector<Tick> &nodeTimes() const { return time_; }

    /** Lane rows the last retimeAll() pass kept live at once: its
     *  lane array holds this many rows, not one per node. */
    u32 laneRows() const { return lane_rows_; }

  private:
    static constexpr u32 kNoNode = ~u32{0};
    using PoolUnits =
        std::array<u32, static_cast<size_t>(FuPoolKind::NUM)>;

    /** Units per pool at @p fu_scale (floor, min 1 unit). */
    PoolUnits effectiveUnits(double fu_scale) const;

    /** An edge's bound under a what-if (non-exact) model. */
    Tick edgeCandidate(const WhatIfModel &model, const Edge &edge,
                       u32 dst_op, Tick src_t) const;

    /** retime()'s longest-path node loop, shared by the exact and
     *  what-if rules: @p cand maps (edge, destination op, destination
     *  milestone, source time) to the edge's bound. With @p fu_units
     *  set, stored FuStruct edges give way to bounds re-derived from
     *  the pool grant order at those unit counts. */
    template <typename Candidate>
    void settleNodes(const Candidate &cand, const PoolUnits *fu_units);

    /** Batched-pass edge classes: what survives of edgeCandidate()
     *  once everything model-independent is folded into k. */
    enum class PlanOp : u8 {
        Null,       ///< contributes nothing (fused DataReady)
        InvAdd,     ///< src + k, identical across models
        WakeSpec,   ///< src + wake_add[m]
        SelTransp,  ///< src + sel_add[m]
        /** Data, with X folded into W: the operand-arrival bound
         *  shifted by the op's exec latency, added after the arrival
         *  mask. */
        DataPlainW,  ///< ((src + dp_add[m]) & dp_mask[m]) + k
        DataTranspW, ///< ((src + dt_add[m]) & dt_mask[m]) + k
        DrPlain,    ///< sat(ceil(src) - dr_p_sub[m])
        DrTransp,   ///< sat(ceil(src) - dr_t_sub[m])
        DrEgpwPlain,  ///< DrPlain, skipped for egpw models
        DrEgpwTransp, ///< DrTransp, skipped for egpw models
        Ceil,       ///< ceil-to-boundary(src)
        Branch,     ///< redirect formula per lane (rare)
    };
    struct PlanEntry
    {
        u32 src = 0; ///< source node's rank in the node_refs_ stream
        u32 k = 0;
        PlanOp op = PlanOp::Null;
    };

    void buildPlan();

    const DepGraph *graph_;
    SubCycleClock clock_;
    /** CSR sub-boundaries: per op, the first edge index targeting
     *  each destination milestone (6 fences per op). */
    RegionVector<std::array<u32, 6>> ms_begin_;
    RegionVector<Tick> time_;
    /** Binding constraint per node for the critical-path walk. */
    RegionVector<u32> arg_src_;
    RegionVector<u8> arg_kind_;
    /** One batched-pass stream element: a destination node and how
     *  many consecutive plan_ entries feed it. */
    struct NodeRef
    {
        u32 node = 0;
        u32 count = 0;
    };
    /** Batched-pass entry stream, laid out in topological order so
     *  the hot pass reads node_refs_ and plan_ strictly sequentially
     *  (the op-major CSR fences would make the walk jump around).
     *  buildPlan() prunes model-independently dominated edges, folds
     *  whole-cycle Exec hops into their W nodes, and drops the
     *  (now in-edge-free, reader-free) X nodes from the stream, so
     *  the plan is shorter than the edge array. A node's index in
     *  node_refs_ is its rank; plan_ sources are ranks. */
    RegionVector<NodeRef> node_refs_;
    RegionVector<PlanEntry> plan_;
    /** Rank per milestone node (nodeId() indexing); kNoNode for the
     *  folded X nodes, which have no row. */
    RegionVector<u32> rank_;
    /** Per rank, the rank of its last plan_ reader (its own rank when
     *  nothing reads it). retimeAll() extends these with its FU
     *  gathers, which depend on the models. */
    RegionVector<u32> last_use_;
    /** Batched time lanes, lanes_[row * MP + m] with MP the padded
     *  model count: retimeAll() advances every model's lane in one
     *  pass, so a node's record is one contiguous row and the inner
     *  loops autovectorize. A row is held only from its node's rank
     *  to its last reader's, so the array holds the live set, not
     *  every node. Rows are written before they are read (topological
     *  order), so no zero-fill is needed. */
    RegionVector<u32> lanes_;
    u32 lane_rows_ = 0;
};

} // namespace redsoc

#endif // REDSOC_CRITPATH_RETIMER_H
