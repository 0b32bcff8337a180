/**
 * @file
 * Streaming dependence-graph construction from the pipeline event
 * stream. DepGraphBuilder is a TraceSink: attached to a PipeTracer it
 * sees every record()ed event in emission order regardless of the
 * ring capacity, so graph construction is never bounded by the
 * tracer's retained window (a run can be traced with a tiny ring and
 * still produce the complete graph).
 *
 * The builder replays the core's rename exactly (same source-walk and
 * destination-claim rules, including the frontend-resolved branch
 * link-register special case) to recover the full producer set per
 * op — the event stream itself only carries the *last* producer. All
 * edges of an op are synthesized and flushed when its Commit event
 * arrives: commits are in order and no dispatched op is ever
 * squashed, so every producer observation (and the previous op's
 * branch-mispredict verdict) is final by then, and the CSR edge list
 * builds append-only.
 */

#ifndef REDSOC_CRITPATH_DEP_GRAPH_BUILDER_H
#define REDSOC_CRITPATH_DEP_GRAPH_BUILDER_H

#include <array>
#include <vector>

#include "core/core_config.h"
#include "critpath/dep_graph.h"
#include "func/trace.h"
#include "isa/inst.h"
#include "trace/pipe_tracer.h"

namespace redsoc {

class DepGraphBuilder : public TraceSink
{
  public:
    /** @p trace and @p config must outlive the builder; they describe
     *  the run the attached tracer will record. */
    DepGraphBuilder(const Trace &trace, const CoreConfig &config);

    void onBeginRun(Tick ticks_per_cycle) override;
    void onEvent(const PipeEvent &event) override;

    /** Freeze and return the graph. Every op of the trace must have
     *  committed (the run completed); the builder resets on the next
     *  onBeginRun(). */
    DepGraph finalize();

    /** Events seen since onBeginRun (sink completeness test hook). */
    u64 eventsSeen() const { return events_seen_; }

  private:
    static constexpr u32 kNoOp = ~u32{0};

    /** Per-op state only needed between dispatch and commit. */
    struct Pending
    {
        std::array<u32, kMaxProducers> prod{kNoOp, kNoOp, kNoOp};
        u32 rs_src = kNoOp;   ///< RsCap source op (fixed at dispatch)
        u32 lsq_src = kNoOp;  ///< LsqCap source op
        u32 fuse_link = kNoOp; ///< MOS producer this op fused into
        u8 nprod = 0;
        bool selected = false; ///< saw a Select (RS-issued op)
    };

    void onDispatch(const PipeEvent &e);
    void onSelect(const PipeEvent &e);
    void onCommit(const PipeEvent &e);
    /** Append op @p i's full edge set to the CSR (called at commit,
     *  in destination-milestone order D, S, X, W, C). */
    void flushEdges(u32 i);

    const Trace *trace_;
    const CoreConfig *config_;

    DepGraph graph_;
    std::vector<Pending> pending_;
    /** Rename-table replay: last claimed writer per register. */
    std::array<u32, kNumRegs> reg_writer_{};
    /** RS issues in grant order (RsCap sources). */
    std::vector<u32> rs_issue_order_;
    /** Memory ops in dispatch order (LsqCap sources). */
    std::vector<u32> mem_order_;
    /** The committed store with the latest observed Select so far:
     *  the op whose address resolution (at its select) lifted the
     *  conservative older-store block last (MemOrder source). */
    u32 mem_block_ = kNoOp;
    u32 rs_dispatched_ = 0;
    u32 commits_ = 0;
    u64 events_seen_ = 0;
    bool run_open_ = false;
};

} // namespace redsoc

#endif // REDSOC_CRITPATH_DEP_GRAPH_BUILDER_H
