/**
 * @file
 * The pipeline hook set and the dependence-graph recorder.
 *
 * The core reports each op's life through one typed hook set:
 * dispatch, frontendWriteback, issue, laReplay, egpwArm, egpwWaste,
 * fuse and commit. Two observers implement every hook. PipeTracer
 * expands each call into PipeEvents for its ring and exporters;
 * GraphRecorder writes milestone ticks, op flags, producer links and
 * issue orders straight into per-op arrays, which DepGraphBuilder
 * (src/critpath) turns into the dependence graph once the run ends.
 * The core calls a hook through a generic lambda instantiated for both
 * observers (OooCore::observe), so a hook either of them lacks is a
 * build error, as a PipeEventKind a switch misses is under
 * -Werror=switch.
 *
 * A recorder is attached like any sink (PipeTracer::setSink); the
 * core finds it through the tracer when a run begins and then calls
 * it directly: no PipeEvent is built and no virtual call is made.
 */

#ifndef REDSOC_TRACE_GRAPH_RECORDER_H
#define REDSOC_TRACE_GRAPH_RECORDER_H

#include <array>

#include "common/logging.h"
#include "common/page_region.h"
#include "common/types.h"

namespace redsoc {

/** The five per-op scheduling milestones, in pipeline order. */
enum class Milestone : u8 { D, S, X, W, C, NUM };

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

/** Most producers one op names: rename walks at most three source
 *  registers. */
inline constexpr u32 kMaxProducers = 3;

/** FU pools an op can issue through (FuPoolKind::NUM; dep_graph.h
 *  asserts the two agree). */
inline constexpr size_t kNumRecordedPools = 4;

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

/** "no pool position" marker (frontend-resolved / fused ops). */
inline constexpr u32 kNoPoolPos = ~u32{0};

/** What the core knows about an op when it is granted. */
struct IssueRecord
{
    SeqNum seq = kNoSeq;
    Tick select = 0; ///< the grant cycle's start tick
    Tick start = 0;  ///< execution start tick
    Tick done = 0;   ///< completion (writeback) tick
    /** The renamed producers, duplicates kept (OpCold::prod). */
    const SeqNum *prod = nullptr;
    u8 nprod = 0;
    bool speculative = false;    ///< EGPW grant
    bool transparent = false;    ///< latched mid-cycle
    bool width_replayed = false; ///< conservative re-execution
};

/** The wakeup the event stream shows for an issue; only the ring
 *  needs it, so the core computes it on request. */
struct WakeRecord
{
    Tick tick = 0;         ///< start tick of the wakeup cycle
    SeqNum last = kNoSeq;  ///< last-completing producer
};

/**
 * Records one run's per-op scheduling facts for the dependence graph.
 * Lanes written in op order (dispatch, commit) are appended; those
 * written in grant order (select, execute, writeback, producer links)
 * are sized when the run begins. Every array comes from the page
 * region, as the graph's do.
 */
class GraphRecorder
{
  public:
    /** @p num_ops is the length of the trace the run will replay. */
    explicit GraphRecorder(u64 num_ops);

    /** A run began at @p ticks_per_cycle resolution: reset. */
    void beginRun(Tick ticks_per_cycle);

    // --- The hook set (see the file comment) -----------------------

    /** Op @p seq dispatched at @p tick (fetch, decode and rename are
     *  the same macro-stage). @p op_flags holds its kOpMem, kOpLoad,
     *  kOpStore, kOpBranch, kOpEligible and kOpFrontendResolved bits;
     *  @p pool is the FU pool it issues through. */
    void dispatch(SeqNum seq, Tick tick, u16 op_flags, u8 pool)
    {
        const u32 i = static_cast<u32>(seq);
        obs_d_.push_back(tick);
        flags_.push_back(op_flags);
        pool_.push_back(pool);
        pool_pos_.push_back(kNoPoolPos);
        topo_.push_back(nodeId(i, Milestone::D));
        if (op_flags & kOpFrontendResolved) {
            // No RS life: select collapses onto dispatch.
            obs_s_[i] = tick;
            topo_.push_back(nodeId(i, Milestone::S));
        }
    }

    /** A frontend-resolved op completes at @p tick; its execution
     *  window collapses onto the writeback tick. */
    void frontendWriteback(SeqNum seq, Tick tick)
    {
        const u32 i = static_cast<u32>(seq);
        obs_x_[i] = tick;
        obs_w_[i] = tick;
        topo_.push_back(nodeId(i, Milestone::X));
        topo_.push_back(nodeId(i, Milestone::W));
    }

    /** An RS op was granted. @p wake yields the ring's WakeRecord. */
    template <typename WakeFn>
    void issue(const IssueRecord &op, WakeFn &&)
    {
        const u32 i = static_cast<u32>(op.seq);
        u16 fl = flags_[i];
        if (op.speculative)
            fl |= kOpEgpwSelect;
        if (op.transparent)
            fl |= kOpTransparent;
        if (op.width_replayed)
            fl |= kOpWidthReplay;
        flags_[i] = fl;
        obs_s_[i] = op.select;
        obs_x_[i] = op.start;
        obs_w_[i] = op.done;
        topo_.push_back(nodeId(i, Milestone::S));
        topo_.push_back(nodeId(i, Milestone::X));
        topo_.push_back(nodeId(i, Milestone::W));
        rs_issue_order_.push_back(i);
        auto &order = pool_order_[pool_[i]];
        pool_pos_[i] = static_cast<u32>(order.size());
        order.push_back(i);

        // One link per distinct producer (the core keeps duplicates).
        Links &l = links_[i];
        l = Links{};
        u32 n = 0;
        for (unsigned a = 0; a < op.nprod; ++a) {
            const u32 p = static_cast<u32>(op.prod[a]);
            bool dup = false;
            for (u32 b = 0; b < n; ++b)
                dup = dup || l.prod[b] == p;
            if (!dup)
                l.prod[n++] = p;
        }
    }

    /** A last-arrival mispredict replayed op @p seq. */
    void laReplay(SeqNum seq, Tick) { flags_[seq] |= kOpLaReplay; }

    /** An EGPW request; @p grandparent yields the ring's link. */
    template <typename LinkFn>
    void egpwArm(SeqNum, Tick, LinkFn &&)
    {
        ++spec_events_;
    }

    /** An EGPW grant wasted (@p reason as PipeEventKind::EgpwWaste). */
    void egpwWaste(SeqNum, Tick, u8) { ++spec_events_; }

    /** MOS fused op @p seq into @p producer's cycle. Its issue() came
     *  just before, so it is the tail of its pool's order: a fused op
     *  books no unit of its own, so it leaves that order. */
    void fuse(SeqNum seq, Tick, SeqNum producer)
    {
        const u32 i = static_cast<u32>(seq);
        flags_[i] |= kOpFused;
        links_[i].fuse = static_cast<u32>(producer);
        auto &order = pool_order_[pool_[i]];
        fatal_if(order.empty() || order.back() != i, "fuse of op ", i,
                 " did not follow its own select");
        order.pop_back();
        pool_pos_[i] = kNoPoolPos;
    }

    /** Op @p seq retired at @p tick (@p mispredicted: a branch whose
     *  misprediction redirected the frontend). */
    void commit(SeqNum seq, Tick tick, bool mispredicted)
    {
        const u32 i = static_cast<u32>(seq);
        fatal_if(i != commits_,
                 "commit order violated the seq-order contract: op ", i,
                 " committed as #", commits_);
        u16 fl = flags_[i];
        // issue() placed the op in a pool order; only fuse() takes
        // it out again, and marks it fused.
        const bool selected = pool_pos_[i] != kNoPoolPos || (fl & kOpFused);
        fatal_if(selected == ((fl & kOpFrontendResolved) != 0), "op ", i,
                 " select/frontend-resolved disagreement");
        if (mispredicted)
            fl |= kOpBranchMispred;
        flags_[i] = fl;
        obs_c_.push_back(tick);
        topo_.push_back(nodeId(i, Milestone::C));
        ++commits_;
    }

    /** PipeEvents the ring would have recorded since beginRun(),
     *  counted from the op flags and issue orders (valid until the
     *  builder's finalize() takes the arrays). */
    u64 eventsSeen() const;

  protected:
    static constexpr u32 kNoOp = ~u32{0};

    /** An RS op's distinct producers (kNoOp-padded) and the MOS
     *  producer it fused into (kNoOp if none). */
    struct Links
    {
        std::array<u32, kMaxProducers> prod{kNoOp, kNoOp, kNoOp};
        u32 fuse = kNoOp;
    };

    u32 num_ops_ = 0;
    Tick ticks_per_cycle_ = 8;
    /** Observed milestone ticks, indexed [op]. */
    RegionVector<Tick> obs_d_, obs_s_, obs_x_, obs_w_, obs_c_;
    RegionVector<u16> flags_;
    RegionVector<u8> pool_;
    RegionVector<u32> pool_pos_;
    std::array<RegionVector<u32>, kNumRecordedPools> pool_order_;
    /** Milestone nodes in the order the hooks reported them. */
    RegionVector<u32> topo_;
    RegionVector<Links> links_;
    /** RS ops in grant order (RsCap sources). */
    RegionVector<u32> rs_issue_order_;
    u32 commits_ = 0;
    /** EGPW arm and waste hooks (no per-op flag records them). */
    u64 spec_events_ = 0;
    bool run_open_ = false;
};

} // namespace redsoc

#endif // REDSOC_TRACE_GRAPH_RECORDER_H
