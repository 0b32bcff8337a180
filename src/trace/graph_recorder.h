/**
 * @file
 * The pipeline hook set and its one observer, the run recorder.
 *
 * The core reports each op's life through one typed hook set:
 * dispatch, frontendWriteback, issue, laReplay, egpwArm, egpwWaste,
 * fuse and commit (OooCore::observe). GraphRecorder writes what each
 * hook reports straight into per-op arrays: milestone ticks, op flags,
 * producer links and issue orders, from which DepGraphBuilder
 * (src/critpath) builds the dependence graph, and the moments that
 * shape no edge (OpMoments: the wakeup, the last producer, EGPW arms
 * and wastes, last-arrival replays). The trace exporters and metrics
 * (trace/exporters.h, trace/metrics.h) read the same arrays once the
 * run ends, so every fact of a run is recorded once, for every op.
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

/** "no op" marker for a recorded op link. */
inline constexpr u32 kNoOp = ~u32{0};

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
    /** Start tick of the wakeup cycle: the select gate, or the
     *  grant cycle for an EGPW grant or a MOS fusion. */
    Tick wake = 0;
    /** The last-completing producer (OooCore::lastProducer: ties go
     *  to the later slot, duplicates kept); kNoSeq if none. */
    SeqNum last = kNoSeq;
    bool speculative = false;    ///< EGPW grant
    bool transparent = false;    ///< latched mid-cycle
    bool width_replayed = false; ///< conservative re-execution
};

/** An EGPW grant wasted: its recycle window had no slack this cycle,
 *  or the FU span was unavailable. */
enum class EgpwWaste : u8 { NoSlack, SpanDenied, NUM };

/** An op's moments that shape no graph edge but explain the run: the
 *  trace exporters and metrics read them. */
struct OpMoments
{
    Tick wake = 0; ///< IssueRecord::wake (RS ops)
    u32 last = kNoOp;        ///< IssueRecord::last
    u32 grandparent = kNoOp; ///< the last EGPW arm's grandparent
    u32 egpw_arms = 0;
    std::array<u32, static_cast<size_t>(EgpwWaste::NUM)> egpw_wastes{};
    u32 la_replays = 0; ///< last-arrival mispredict replays
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

    /** An RS op was granted. */
    void issue(const IssueRecord &op)
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
        OpMoments &m = moments_[i];
        m.wake = op.wake;
        m.last = static_cast<u32>(op.last);

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
    void laReplay(SeqNum seq)
    {
        flags_[seq] |= kOpLaReplay;
        ++moments_[seq].la_replays;
    }

    /** Op @p seq requested an EGPW grant, woken by @p grandparent. */
    void egpwArm(SeqNum seq, SeqNum grandparent)
    {
        OpMoments &m = moments_[seq];
        ++m.egpw_arms;
        m.grandparent = static_cast<u32>(grandparent);
    }

    /** An EGPW grant to op @p seq was wasted for @p reason. */
    void egpwWaste(SeqNum seq, EgpwWaste reason)
    {
        ++moments_[seq].egpw_wastes[static_cast<size_t>(reason)];
    }

    /** MOS fused op @p seq into @p producer's cycle. Its issue() came
     *  just before, so it is the tail of its pool's order: a fused op
     *  books no unit of its own, so it leaves that order. */
    void fuse(SeqNum seq, SeqNum producer)
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
        fatal_if(selected(i) == ((fl & kOpFrontendResolved) != 0), "op ", i,
                 " select/frontend-resolved disagreement");
        if (mispredicted)
            fl |= kOpBranchMispred;
        flags_[i] = fl;
        obs_c_.push_back(tick);
        topo_.push_back(nodeId(i, Milestone::C));
        ++commits_;
    }

    /** Pipeline events since beginRun(), counted from the op flags,
     *  issue orders and moments (valid until the builder's
     *  finalize() takes the arrays): per dispatched op four frontend
     *  stages, a writeback and a commit; per grant a wakeup, select
     *  and execute; one more per EGPW fire, arm, waste and replay, per
     *  fusion, and two per transparent pass (the pass and its recycle
     *  link). The formula stays though no event is stored: it is the
     *  work unit perfbench's trace.events_per_op divides by. */
    u64 eventsSeen() const;

    /** FNV-1a over every lane since beginRun() (valid until the
     *  builder's finalize() takes the arrays): two runs with equal
     *  digests recorded the same facts. */
    u64 digest() const;

    // --- Reading a finished run (trace/exporters.h, metrics.h) -----

    Tick ticksPerCycle() const { return ticks_per_cycle_; }
    /** Ops dispatched since beginRun(), op ids 0 to dispatched()-1. */
    u32 dispatched() const { return static_cast<u32>(flags_.size()); }
    u32 committed() const { return commits_; }
    Tick tick(Milestone ms, u32 op) const
    {
        switch (ms) {
        case Milestone::D: return obs_d_[op];
        case Milestone::S: return obs_s_[op];
        case Milestone::X: return obs_x_[op];
        case Milestone::W: return obs_w_[op];
        case Milestone::C: return obs_c_[op];
        case Milestone::NUM: break;
        }
        return 0;
    }
    u16 flags(u32 op) const { return flags_[op]; }
    /** Whether op @p op was granted through the RS. */
    bool selected(u32 op) const
    {
        return pool_pos_[op] != kNoPoolPos || (flags_[op] & kOpFused);
    }
    /** The MOS producer op @p op fused into (kNoOp: none). */
    u32 fusedInto(u32 op) const { return links_[op].fuse; }
    const OpMoments &moments(u32 op) const { return moments_[op]; }

  protected:
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
    RegionVector<OpMoments> moments_;
    u32 commits_ = 0;
    bool run_open_ = false;
};

} // namespace redsoc

#endif // REDSOC_TRACE_GRAPH_RECORDER_H
