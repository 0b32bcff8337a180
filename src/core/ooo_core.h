/**
 * @file
 * The out-of-order core timing model. Replays a functional trace
 * through fetch/dispatch, slack-aware wakeup+select, execution-unit
 * and memory timing, and in-order commit, at sub-cycle (tick)
 * resolution. Three scheduler modes share the pipeline:
 *
 *  - Baseline: conventional boundary-clocked scheduling;
 *  - ReDSOC:   transparent-dataflow slack recycling with eager
 *              grandparent wakeup and skewed selection (the paper);
 *  - MOS:      dynamic operation fusion (multiple ops per cycle on
 *              one FU) as the Sec.VI-D comparator.
 *
 * Per-op scheduling state is held structure-of-arrays (DESIGN.md
 * §12): the per-cycle loops touch a handful of dense lanes (status
 * byte, class byte, pending count, gate/arm/select cycles, completion
 * tick) that stream contiguously, while everything written once at
 * dispatch and read once at issue/commit lives in a cache-line-sized
 * cold record. Both scheduler kernels run on the same lanes, so the
 * layout cannot perturb the differential bit-identity contract.
 */

#ifndef REDSOC_CORE_OOO_CORE_H
#define REDSOC_CORE_OOO_CORE_H

#include <chrono>
#include <memory>
#include <queue>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/core_config.h"
#include "core/fu_pool.h"
#include "core/invariant_audit.h"
#include "core/lsq.h"
#include "core/rat.h"
#include "core/rs.h"
#include "func/trace.h"
#include "predictors/branch_predictor.h"
#include "redsoc/transparent.h"
#include "timing/slack_lut.h"
#include "trace/pipe_tracer.h"

namespace redsoc {

/** Result statistics of one core run. */
struct CoreStats
{
    Cycle cycles = 0;
    u64 committed = 0;

    u64 fu_stall_cycles = 0;      ///< cycles with a ready op denied a unit
    u64 recycled_ops = 0;         ///< transparent (mid-cycle) starts
    u64 two_cycle_holds = 0;      ///< IT3 boundary-crossing allocations
    Tick slack_recycled_ticks = 0;

    u64 egpw_requests = 0;
    u64 egpw_grants = 0;
    u64 egpw_wasted = 0;          ///< granted but recycle condition failed
    u64 fused_ops = 0;            ///< MOS fusions

    u64 la_predictions = 0;       ///< last-arrival (P/GP tag) predictions
    u64 la_mispredictions = 0;
    u64 width_predictions = 0;
    u64 width_aggressive = 0;
    u64 width_conservative = 0;
    u64 branch_lookups = 0;
    u64 branch_mispredicts = 0;

    u64 loads = 0;
    u64 stores = 0;
    u64 l1_load_misses = 0;
    u64 store_forwards = 0;

    /** Dynamic-threshold adaptation trace (min/max/final value). */
    Tick threshold_min = 0;
    Tick threshold_max = 0;
    Tick threshold_final = 0;

    Histogram chain_lengths{64};  ///< final transparent-sequence lengths
    double expected_chain_length = 0.0; ///< Fig.11 statistic

    /**
     * FNV-1a hash folded over every committed op's architectural
     * schedule (sequence number, select cycle, start/complete ticks,
     * transparent/fused flags) in commit order. Two runs with equal
     * checksums executed the same schedule op for op — the
     * scheduler-kernel differential harness compares it alongside
     * every counter above.
     */
    u64 commit_checksum = 0xcbf29ce484222325ull;

    /**
     * Host wall-clock seconds the simulation took. Observability
     * only: NOT part of the deterministic architectural result (the
     * determinism tests and table output ignore it), but preserved by
     * the run cache so throughput trends stay visible. Deliberately
     * absent from the kernel-equivalence comparator: wall-clock time
     * legitimately differs between bit-identical runs.
     */
    double sim_seconds = 0.0; // redsoc-lint: allow(stat-complete)

    /** Simulated millions of committed ops per host second. */
    double simMips() const
    {
        return sim_seconds <= 0.0
                   ? 0.0
                   : static_cast<double>(committed) / sim_seconds / 1e6;
    }

    double ipc() const { return ratioOf(committed, cycles); }
    double fuStallRate() const
    {
        return ratioOf(fu_stall_cycles, cycles);
    }
    double laMispredictRate() const
    {
        return ratioOf(la_mispredictions, la_predictions);
    }
    double widthAggressiveRate() const
    {
        return ratioOf(width_aggressive, width_predictions);
    }
    double branchMispredictRate() const
    {
        return ratioOf(branch_mispredicts, branch_lookups);
    }
};

/** Export run statistics as a named StatGroup (gem5-style dump). */
StatGroup toStatGroup(const CoreStats &stats, const std::string &name);

/**
 * Thrown when the no-commit watchdog trips (no op committed for
 * CoreConfig::no_commit_horizon cycles): the workload deadlocked the
 * pipeline model. Catchable — the differential harnesses compare the
 * abort cycle across scheduler kernels — and carries the cycle at
 * which the watchdog fired.
 */
class DeadlockError : public std::runtime_error
{
  public:
    DeadlockError(Cycle cycle, SeqNum committed, SeqNum total);

    Cycle cycle() const { return cycle_; }

  private:
    Cycle cycle_;
};

class OooCore
{
  public:
    explicit OooCore(CoreConfig config);

    /** Simulate the trace to completion and return the statistics. */
    CoreStats run(const Trace &trace);

    // --- Incremental stepping (the multi-core Processor driver) -----
    //
    // run() is exactly beginRun(); while (stepRun()) {}; finishRun().
    // The split exists so a Processor can interleave several cores in
    // deterministic global-cycle order while each core keeps its
    // whole single-core pipeline model untouched — a core stepped to
    // completion this way is bit-identical to a plain run()
    // (tests/test_proc_equiv.cc proves it on the acceptance grid).

    /** Reset all per-run state and attach @p trace (kept by
     *  reference until finishRun()). */
    void beginRun(const Trace &trace);

    /**
     * Simulate one iteration of the main loop: commit/issue/dispatch
     * for the current cycle, then advance (the event kernel may
     * fast-forward over provably idle cycles). Returns false once the
     * trace has fully committed. Throws DeadlockError exactly as
     * run() does.
     */
    bool stepRun();

    /** Finalize and return the statistics of the stepped run. */
    CoreStats finishRun();

    /** Current simulated cycle (the Processor's lockstep key). */
    Cycle currentCycle() const { return cycle_; }

    /** True once every op of the attached trace has committed. */
    bool runDone() const
    {
        return trace_ == nullptr || commit_ptr_ >= trace_->size();
    }

    /** The private memory hierarchy (the Processor attaches the
     *  shared LLC and the per-core address-space offset here). */
    MemHierarchy &memory() { return memory_; }
    const MemHierarchy &memory() const { return memory_; }

    /**
     * Attach (or detach, with nullptr) a pipeline event tracer for
     * subsequent run()s. The core does not own the tracer. Tracing is
     * observation-only: every event is emitted at a site both
     * scheduler kernels execute with identical arguments, and a
     * traced run's CoreStats are byte-identical to an untraced one
     * (tests/test_trace_equiv.cc).
     */
    void setTracer(PipeTracer *tracer) { tracer_ = tracer; }

    const CoreConfig &config() const { return config_; }

  private:
    /** The runtime invariant audit (REDSOC_AUDIT=1) reads core state
     *  directly at its hook points. */
    friend class InvariantAuditor;
    /** "no cycle" sentinel for event-kernel re-arm hints. */
    static constexpr Cycle kNoCycle = ~Cycle{0};
    /** Re-arm hint: parked behind an older unresolved store. */
    static constexpr Cycle kParkLoad = kNoCycle - 1;
    /** Consumer-edge list terminator. */
    static constexpr u32 kNoEdge = ~u32{0};

    // --- Per-op status lane encoding --------------------------------
    //
    // One byte per op: the lifecycle state in bits 0-1 plus the op's
    // immutable scheduling flags. The layout is load-bearing for the
    // hot loops: "producer not yet scheduled" is the branchless
    // (st & kStMask) < kStDone, and mem-ness is one masked test.

    enum class St : u8 { Fetched = 0, InRs = 1, Done = 2, Committed = 3 };

    static constexpr u8 kStMask = 0x3;
    static constexpr u8 kStFetched = 0;
    static constexpr u8 kStInRs = 1;
    static constexpr u8 kStDone = 2;
    static constexpr u8 kStCommitted = 3;
    static constexpr u8 kEligible = 1u << 2; ///< slack-recycling eligible
    static constexpr u8 kIsLoad = 1u << 3;
    static constexpr u8 kIsStore = 1u << 4;
    static constexpr u8 kIsBranch = 1u << 5;
    static constexpr u8 kInLsq = 1u << 6;
    /** Steady conventional requester: a prior full evaluation reached
     *  the FU check and was denied. Readiness is monotone (producers
     *  stay issued, the gate and LSQ order only resolve forward), so
     *  while the entry's pool has no free unit the whole evaluation
     *  is a provable deny with no simulated side effect and Phase A
     *  may skip it, leaving the entry resident in the ready set. */
    static constexpr u8 kReadyConv = 1u << 7;

    // --- Per-op class lane encoding ---------------------------------
    // FU pool in bits 0-1, FuClass in bits 2-7.
    static constexpr u8 kClsPoolMask = 0x3;
    static u8 packCls(FuPoolKind pool, FuClass fu)
    {
        return static_cast<u8>(static_cast<u8>(pool) |
                               (static_cast<u8>(fu) << 2));
    }

    /** Cold flags (OpCold::cflags): dispatch/issue/commit-time only. */
    static constexpr u8 kColdWidthPredicted = 1u << 0;
    static constexpr u8 kColdLaChecked = 1u << 1;
    static constexpr u8 kColdTransparent = 1u << 2;
    static constexpr u8 kColdFused = 1u << 3;
    static constexpr u8 kColdWidthReplayed = 1u << 4;
    static constexpr u8 kColdBranchMispred = 1u << 5;

    /**
     * Per-dynamic-op cold record: fields written at dispatch and read
     * at most once per issue/commit. Everything the per-cycle loops
     * test repeatedly lives in the dense lanes instead (st_, cls_,
     * pending_, gate_, armed_, sel_, done_). Kept to one cache line
     * so a cold touch costs a single fill.
     */
    struct OpCold
    {
        std::array<SeqNum, 3> prod;
        Cycle dispatch_cycle;
        Tick start_tick;
        u32 predicted_next;  ///< branch predictor outcome
        /** Head/tail of this op's consumer-edge list (kNoEdge = none). */
        u32 cons_head;
        u32 cons_tail;
        /** LUT estimate (predicted bucket); bounded by ticksPerCycle
         *  <= 2^ci_precision_bits, so 16 bits are exact. */
        u16 est_ticks;
        u8 nprod;
        /** Operational design: predicted last-arriving producer slot
         *  (index into prod), 0xff = no prediction needed. */
        u8 pred_last_slot;
        WidthClass pred_wc;
        WidthClass actual_wc;
        u8 cflags;
    };

    /** The record dispatch starts every op from. OpCold itself has no
     *  member initializers, so the lanes can be allocated without a
     *  per-run fill. */
    static constexpr OpCold kFreshCold{
        {kNoSeq, kNoSeq, kNoSeq}, 0, 0, 0, kNoEdge, kNoEdge, 0, 0, 0xff,
        WidthClass::W64, WidthClass::W64, 0};

    /**
     * Per-static-instruction scheduling metadata, precomputed once
     * per run so dispatch and fast-forward never re-derive opcode
     * properties or decode registers through out-of-line calls.
     */
    struct InstMeta
    {
        /** Status-lane seed: flag bits (kEligible/kIsLoad/...) without
         *  state or kInLsq; dispatch ORs the lifecycle state in. */
        u8 seed = 0;
        u8 cls = 0;      ///< packed pool|fu
        u8 flags = 0;    ///< kMeta* properties below
        u8 mem_size = 0; ///< access bytes (memory ops only)
        /** Inst::sources(): compacted, kNoReg-padded. */
        std::array<RegIdx, 3> src{kNoReg, kNoReg, kNoReg};
        RegIdx dst = kNoReg; ///< Inst::destination()
    };

    static constexpr u8 kMetaMem = 1u << 0;
    static constexpr u8 kMetaHalt = 1u << 1;
    static constexpr u8 kMetaNeedsRs = 1u << 2;
    static constexpr u8 kMetaSimd = 1u << 3;
    static constexpr u8 kMetaWidthSens = 1u << 4;

    /** A select-stage request assembled during issue. */
    struct Candidate
    {
        SeqNum seq;
        bool speculative;   ///< EGPW (grandparent-woken) request
        Tick start;
        Tick complete;
        unsigned span;      ///< FU booking cycles
        bool transparent;
        bool recycle_ok;    ///< speculative only: conditions hold
    };

    // --- Lane accessors (hot; all inline) ---------------------------

    St stateOf(SeqNum seq) const
    {
        return static_cast<St>(st_[seq] & kStMask);
    }
    bool inRs(SeqNum seq) const
    {
        return (st_[seq] & kStMask) == kStInRs;
    }
    /** True iff the op has issued (Done or Committed): branchless
     *  producer-scheduled test. */
    bool issued(SeqNum seq) const
    {
        return (st_[seq] & kStMask) >= kStDone;
    }
    void setState(SeqNum seq, St st)
    {
        st_[seq] = static_cast<u8>((st_[seq] & ~kStMask) |
                                   static_cast<u8>(st));
    }
    FuPoolKind poolOf(SeqNum seq) const
    {
        return static_cast<FuPoolKind>(cls_[seq] & kClsPoolMask);
    }
    FuClass fuOf(SeqNum seq) const
    {
        return static_cast<FuClass>(cls_[seq] >> 2);
    }

    // --- The ROB: in-flight ops are exactly [commit_ptr_, next_fetch_)
    bool robEmpty() const { return commit_ptr_ == next_fetch_; }
    bool robFull() const
    {
        return next_fetch_ - commit_ptr_ >= config_.rob_entries;
    }

    void commitPhase();
    void dispatchPhase(const Trace &trace);
    void issuePhase();
    /** Epoch boundary: hill-climb the slack threshold (Sec.IV-C
     *  dynamic-threshold extension). */
    void adaptThreshold();

    /**
     * Evaluate a conventional (parent-woken) candidate.
     *
     * When @p next_try is non-null (event kernel) and the entry is
     * not ready, it receives the earliest future cycle at which the
     * verdict can change: a concrete re-arm cycle, kParkLoad for a
     * load blocked on an older unresolved store, or kNoCycle when
     * only a producer wakeup can unblock the entry. Passing nullptr
     * (the legacy scan kernel) changes nothing.
     */
    bool evalConventional(SeqNum seq, Candidate &cand,
                          Cycle *next_try = nullptr);
    /** Evaluate an EGPW (grandparent-woken) candidate. */
    bool evalEager(SeqNum seq, Candidate &cand);
    /**
     * Phase-A select for one RS entry: evaluate (conventional, plus
     * inline EGPW when @p interleave_spec), grant units, issue.
     * Returns true iff the entry requested selection this cycle
     * (granted or denied); on false, *next_try carries the
     * evalConventional re-arm hint.
     */
    bool phaseAEntry(SeqNum seq, bool interleave_spec, bool &fu_denied,
                     Cycle *next_try);
    /** MOS: try to fuse consumer @p cseq into granted producer @p pg's
     *  cycle. Returns true on fusion. */
    bool tryFuse(const Candidate &pg, SeqNum cseq);

    // --- Event-kernel machinery (SchedKernel::Event) ---------------
    /** Schedule a (re-)evaluation of @p seq in cycle @p c. */
    void armAt(SeqNum seq, Cycle c);
    /** Move an entry into this cycle's candidate sets: the Phase-A
     *  ready set when the Phase-A scan is still running (the entry is
     *  always younger than the scan cursor), else next cycle's queue;
     *  plus the EGPW set when @p newly_woken in an EGPW config. */
    void scheduleEval(SeqNum seq, bool newly_woken);
    /** Broadcast an issued op's tag: decrement consumer pending
     *  counts, waking those that hit zero; a store also re-evaluates
     *  parked loads. */
    void broadcastWakeup(SeqNum seq);
    /** Pop due wake_pq_ arms into the Phase-A ready set. */
    void drainWakeQueue();
    /** Jump cycle_ forward to the next cycle any pipeline stage can
     *  make progress (stats-identical: skipped cycles are provably
     *  side-effect-free under the scan kernel). */
    void fastForward(bool adapting);
    /** Fill a candidate's start/complete/span per mode and op class. */
    void fillCompletion(Candidate &cand, SeqNum seq, Tick arrival,
                        Tick start, bool transparent);

    void issueOp(const Candidate &cand);
    Tick memCompleteTick(SeqNum seq, Tick arrival);

    /** Last-completing producer of @p seq (kNoSeq if none). */
    SeqNum lastProducer(SeqNum seq) const;
    /** Max producer completion tick (0 if no producers). */
    Tick producersComplete(SeqNum seq) const;
    /** Cycle from which conventional wakeup permits selection. */
    Cycle selGate(SeqNum seq) const;

    bool widthSensitive(const Inst &inst) const;
    /** Precompute meta_ for the trace's program. */
    void buildInstMeta(const Program &program);

    /** Trace-emission helper: one predictable branch when detached. */
    void emit(PipeEventKind kind, SeqNum seq, Tick tick, u8 arg = 0,
              SeqNum link = kNoSeq)
    {
        if (tracer_)
            tracer_->record(kind, seq, tick, arg, link);
    }
    /** The sub-cycle CI payload of a tick: ciOf() < ticks-per-cycle
     *  (at most 8), so the narrowing is lossless by construction. */
    u8 ciArg(Tick tick) const
    {
        // redsoc-lint: allow(cycle-narrow)
        return static_cast<u8>(clock_.ciOf(tick));
    }
    /** The full frontend ladder (one macro-stage in this model). */
    void emitFrontend(SeqNum seq);
    /** All issue-time events for a granted candidate. */
    void emitIssue(const Candidate &cand);

    CoreConfig config_;
    SubCycleClock clock_;
    TimingModel timing_;
    SlackLut lut_;
    MemHierarchy memory_;
    BranchPredictor branch_pred_;
    WidthPredictor width_pred_;
    LastArrivalPredictor la_pred_;

    Lsq lsq_;
    ReservationStations rs_;
    FuPool fu_;
    Rat rat_;
    TransparentTracker chains_;

    const Trace *trace_ = nullptr;

    // --- SoA scheduler state, keyed by SeqNum (DESIGN.md §12) ------
    //
    // Lane ownership: st_/sel_/done_ transition at dispatch, issue and
    // commit; pending_/armed_ belong to the event kernel's wakeup
    // network; gate_ is the earliest-eval cycle max(dispatch_cycle+1,
    // retry_cycle); cold_ is written at dispatch and read at
    // issue/commit. Lanes are allocated uninitialized and reused by
    // later runs that fit: every field is fully initialized at the
    // op's dispatch, and no lane is read for an undispatched op.
    template <typename T>
    using Lane = std::unique_ptr<T[]>;
    Lane<u8> st_;       ///< lifecycle state + flag bits
    Lane<u8> cls_;      ///< packed FU pool | FuClass
    Lane<u8> pending_;  ///< producers still in RS (event kernel)
    Lane<Cycle> gate_;  ///< earliest conventional-eval cycle
    Lane<Cycle> armed_; ///< live wake_pq_ arm (stale-guard)
    Lane<Cycle> sel_;   ///< select cycle (valid once issued)
    Lane<Tick> done_;   ///< completion tick (valid once issued)
    Lane<OpCold> cold_; ///< dispatch/commit-only record
    size_t lane_ops_ = 0; ///< ops every lane has room for

    std::vector<InstMeta> meta_; ///< per static instruction
    const DynOp *dyn_ = nullptr; ///< trace_->ops().data() (hoisted)

    SeqNum next_fetch_ = 0;
    SeqNum commit_ptr_ = 0;
    Cycle cycle_ = 0;
    Cycle fetch_stall_until_ = 0;
    SeqNum fetch_blocked_on_ = kNoSeq;
    Cycle last_commit_cycle_ = 0;

    // Dynamic-threshold adaptation state.
    Tick cur_threshold_ = 0;
    int adapt_direction_ = 1;
    SeqNum epoch_start_commits_ = 0;
    SeqNum last_epoch_commits_ = 0;

    // Reusable per-cycle scratch buffer (hot path: issuePhase runs
    // every cycle and must not allocate).
    std::vector<Candidate> conv_grants_; ///< this cycle's conv. grants

    // --- Event-kernel state (SchedKernel::Event) --------------------
    bool event_kernel_ = false;
    /** Maintain the separate EGPW candidate set (skewed Phase B). */
    bool collect_eager_ = false;
    bool in_phase_a_ = false;

    /** Per-producer consumer lists: edge pool + intrusive heads in
     *  OpCold. Edges append at consumer dispatch, so every list is
     *  age-ordered. */
    struct ConsumerEdge
    {
        SeqNum consumer;
        u32 next;
    };
    std::vector<ConsumerEdge> cons_edges_;

    /** Far-future re-evaluations: (cycle, seq) min-heap with lazy
     *  invalidation via armed_. */
    std::priority_queue<std::pair<Cycle, SeqNum>,
                        std::vector<std::pair<Cycle, SeqNum>>,
                        std::greater<>> wake_pq_;
    /** Next-cycle arms (the overwhelmingly common case: denied-grant
     *  retries, post-Phase-A wakeups, fresh dispatches) bypass the
     *  heap; drained by the following cycle's drainWakeQueue. */
    std::vector<SeqNum> next_arms_;
    ReadySet ready_;  ///< this cycle's Phase-A candidates
    ReadySet eager_;  ///< this cycle's EGPW (Phase-B) candidates
    /** Per-store parked-load lists (SoA lanes, mem ops only): a load
     *  blocked on an older unresolved store parks on one concrete
     *  blocker and re-evaluates only when that store resolves at
     *  issue — not on every store issue. park_head_[store] heads an
     *  intrusive list threaded through park_next_[load]; a parked
     *  load is marked by armed_[load] == kParkLoad. Both lanes are
     *  written at the op's dispatch before any read. */
    Lane<SeqNum> park_head_;
    Lane<SeqNum> park_next_;

    /** First cycle NOT covered by a parked span-denied steady
     *  requester. Every cycle below it holds at least one ready
     *  request the scan kernel would count as FU-stalled, so the
     *  event kernel charges fu_stall_cycles for simulated and
     *  fast-forwarded cycles under this horizon alike. */
    Cycle denied_horizon_ = 0;

    PipeTracer *tracer_ = nullptr; ///< not owned; nullptr = off

    /** REDSOC_AUDIT=1 at construction: run the invariant audit. When
     *  off, the whole subsystem costs one branch per hook site. */
    bool audit_on_ = false;
    InvariantAuditor audit_;
    /** prof::enabled() sampled once per run (hoists the check out of
     *  the per-cycle wakeup/select timers). */
    bool profiling_ = false;
    /** Dynamic-threshold adaptation active this run (mode + config). */
    bool adapting_ = false;
    /** beginRun() timestamp for the sim_seconds observability stat. */
    std::chrono::steady_clock::time_point wall_start_{};

    CoreStats stats_;

    // Lane geometry is part of the perf contract: the status/class/
    // pending lanes must stay one byte (64 entries per cache line),
    // the cycle/tick lanes one word, and the cold record one line.
    static_assert(sizeof(decltype(st_)::element_type) == 1,
                  "status lane must be 1 byte per op");
    static_assert(sizeof(decltype(cls_)::element_type) == 1,
                  "class lane must be 1 byte per op");
    static_assert(sizeof(decltype(pending_)::element_type) == 1,
                  "pending lane must be 1 byte per op");
    static_assert(sizeof(Cycle) == 8 && sizeof(Tick) == 8,
                  "cycle/tick lanes must be 8-byte words");
    static_assert(sizeof(OpCold) == 64 && alignof(OpCold) == 8,
                  "cold record must stay one 64-byte cache line");
    static_assert(std::is_trivially_default_constructible_v<OpCold>,
                  "cold record must allocate without a fill");
    static_assert(sizeof(InstMeta) == 8,
                  "per-static-inst metadata must stay 8 bytes");
    static_assert(static_cast<u8>(FuPoolKind::NUM) <= 4,
                  "class lane reserves 2 bits for the FU pool");
    static_assert(static_cast<u8>(FuClass::None) < 64,
                  "class lane reserves 6 bits for the FU class");
};

} // namespace redsoc

#endif // REDSOC_CORE_OOO_CORE_H
