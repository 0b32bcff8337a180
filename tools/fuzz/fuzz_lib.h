/**
 * @file
 * The equivalence-contract checker and redsoc_fuzz, the differential
 * fuzzer built on it.
 *
 * checkContracts() is the one oracle for the simulator's exactness
 * contracts (Contract, below). The grid suites (test_sched_equiv,
 * test_trace_equiv, test_proc_equiv, test_critpath) call it on their
 * fixed points; the fuzzer calls it on random (trace, CoreConfig)
 * points drawn from a seed. A failing point is shrunk by a
 * ddmin-style minimizer to a minimal repro and serialized as a
 * self-contained text fixture that the test_fuzz_regress suite
 * replays from tests/fuzz_corpus/.
 *
 * Programs are generated as a recipe IR (FuzzInst) rather than raw
 * instructions so that (a) every recipe subsequence still builds into
 * a valid, halting program — the minimizer can drop any subset — and
 * (b) fixtures stay readable and diffable.
 */

#ifndef REDSOC_TOOLS_FUZZ_FUZZ_LIB_H
#define REDSOC_TOOLS_FUZZ_FUZZ_LIB_H

#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/ooo_core.h"
#include "critpath/dep_graph.h"
#include "critpath/retimer.h"
#include "func/interpreter.h"
#include "isa/builder.h"
#include "proc/processor.h"

namespace redsoc::fuzz {

/**
 * One program-recipe step. Fields are interpreted per kind; register
 * selectors index the x1..x8 data web (reduced modulo 8), `sel`
 * picks an opcode variant within the kind, `imm` is an immediate /
 * address offset / block-size selector. Every combination of field
 * values is valid by construction.
 */
struct FuzzInst
{
    enum class Kind : u8 {
        MovImm, ///< reseed a data register (imm)
        Alu,    ///< reg-reg ALU op (sel: ADD/SUB/AND/ORR/EOR)
        AluImm, ///< reg-imm ALU op (sel as Alu, imm & 0x3f)
        Mul,    ///< multi-cycle integer producer
        Sdiv,   ///< long-latency producer (divisor x10, never zero)
        Load,   ///< load from the aliasing window (sel: width 8/4/2/1)
        Store,  ///< store into the aliasing window (sel: width)
        Fop,    ///< FP op on x9 (sel: FADD/FMUL)
        Branch, ///< forward conditional over a small internal block
        /** Load from one of twelve lines 16 KiB apart (sel: width):
         *  they share a set in every L1 the fuzzer draws, so the
         *  footprint overflows L1 and reuse hits the L2 or LLC. */
        LoadFar,
        StoreFar, ///< store into the LoadFar lines (sel: width)
        NUM,
    };

    Kind kind = Kind::Alu;
    u8 sel = 0;
    u8 dst = 0; ///< destination selector (mod 8 -> x1..x8)
    u8 a = 0;   ///< first source selector
    u8 b = 0;   ///< second source selector
    s64 imm = 0;
};

const char *fuzzKindName(FuzzInst::Kind kind);
std::optional<FuzzInst::Kind> fuzzKindByName(const std::string &name);

/**
 * One fuzz point: a recipe program plus a full configuration. A
 * single-core point (`config.num_cores == 1`) runs `prog` on
 * `config.core` and reads nothing else of `config`. With more cores
 * the point is a multi-programmed Processor mix under all of
 * `config` (DESIGN.md §14): core 0 runs `prog`, core i runs
 * `extra_progs[i-1]`.
 */
struct FuzzCase
{
    std::string name = "case";
    ProcConfig config{};
    std::vector<FuzzInst> prog;
    std::vector<std::vector<FuzzInst>> extra_progs{};
};

// ---------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------

/** Random core configuration, always valid (every structure nonzero,
 *  slack threshold within a cycle, both kernels representable). */
CoreConfig randomConfig(Rng &rng);

/** Random recipe program: one of several biased op-mix profiles
 *  (ALU-heavy, tight dependence chains, store/load aliasing,
 *  branch-heavy, mixed-width, FP/mixed pools). */
std::vector<FuzzInst> randomProgram(Rng &rng);

/** A full random point derived from @p seed (deterministic). */
FuzzCase randomCase(u64 seed);

/** A random multi-core point: 1-3 cores with independent programs,
 *  randomized LLC geometry, DRAM banking, and address-space sharing
 *  on top of the same config/program distributions. */
FuzzCase randomProcCase(u64 seed);

/** Build the executable trace: register-seed prologue, recipes,
 *  HALT. Any recipe sequence builds and halts. */
Trace buildTrace(const FuzzCase &fc);

/** One trace per core: core 0 from `prog`, the rest from
 *  `extra_progs`. */
std::vector<Trace> buildTraces(const FuzzCase &fc);

// ---------------------------------------------------------------------
// Contract checker
// ---------------------------------------------------------------------

/** What a run has attached: nothing, a recorder per core, or (single
 *  core) a recorder whose dependence graph is also built. */
enum class Observer : u8 { None, Recorder, Graph };

/** Result of one run: stats, or the deadlock-watchdog cycle, plus
 *  what the recorder saw when the run completed. */
struct RunOutcome
{
    bool deadlock = false;
    Cycle deadlock_cycle = 0;
    CoreStats stats{};
    u64 events = 0;        ///< GraphRecorder::eventsSeen()
    u64 record_digest = 0; ///< GraphRecorder::digest()
    DepGraph graph{};      ///< the frozen graph (Observer::Graph)
};

/** Run @p trace under @p kernel with @p observer attached, catching
 *  the deadlock watchdog. */
RunOutcome runOne(const Trace &trace, CoreConfig config,
                  SchedKernel kernel,
                  Observer observer = Observer::None);

/** First difference between two outcomes ("" if identical): the
 *  deadlock flag and cycle, else the path of the first differing
 *  CoreStats field (firstDifference, sim/run_cache.h). */
std::string diffOutcome(const RunOutcome &a, const RunOutcome &b);

/** Result of one multi-core run: per-core + LLC stats, or the first
 *  deadlock-watchdog cycle, plus what the cores' recorders saw. */
struct ProcOutcome
{
    bool deadlock = false;
    Cycle deadlock_cycle = 0;
    ProcStats stats{};
    u64 events = 0;        ///< eventsSeen(), summed over the cores
    u64 record_digest = 0; ///< the cores' digest()s, folded in order
};

/** First difference between two multi-core outcomes ("" if
 *  identical): the deadlock flag and cycle, else the path of the
 *  first differing ProcStats field ("cores.1.cycles",
 *  "llc.per_core.0.hits"). */
std::string diffProcOutcome(const ProcOutcome &a, const ProcOutcome &b);

/** 16 lowercase hex digits: the digest text of the golden files. */
std::string hexDigest(u64 digest);

/** 1-core ProcConfig whose shared LLC has exactly the geometry of
 *  @p core's private L2: the configuration under which a Processor
 *  must equal the plain core. */
ProcConfig soloConfig(const CoreConfig &core);

/**
 * FNV-1a digest of a whole graph: every DepGraph array, the machine
 * parameters and drop counters, and each op's per-milestone edge
 * ranges (folded as count and edges per destination milestone, so
 * the digest does not depend on how the CSR stores its fences).
 * tests/golden/critpath_grid_digests.txt pins one per grid point.
 */
u64 graphDigest(const DepGraph &g);

/** Every what-if knob combination the batched pass special-cases:
 *  CI precision ladder x EGPW honoring x FU scaling, plus the two
 *  bound models. */
std::vector<WhatIfModel> crossCheckModels();

/** The equivalence contracts checkContracts can check, as bits
 *  (DESIGN.md §11.1 states each). */
enum Contract : u32 {
    kScanEqualsEvent = 1u << 0, ///< untraced Scan ≡ untraced Event
    kRecorderNeutral = 1u << 1, ///< recorder-attached ≡ untraced, not empty
    /** Both kernels record the same run: event count and the digest
     *  of every recorder lane. */
    kRecordsMatch = 1u << 2,
    kProcSolo = 1u << 3, ///< 1-core Processor ≡ the single core
    /** The graph covers every op, passes validate(), reaches every
     *  node from op 0's dispatch, keeps within kMaxEdgesPerOp edges
     *  per op, and is the same under both kernels. */
    kGraph = 1u << 4,
    kBaseRetime = 1u << 5,    ///< base retime ≡ every observed tick
    kBatchedRetime = 1u << 6, ///< retimeAll ≡ retime, ≤ 4096 lane rows
    kAllContracts = (1u << 7) - 1,
};

/** What one checkContracts call checks. */
struct Contracts
{
    u32 checks = kAllContracts;
    /** Kernels the per-kernel contracts run under. kScanEqualsEvent,
     *  kRecordsMatch and kGraph's kernel comparison need both. */
    std::vector<SchedKernel> kernels{SchedKernel::Scan,
                                     SchedKernel::Event};
    /** hexDigest(graphDigest) every recorded graph must have; empty:
     *  none pinned. */
    std::string digest{};
    /** Whether a run may end at the deadlock watchdog. When false, a
     *  deadlocked run fails ("completed/<kernel>"). When true (fuzz
     *  points), the runs must still agree on whether and when they
     *  deadlocked, and the graph contracts check the completed
     *  recorder runs; a pinned digest still fails on a deadlock. */
    bool deadlock_ok = false;
};

/** What checkContracts found. */
struct ContractReport
{
    /** "" when every requested contract holds, else the first
     *  failure: "<contract>/<kernel>: <what differs>". */
    std::string failure;
    /** The first run's stats (all runs agree when failure is ""). */
    CoreStats stats{};
    /** graphDigest of the first recorded graph (0: none recorded). */
    u64 digest = 0;
    /** Lane rows of the batched pass (kBatchedRetime), the largest
     *  over the kernels. */
    u32 lane_rows = 0;
};

/**
 * The one checker of the equivalence contracts. Makes each (kernel,
 * observer) run the requested contracts need exactly once (untraced,
 * recorder-attached, and a 1-core Processor), then checks that no run
 * deadlocked (unless Contracts::deadlock_ok) and the contracts in
 * declaration order, and reports the first failure.
 */
ContractReport checkContracts(const Trace &trace, const CoreConfig &config,
                              const Contracts &contracts = {});

/**
 * The same checker over a multi-core mix: core i runs traces[i] under
 * @p config. It checks kScanEqualsEvent, kRecorderNeutral and
 * kRecordsMatch, over every core's and the LLC's statistics and every
 * core's record, with the same code as a single core; the other
 * contracts are single-core ones and are not asked of a mix. The
 * report's stats and digest stay empty.
 */
ContractReport checkContracts(const std::vector<const Trace *> &traces,
                              const ProcConfig &config,
                              const Contracts &contracts = {});

/**
 * The oracle for one fuzz point: every contract of checkContracts,
 * on the single core or the multi-core mix, a deadlock on the same
 * cycle in every run being legal. Returns "" when every contract
 * holds, else a description of the first failure.
 */
std::string checkCase(const FuzzCase &fc);

/** configError of what @p fc runs: a single-core case's core also
 *  runs as a 1-core Processor (soloConfig), a mix its ProcConfig. */
std::string caseConfigError(const FuzzCase &fc);

// ---------------------------------------------------------------------
// Minimization
// ---------------------------------------------------------------------

/**
 * Shrink a diverging case: for multi-core points, first try
 * collapsing to one core, or shedding cores; then ddmin over every
 * surviving recipe program (drop chunks, halving the chunk size,
 * while the divergence persists); then reset each config leaf the
 * case reads toward its default (the core template toward the
 * medium core). Requires checkCase(fc) to be non-empty; the returned
 * case still diverges.
 */
FuzzCase minimizeCase(const FuzzCase &fc);

// ---------------------------------------------------------------------
// Corpus fixtures
// ---------------------------------------------------------------------

/** Serialize to the self-contained text fixture format (see
 *  DESIGN.md §11.3 and tests/fuzz_corpus/). */
std::string serializeCase(const FuzzCase &fc);

/** Parse a fixture; throws std::runtime_error on malformed input,
 *  a config that caseConfigError rejects included. */
FuzzCase parseCase(const std::string &text);

} // namespace redsoc::fuzz

#endif // REDSOC_TOOLS_FUZZ_FUZZ_LIB_H
