/**
 * @file
 * redsoc_fuzz — differential fuzzing of the scheduler kernels.
 *
 * The harness generates random (trace, CoreConfig) points from a
 * seed, runs each through the Scan and Event kernels and through
 * traced and untraced paths, and compares every deterministic
 * CoreStats field plus the commit-schedule checksum (firstDifference,
 * the comparator the differential suites tests/test_sched_equiv.cc /
 * test_trace_equiv.cc use — but over generated op mixes and config
 * points instead of a fixed grid). A mismatching point is shrunk by a
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
 * One fuzz point: a recipe program plus a full core configuration.
 * With `cores > 1` the point is a multi-programmed Processor mix:
 * core 0 runs `prog`, core i runs `extra_progs[i-1]`, and the LLC /
 * DRAM knobs shape the shared hierarchy (DESIGN.md §14). `cores == 1`
 * is the classic single-core differential point.
 */
struct FuzzCase
{
    std::string name = "case";
    CoreConfig config{};
    std::vector<FuzzInst> prog;

    // Multi-core section (inert at the default cores == 1).
    unsigned cores = 1;
    std::vector<std::vector<FuzzInst>> extra_progs{};
    u64 llc_kb = 2048;
    unsigned llc_assoc = 16;
    unsigned dram_banks = 8;
    Cycle bank_occupancy = 16;
    bool share_addr = false;
};

/** The ProcConfig a multi-core case describes (LLC line size pinned
 *  to the core's L1 line, as validateProcConfig requires). */
ProcConfig procConfigOf(const FuzzCase &fc);

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
// Differential oracle
// ---------------------------------------------------------------------

/** Result of one kernel run: stats, or the deadlock-watchdog cycle. */
struct RunOutcome
{
    bool deadlock = false;
    Cycle deadlock_cycle = 0;
    CoreStats stats{};
};

/** Run @p trace under @p kernel (optionally traced), catching the
 *  deadlock watchdog. */
RunOutcome runOne(const Trace &trace, CoreConfig config,
                  SchedKernel kernel, bool traced);

/** First difference between two outcomes ("" if identical): the
 *  deadlock flag and cycle, else the path of the first differing
 *  CoreStats field (firstDifference, sim/run_cache.h). */
std::string diffOutcome(const RunOutcome &a, const RunOutcome &b);

/** Result of one multi-core run: per-core + LLC stats, or the first
 *  deadlock-watchdog cycle. */
struct ProcOutcome
{
    bool deadlock = false;
    Cycle deadlock_cycle = 0;
    ProcStats stats{};
};

/** Run the mix under @p kernel (optionally traced), catching the
 *  deadlock watchdog. */
ProcOutcome runProcOne(const std::vector<Trace> &traces,
                       ProcConfig config, SchedKernel kernel,
                       bool traced);

/** First difference between two multi-core outcomes ("" if
 *  identical): the deadlock flag and cycle, else the path of the
 *  first differing ProcStats field ("cores.1.cycles",
 *  "llc.per_core.0.hits"). */
std::string diffProcOutcome(const ProcOutcome &a, const ProcOutcome &b);

/**
 * The full oracle for one point: Scan vs Event untraced, then
 * traced-vs-untraced under each kernel. Returns "" when every pair
 * agrees, else a description of the first divergence. Multi-core
 * cases run the same three pairs through the Processor, comparing
 * per-core and LLC statistics.
 */
std::string checkCase(const FuzzCase &fc);

// ---------------------------------------------------------------------
// Minimization
// ---------------------------------------------------------------------

/**
 * Shrink a diverging case: for multi-core points, first try
 * collapsing to one core and normalizing the LLC/DRAM knobs; then
 * ddmin over every surviving recipe program (drop chunks, halving
 * the chunk size, while the divergence persists), then per-field
 * config normalization toward the medium-core defaults. Requires
 * checkCase(fc) to be non-empty; the returned case still diverges.
 */
FuzzCase minimizeCase(const FuzzCase &fc);

// ---------------------------------------------------------------------
// Corpus fixtures
// ---------------------------------------------------------------------

/** Serialize to the self-contained text fixture format (see
 *  DESIGN.md §11.3 and tests/fuzz_corpus/). */
std::string serializeCase(const FuzzCase &fc);

/** Parse a fixture; throws std::runtime_error on malformed input. */
FuzzCase parseCase(const std::string &text);

} // namespace redsoc::fuzz

#endif // REDSOC_TOOLS_FUZZ_FUZZ_LIB_H
