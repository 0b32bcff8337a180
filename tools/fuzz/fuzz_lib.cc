#include "fuzz_lib.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "sim/run_cache.h"
#include "trace/pipe_tracer.h"

namespace redsoc::fuzz {

namespace {

/** The x1..x8 data web a register selector indexes into. */
constexpr unsigned kDataRegs = 8;

RegIdx
dataReg(u8 selector)
{
    return x(1u + selector % kDataRegs);
}

constexpr Opcode kAluOps[] = {Opcode::ADD, Opcode::SUB, Opcode::AND,
                              Opcode::ORR, Opcode::EOR};
constexpr Opcode kLoadOps[] = {Opcode::LDR, Opcode::LDRW, Opcode::LDRH,
                               Opcode::LDRB};
constexpr Opcode kStoreOps[] = {Opcode::STR, Opcode::STRW, Opcode::STRH,
                                Opcode::STRB};

/** Aliasing window: byte-granular offsets over a few cache lines so
 *  different access widths overlap partially, not just exactly. */
s64
memOffset(s64 imm)
{
    return static_cast<s64>(static_cast<u64>(imm) % 96);
}

} // namespace

const char *
fuzzKindName(FuzzInst::Kind kind)
{
    switch (kind) {
      case FuzzInst::Kind::MovImm: return "movimm";
      case FuzzInst::Kind::Alu: return "alu";
      case FuzzInst::Kind::AluImm: return "alui";
      case FuzzInst::Kind::Mul: return "mul";
      case FuzzInst::Kind::Sdiv: return "sdiv";
      case FuzzInst::Kind::Load: return "load";
      case FuzzInst::Kind::Store: return "store";
      case FuzzInst::Kind::Fop: return "fop";
      case FuzzInst::Kind::Branch: return "branch";
      case FuzzInst::Kind::NUM: break;
    }
    return "?";
}

std::optional<FuzzInst::Kind>
fuzzKindByName(const std::string &name)
{
    for (unsigned k = 0; k < static_cast<unsigned>(FuzzInst::Kind::NUM);
         ++k) {
        const auto kind = static_cast<FuzzInst::Kind>(k);
        if (name == fuzzKindName(kind))
            return kind;
    }
    return std::nullopt;
}

// ---------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------

CoreConfig
randomConfig(Rng &rng)
{
    static const char *kBases[] = {"small", "medium", "big"};
    CoreConfig cfg = coreByName(kBases[rng.below(3)]);

    cfg.frontend_width = static_cast<unsigned>(1 + rng.below(5));
    cfg.commit_width = static_cast<unsigned>(1 + rng.below(5));
    cfg.rob_entries = static_cast<unsigned>(4 + rng.below(93));
    cfg.rs_entries = static_cast<unsigned>(2 + rng.below(63));
    cfg.lsq_entries = static_cast<unsigned>(2 + rng.below(31));
    cfg.alu_units = static_cast<unsigned>(1 + rng.below(4));
    cfg.simd_units = static_cast<unsigned>(1 + rng.below(3));
    cfg.fp_units = static_cast<unsigned>(1 + rng.below(3));
    cfg.mem_ports = static_cast<unsigned>(1 + rng.below(2));
    cfg.redirect_penalty = 1 + rng.below(14);

    const double mode_roll = rng.uniform();
    cfg.mode = mode_roll < 0.5   ? SchedMode::ReDSOC
               : mode_roll < 0.8 ? SchedMode::Baseline
                                 : SchedMode::MOS;
    cfg.rs_design = rng.chance(0.5) ? RsDesign::Operational
                                    : RsDesign::Illustrative;

    // CI precision bounds ticksPerCycle (2^bits); the threshold must
    // stay within one cycle or the core (correctly) refuses to run.
    cfg.ci_precision_bits = static_cast<unsigned>(1 + rng.below(4));
    const Tick tpc = Tick{1} << cfg.ci_precision_bits;
    cfg.slack_threshold_ticks = rng.below(tpc + 1);

    cfg.dynamic_threshold = rng.chance(0.3);
    static constexpr Cycle kEpochs[] = {200, 500, 1000, 2000};
    cfg.threshold_epoch = kEpochs[rng.below(4)];
    cfg.egpw = rng.chance(0.8);
    cfg.skewed_select = rng.chance(0.8);

    cfg.memory.l1_latency = 1 + rng.below(3);
    cfg.memory.l2_latency = 6 + rng.below(10);
    cfg.memory.mem_latency = 50 + rng.below(250);
    cfg.memory.prefetch = rng.chance(0.7);
    cfg.memory.prefetch_fill_l1 = rng.chance(0.3);

    // Hierarchy geometry: power-of-two sizes/associativities only
    // (the tag model requires power-of-two set counts). Tiny L1s
    // push the workload into the L2/LLC where the shared-path timing
    // actually differs.
    cfg.memory.l1.size_bytes = u64{8 * 1024} << rng.below(4);
    cfg.memory.l1.assoc = 1u << rng.below(4);
    cfg.memory.l2.size_bytes = u64{256 * 1024} << rng.below(4);
    cfg.memory.l2.assoc = 4u << rng.below(3);

    // Timing-speculation rescale of off-core latencies (>= 1.0; the
    // hierarchy rejects shrinking memory latency with the core clock).
    static constexpr double kScales[] = {1.0, 1.0, 1.25, 1.5, 2.0};
    cfg.memory.offcore_latency_scale = kScales[rng.below(5)];

    // Capacity boundaries: a quarter of the cases pin one structure
    // at its floor (or flood it) so the kernels are differentially
    // tested exactly where a structure fills — RS-full dispatch
    // stalls, ready-set saturation under a starved select, and a
    // floor-sized LSQ where every memory op contends.
    switch (rng.below(12)) {
      case 0: // RS fills within a few cycles: wide frontend, tiny RS
        cfg.rs_entries = static_cast<unsigned>(2 + rng.below(3));
        cfg.frontend_width = static_cast<unsigned>(4 + rng.below(2));
        break;
      case 1: // ready-set saturation: big RS, one unit per pool
        cfg.rs_entries = static_cast<unsigned>(48 + rng.below(17));
        cfg.frontend_width = static_cast<unsigned>(4 + rng.below(2));
        cfg.alu_units = 1;
        cfg.simd_units = 1;
        cfg.fp_units = 1;
        cfg.mem_ports = 1;
        break;
      case 2: // LSQ at its floor
        cfg.lsq_entries = static_cast<unsigned>(2 + rng.below(2));
        break;
      default: // leave the uniform draw above untouched
        break;
    }

    // Small horizon: a genuine scheduler deadlock aborts quickly, and
    // the watchdog-cycle equality between kernels gets fuzzed too.
    cfg.no_commit_horizon = 10'000;
    return cfg;
}

namespace {

/** Biased op-mix profiles: each stresses a different interaction. */
enum class Profile : u8 {
    AluHeavy,   ///< wide dependence webs, select pressure
    Chain,      ///< tight serial chains (maximal recycling)
    MemAlias,   ///< store/load aliasing, parking, forwarding
    Branchy,    ///< mispredict redirects and squashes
    MixedWidth, ///< narrow/wide operand swings (width predictor)
    FpMix,      ///< cross-pool pressure, non-eligible producers
    FanOut,     ///< one hot producer register read by nearly every op
    NUM,
};

FuzzInst
randomInst(Rng &rng, Profile profile)
{
    FuzzInst fi;
    fi.sel = static_cast<u8>(rng.below(256));
    fi.dst = static_cast<u8>(rng.below(256));
    fi.a = static_cast<u8>(rng.below(256));
    fi.b = static_cast<u8>(rng.below(256));
    fi.imm = static_cast<s64>(rng.below(1u << 16));

    const double roll = rng.uniform();
    using K = FuzzInst::Kind;
    switch (profile) {
      case Profile::AluHeavy:
        fi.kind = roll < 0.45   ? K::Alu
                  : roll < 0.8  ? K::AluImm
                  : roll < 0.9  ? K::Mul
                  : roll < 0.95 ? K::Load
                                : K::Store;
        break;
      case Profile::Chain:
        // Serial chain: mostly reuse one register as both source and
        // destination, salted with long-latency producers.
        fi.kind = roll < 0.7    ? K::Alu
                  : roll < 0.85 ? K::Mul
                                : K::Sdiv;
        fi.a = fi.dst;
        if (rng.chance(0.8))
            fi.b = fi.dst;
        break;
      case Profile::MemAlias:
        fi.kind = roll < 0.3   ? K::Store
                  : roll < 0.6 ? K::Load
                  : roll < 0.9 ? K::Alu
                               : K::Mul;
        // Tight window: maximal overlap between mixed-width accesses.
        fi.imm = static_cast<s64>(rng.below(24));
        break;
      case Profile::Branchy:
        fi.kind = roll < 0.35  ? K::Branch
                  : roll < 0.7 ? K::Alu
                  : roll < 0.8 ? K::MovImm
                  : roll < 0.9 ? K::Load
                               : K::Store;
        break;
      case Profile::MixedWidth:
        fi.kind = roll < 0.3    ? K::MovImm
                  : roll < 0.75 ? K::Alu
                  : roll < 0.9  ? K::AluImm
                                : K::Mul;
        // Alternate tiny and huge immediates: operand widths swing.
        if (fi.kind == K::MovImm)
            fi.imm = rng.chance(0.5)
                         ? static_cast<s64>(rng.below(4))
                         : static_cast<s64>(rng.next() >> 8);
        break;
      case Profile::FpMix:
        fi.kind = roll < 0.3    ? K::Fop
                  : roll < 0.6  ? K::Alu
                  : roll < 0.75 ? K::Mul
                  : roll < 0.9  ? K::Load
                                : K::Branch;
        break;
      case Profile::FanOut:
        // Almost every op reads the same hot register, so one
        // producer's consumer-edge list grows toward the RS limit
        // (maximum wakeup fanout); the hot register is redefined only
        // rarely, starting the next fanout web.
        fi.kind = roll < 0.7    ? K::Alu
                  : roll < 0.85 ? K::AluImm
                  : roll < 0.95 ? K::Mul
                                : K::Load;
        fi.a = 0;
        if (rng.chance(0.9))
            fi.b = 0;
        if (rng.chance(0.95) && fi.dst % kDataRegs == 0)
            fi.dst = static_cast<u8>(fi.dst + 1); // keep x1 live
        break;
      case Profile::NUM:
        break;
    }
    return fi;
}

} // namespace

std::vector<FuzzInst>
randomProgram(Rng &rng)
{
    const auto profile = static_cast<Profile>(
        rng.below(static_cast<u64>(Profile::NUM)));
    const size_t len = 24 + rng.below(140);
    std::vector<FuzzInst> prog;
    prog.reserve(len);
    for (size_t i = 0; i < len; ++i)
        prog.push_back(randomInst(rng, profile));
    return prog;
}

FuzzCase
randomCase(u64 seed)
{
    Rng rng(seed ^ 0x8f0c7a2d11235813ull);
    FuzzCase fc;
    fc.name = "seed" + std::to_string(seed);
    fc.config = randomConfig(rng);
    fc.prog = randomProgram(rng);
    return fc;
}

FuzzCase
randomProcCase(u64 seed)
{
    Rng rng(seed ^ 0x3c6ef372fe94f82bull);
    FuzzCase fc;
    fc.name = "proc" + std::to_string(seed);
    fc.config = randomConfig(rng);
    fc.prog = randomProgram(rng);

    fc.cores = static_cast<unsigned>(1 + rng.below(3));
    for (unsigned i = 1; i < fc.cores; ++i)
        fc.extra_progs.push_back(randomProgram(rng));

    // LLC geometry down to a quarter of the big-core L2 so capacity
    // contention (and back-invalidation) actually fires; DRAM from a
    // single serializing bank up to the default eight.
    fc.llc_kb = u64{256} << rng.below(4);
    fc.llc_assoc = 4u << rng.below(3);
    fc.dram_banks = 1u << rng.below(4);
    static constexpr Cycle kOccupancies[] = {0, 8, 16, 64};
    fc.bank_occupancy = kOccupancies[rng.below(4)];
    fc.share_addr = rng.chance(0.25);
    return fc;
}

ProcConfig
procConfigOf(const FuzzCase &fc)
{
    ProcConfig pc;
    pc.num_cores = fc.cores;
    pc.core = fc.config;
    pc.llc.size_bytes = fc.llc_kb * 1024;
    pc.llc.assoc = fc.llc_assoc;
    pc.llc.line_bytes = fc.config.memory.l1.line_bytes;
    pc.dram.banks = fc.dram_banks;
    pc.dram.bank_occupancy = fc.bank_occupancy;
    pc.share_address_space = fc.share_addr;
    return pc;
}

namespace {

Trace
buildProgTrace(const std::string &name, const std::vector<FuzzInst> &prog)
{
    ProgramBuilder b(name);

    // Fixed prologue: the register web every recipe indexes into.
    // x1..x8 data, x9 FP seed, x10 nonzero divisor, x11 memory base.
    for (unsigned r = 1; r <= kDataRegs; ++r)
        b.movImm(x(r), static_cast<s64>(7 * r + 1));
    b.fmovImm(x(9), 1.5);
    b.movImm(x(10), 7);
    b.movImm(x(11), 0x1000);

    using K = FuzzInst::Kind;
    for (const FuzzInst &fi : prog) {
        switch (fi.kind) {
          case K::MovImm:
            b.movImm(dataReg(fi.dst), fi.imm);
            break;
          case K::Alu:
            b.alu(kAluOps[fi.sel % 5], dataReg(fi.dst), dataReg(fi.a),
                  dataReg(fi.b));
            break;
          case K::AluImm:
            b.alui(kAluOps[fi.sel % 5], dataReg(fi.dst), dataReg(fi.a),
                   fi.imm & 0x3f);
            break;
          case K::Mul:
            b.mul(dataReg(fi.dst), dataReg(fi.a), dataReg(fi.b));
            break;
          case K::Sdiv:
            b.sdiv(dataReg(fi.dst), dataReg(fi.a), x(10));
            break;
          case K::Load:
            b.load(kLoadOps[fi.sel % 4], dataReg(fi.dst), x(11),
                   memOffset(fi.imm));
            break;
          case K::Store:
            b.store(kStoreOps[fi.sel % 4], dataReg(fi.a), x(11),
                    memOffset(fi.imm));
            break;
          case K::Fop:
            b.fop(fi.sel % 2 ? Opcode::FMUL : Opcode::FADD, x(9), x(9),
                  x(9));
            break;
          case K::Branch: {
            // Forward conditional over a small internal block: the
            // recipe is self-contained, so any subsequence of recipes
            // still builds (ddmin never breaks label structure).
            ProgramBuilder::Label skip = b.newLabel();
            b.branch(fi.sel % 2 ? Opcode::BNEZ : Opcode::BGTZ,
                     dataReg(fi.a), skip);
            const unsigned block =
                1 + static_cast<unsigned>(static_cast<u64>(fi.imm) % 3);
            for (unsigned k = 0; k < block; ++k)
                b.alui(Opcode::ADD, dataReg(fi.dst), dataReg(fi.dst),
                       static_cast<s64>(k + 1));
            b.bind(skip);
            break;
          }
          case K::NUM:
            break;
        }
    }
    b.halt();

    MemoryImage mem;
    auto program = std::make_shared<const Program>(b.build());
    return traceProgram(program, mem);
}

} // namespace

Trace
buildTrace(const FuzzCase &fc)
{
    return buildProgTrace(fc.name, fc.prog);
}

std::vector<Trace>
buildTraces(const FuzzCase &fc)
{
    std::vector<Trace> traces;
    traces.push_back(buildProgTrace(fc.name, fc.prog));
    for (size_t i = 0; i < fc.extra_progs.size(); ++i)
        traces.push_back(buildProgTrace(
            fc.name + ".core" + std::to_string(i + 1),
            fc.extra_progs[i]));
    return traces;
}

// ---------------------------------------------------------------------
// Differential oracle
// ---------------------------------------------------------------------

RunOutcome
runOne(const Trace &trace, CoreConfig config, SchedKernel kernel,
       bool traced)
{
    config.sched_kernel = kernel;
    OooCore core(std::move(config));
    PipeTracer tracer(1u << 14);
    if (traced)
        core.setTracer(&tracer);
    RunOutcome out;
    try {
        out.stats = core.run(trace);
    } catch (const DeadlockError &e) {
        out.deadlock = true;
        out.deadlock_cycle = e.cycle();
    }
    return out;
}

namespace {

/** The deadlock flag, then the watchdog cycle if both deadlocked,
 *  else the first differing stats field. */
template <class Outcome>
std::string
diffOutcomes(const Outcome &a, const Outcome &b)
{
    std::ostringstream os;
    if (a.deadlock != b.deadlock) {
        os << "deadlock: " << a.deadlock << " vs " << b.deadlock;
        return os.str();
    }
    if (a.deadlock) {
        if (a.deadlock_cycle != b.deadlock_cycle) {
            os << "deadlock_cycle: " << a.deadlock_cycle << " vs "
               << b.deadlock_cycle;
            return os.str();
        }
        return "";
    }
    return firstDifference(a.stats, b.stats);
}

} // namespace

std::string
diffOutcome(const RunOutcome &a, const RunOutcome &b)
{
    return diffOutcomes(a, b);
}

ProcOutcome
runProcOne(const std::vector<Trace> &traces, ProcConfig config,
           SchedKernel kernel, bool traced)
{
    config.core.sched_kernel = kernel;
    Processor proc(config);
    std::vector<std::unique_ptr<PipeTracer>> tracers;
    if (traced) {
        for (unsigned i = 0; i < proc.numCores(); ++i) {
            tracers.push_back(std::make_unique<PipeTracer>(1u << 14));
            proc.setTracer(i, tracers.back().get());
        }
    }
    std::vector<const Trace *> ptrs;
    ptrs.reserve(traces.size());
    for (const Trace &t : traces)
        ptrs.push_back(&t);
    ProcOutcome out;
    try {
        out.stats = proc.run(ptrs);
    } catch (const DeadlockError &e) {
        out.deadlock = true;
        out.deadlock_cycle = e.cycle();
    }
    return out;
}

std::string
diffProcOutcome(const ProcOutcome &a, const ProcOutcome &b)
{
    return diffOutcomes(a, b);
}

namespace {

std::string
checkProcCase(const FuzzCase &fc)
{
    const std::vector<Trace> traces = buildTraces(fc);
    const ProcConfig config = procConfigOf(fc);
    const ProcOutcome scan =
        runProcOne(traces, config, SchedKernel::Scan, false);
    const ProcOutcome event =
        runProcOne(traces, config, SchedKernel::Event, false);
    std::string d = diffProcOutcome(scan, event);
    if (!d.empty())
        return "proc scan/event: " + d;
    const ProcOutcome event_traced =
        runProcOne(traces, config, SchedKernel::Event, true);
    d = diffProcOutcome(event, event_traced);
    if (!d.empty())
        return "proc event traced/untraced: " + d;
    const ProcOutcome scan_traced =
        runProcOne(traces, config, SchedKernel::Scan, true);
    d = diffProcOutcome(scan, scan_traced);
    if (!d.empty())
        return "proc scan traced/untraced: " + d;
    return "";
}

} // namespace

std::string
checkCase(const FuzzCase &fc)
{
    if (fc.cores > 1)
        return checkProcCase(fc);
    const Trace trace = buildTrace(fc);
    const RunOutcome scan =
        runOne(trace, fc.config, SchedKernel::Scan, false);
    const RunOutcome event =
        runOne(trace, fc.config, SchedKernel::Event, false);
    std::string d = diffOutcome(scan, event);
    if (!d.empty())
        return "scan/event: " + d;
    const RunOutcome event_traced =
        runOne(trace, fc.config, SchedKernel::Event, true);
    d = diffOutcome(event, event_traced);
    if (!d.empty())
        return "event traced/untraced: " + d;
    const RunOutcome scan_traced =
        runOne(trace, fc.config, SchedKernel::Scan, true);
    d = diffOutcome(scan, scan_traced);
    if (!d.empty())
        return "scan traced/untraced: " + d;
    return "";
}

// ---------------------------------------------------------------------
// Minimization
// ---------------------------------------------------------------------

FuzzCase
minimizeCase(const FuzzCase &orig)
{
    FuzzCase cur = orig;
    if (checkCase(cur).empty())
        return cur; // nothing to minimize

    // Multi-core collapse first: a divergence that survives with one
    // core is a scalar-kernel bug and gets the (far cheaper) scalar
    // repro; otherwise shed cores one at a time, then normalize the
    // shared-hierarchy knobs toward their defaults.
    if (cur.cores > 1) {
        FuzzCase solo = cur;
        solo.cores = 1;
        solo.extra_progs.clear();
        if (!checkCase(solo).empty()) {
            cur = std::move(solo);
        } else {
            while (cur.cores > 2) {
                FuzzCase fewer = cur;
                --fewer.cores;
                fewer.extra_progs.pop_back();
                if (checkCase(fewer).empty())
                    break;
                cur = std::move(fewer);
            }
        }
    }
    if (cur.cores > 1) {
        const FuzzCase def;
        auto try_proc = [&cur](auto mutate) {
            FuzzCase cand = cur;
            mutate(cand);
            if (!checkCase(cand).empty())
                cur = std::move(cand);
        };
        try_proc([](FuzzCase &c) { c.share_addr = false; });
        try_proc([&](FuzzCase &c) {
            c.bank_occupancy = def.bank_occupancy;
        });
        try_proc([&](FuzzCase &c) { c.dram_banks = def.dram_banks; });
        try_proc([&](FuzzCase &c) {
            c.llc_kb = def.llc_kb;
            c.llc_assoc = def.llc_assoc;
        });
    }

    // ddmin over each surviving recipe program: drop chunks while
    // the divergence persists, halving the chunk until single
    // recipes.
    auto ddmin = [&cur](auto prog_of) {
        size_t chunk = std::max<size_t>(1, prog_of(cur).size() / 2);
        while (true) {
            bool shrunk = false;
            for (size_t start = 0; start < prog_of(cur).size();) {
                const size_t end =
                    std::min(prog_of(cur).size(), start + chunk);
                FuzzCase cand = cur;
                std::vector<FuzzInst> &prog = prog_of(cand);
                prog.erase(prog.begin() +
                               static_cast<std::ptrdiff_t>(start),
                           prog.begin() +
                               static_cast<std::ptrdiff_t>(end));
                if (!prog.empty() && !checkCase(cand).empty()) {
                    cur = std::move(cand);
                    shrunk = true; // keep start: the tail shifted down
                } else {
                    start = end;
                }
            }
            if (chunk == 1) {
                if (!shrunk)
                    break;
                continue; // another single-recipe pass until fixpoint
            }
            chunk = std::max<size_t>(1, chunk / 2);
        }
    };
    ddmin([](FuzzCase &c) -> std::vector<FuzzInst> & { return c.prog; });
    for (size_t i = 0; i < cur.extra_progs.size(); ++i)
        ddmin([i](FuzzCase &c) -> std::vector<FuzzInst> & {
            return c.extra_progs[i];
        });

    // Config normalization: reset each leaf toward the medium-core
    // default, keeping a reset only if the divergence survives it. A
    // reset that leaves the config invalid (a slack threshold beyond
    // the cycle, say) makes the core refuse it: not a repro.
    auto diverges = [](const FuzzCase &c) {
        try {
            return !checkCase(c).empty();
        } catch (const std::logic_error &) {
            return false;
        }
    };
    const CoreConfig def = mediumCore();
    forEachLeaf(def, [&](const std::string &path, const auto &leaf) {
        std::string text;
        appendLeaf(text, leaf);
        FuzzCase cand = cur;
        if (setLeaf(cand.config, path, text) && diverges(cand))
            cur = std::move(cand);
    });
    return cur;
}

// ---------------------------------------------------------------------
// Corpus fixtures
// ---------------------------------------------------------------------

std::string
serializeCase(const FuzzCase &fc)
{
    std::ostringstream os;
    os << "# redsoc_fuzz fixture (replayed by test_fuzz_regress)\n";
    os << "name " << fc.name << '\n';
    os << "config " << fieldsText(fc.config) << '\n';
    if (fc.cores > 1) {
        os << "proc cores=" << fc.cores << " llckb=" << fc.llc_kb
           << " llcassoc=" << fc.llc_assoc
           << " banks=" << fc.dram_banks
           << " occ=" << fc.bank_occupancy
           << " share=" << fc.share_addr << '\n';
    }
    auto emit_prog = [&os](const std::vector<FuzzInst> &prog) {
        for (const FuzzInst &fi : prog) {
            os << "inst " << fuzzKindName(fi.kind)
               << " sel=" << static_cast<unsigned>(fi.sel)
               << " d=" << static_cast<unsigned>(fi.dst)
               << " a=" << static_cast<unsigned>(fi.a)
               << " b=" << static_cast<unsigned>(fi.b)
               << " imm=" << fi.imm << '\n';
        }
    };
    emit_prog(fc.prog);
    for (size_t i = 0; i < fc.extra_progs.size(); ++i) {
        os << "core " << (i + 1) << '\n';
        emit_prog(fc.extra_progs[i]);
    }
    return os.str();
}

namespace {

[[noreturn]] void
malformed(const std::string &what)
{
    throw std::runtime_error("malformed fuzz fixture: " + what);
}

/** Split "key=value", throwing on anything else. */
std::pair<std::string, std::string>
splitKv(const std::string &tok)
{
    const size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0)
        malformed("expected key=value, got '" + tok + "'");
    return {tok.substr(0, eq), tok.substr(eq + 1)};
}

s64
parseNum(const std::string &v)
{
    try {
        size_t used = 0;
        const s64 n = std::stoll(v, &used);
        if (used != v.size())
            malformed("trailing junk in number '" + v + "'");
        return n;
    } catch (const std::logic_error &) {
        malformed("bad number '" + v + "'");
    }
}

unsigned
parseUnsigned(const std::string &v)
{
    const s64 n = parseNum(v);
    if (n < 0)
        malformed("negative value '" + v + "'");
    return static_cast<unsigned>(n);
}

} // namespace

FuzzCase
parseCase(const std::string &text)
{
    FuzzCase fc;
    bool saw_config = false;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string word;
        if (!(ls >> word) || word[0] == '#')
            continue;
        if (word == "name") {
            if (!(ls >> fc.name))
                malformed("name line without a value");
        } else if (word == "config") {
            saw_config = true;
            std::string leaves;
            std::getline(ls, leaves);
            const std::string err = parseFieldsText(leaves, fc.config);
            if (!err.empty())
                malformed("config line: " + err);
        } else if (word == "proc") {
            while (ls >> word) {
                auto [k, v] = splitKv(word);
                if (k == "cores")
                    fc.cores = parseUnsigned(v);
                else if (k == "llckb")
                    fc.llc_kb = parseUnsigned(v);
                else if (k == "llcassoc")
                    fc.llc_assoc = parseUnsigned(v);
                else if (k == "banks")
                    fc.dram_banks = parseUnsigned(v);
                else if (k == "occ")
                    fc.bank_occupancy = parseUnsigned(v);
                else if (k == "share")
                    fc.share_addr = parseUnsigned(v) != 0;
                else
                    malformed("unknown proc key '" + k + "'");
            }
            if (fc.cores == 0 || fc.cores > 64)
                malformed("proc cores out of range");
        } else if (word == "core") {
            if (!(ls >> word))
                malformed("core line without an index");
            const unsigned idx = parseUnsigned(word);
            if (idx != fc.extra_progs.size() + 1 || idx >= fc.cores)
                malformed("core index " + word + " out of sequence");
            fc.extra_progs.emplace_back();
        } else if (word == "inst") {
            if (!(ls >> word))
                malformed("inst line without a kind");
            const auto kind = fuzzKindByName(word);
            if (!kind)
                malformed("unknown inst kind '" + word + "'");
            FuzzInst fi;
            fi.kind = *kind;
            while (ls >> word) {
                auto [k, v] = splitKv(word);
                if (k == "sel")
                    fi.sel = static_cast<u8>(parseUnsigned(v));
                else if (k == "d")
                    fi.dst = static_cast<u8>(parseUnsigned(v));
                else if (k == "a")
                    fi.a = static_cast<u8>(parseUnsigned(v));
                else if (k == "b")
                    fi.b = static_cast<u8>(parseUnsigned(v));
                else if (k == "imm")
                    fi.imm = parseNum(v);
                else
                    malformed("unknown inst key '" + k + "'");
            }
            if (fc.extra_progs.empty())
                fc.prog.push_back(fi);
            else
                fc.extra_progs.back().push_back(fi);
        } else {
            malformed("unknown directive '" + word + "'");
        }
    }
    if (!saw_config)
        malformed("missing config line");
    if (fc.prog.empty())
        malformed("empty program");
    if (fc.cores > 1 && fc.extra_progs.size() != fc.cores - 1)
        malformed("expected " + std::to_string(fc.cores - 1) +
                  " extra core programs, got " +
                  std::to_string(fc.extra_progs.size()));
    if (fc.cores == 1 && !fc.extra_progs.empty())
        malformed("core sections without a multi-core proc line");
    for (const std::vector<FuzzInst> &prog : fc.extra_progs)
        if (prog.empty())
            malformed("empty core program");
    return fc;
}

} // namespace redsoc::fuzz
