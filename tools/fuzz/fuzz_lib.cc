#include "fuzz_lib.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "critpath/dep_graph_builder.h"
#include "sim/run_cache.h"

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

/** LoadFar/StoreFar lines: a multiple of every drawn L1's set stride
 *  (size / assoc, at most 64 KiB / 4), twelve of them, more than the
 *  deepest L1 set holds; then a word within the line. */
s64
farOffset(s64 imm)
{
    const u64 v = static_cast<u64>(imm);
    return static_cast<s64>((v % 12) * 16 * 1024 + (v / 12 % 8) * 8);
}

} // namespace

const char *
fuzzKindName(FuzzInst::Kind kind)
{
    static constexpr const char *kNames[] = {
        "movimm", "alu", "alui",   "mul",     "sdiv",    "load",
        "store",  "fop", "branch", "loadfar", "storefar"};
    static_assert(std::size(kNames) ==
                  static_cast<size_t>(FuzzInst::Kind::NUM));
    const auto i = static_cast<size_t>(kind);
    return i < std::size(kNames) ? kNames[i] : "?";
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

    // Every draw stays inside configError's ranges (FuzzHarness
    // property test); the threshold is drawn up to one full cycle.
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

    // Hierarchy geometry: tiny L1s push the workload into the L2/LLC
    // where the shared-path timing actually differs.
    cfg.memory.l1.size_bytes = u64{8 * 1024} << rng.below(4);
    cfg.memory.l1.assoc = 1u << rng.below(4);
    cfg.memory.l2.size_bytes = u64{256 * 1024} << rng.below(4);
    cfg.memory.l2.assoc = 4u << rng.below(3);

    // Timing-speculation rescale of off-core latencies.
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
    Footprint,  ///< memory beyond L1: reuse hits the L2 / shared LLC
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
      case Profile::Footprint:
        fi.kind = roll < 0.35   ? K::LoadFar
                  : roll < 0.55 ? K::StoreFar
                  : roll < 0.85 ? K::Alu
                                : K::Mul;
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
    fc.config.core = randomConfig(rng);
    fc.prog = randomProgram(rng);
    return fc;
}

FuzzCase
randomProcCase(u64 seed)
{
    Rng rng(seed ^ 0x3c6ef372fe94f82bull);
    FuzzCase fc;
    fc.name = "proc" + std::to_string(seed);
    ProcConfig &pc = fc.config;
    pc.core = randomConfig(rng);
    fc.prog = randomProgram(rng);

    pc.num_cores = static_cast<unsigned>(1 + rng.below(3));
    for (unsigned i = 1; i < pc.num_cores; ++i)
        fc.extra_progs.push_back(randomProgram(rng));

    // LLC geometry down to a quarter of the big-core L2 so capacity
    // contention (and back-invalidation) actually fires; DRAM from a
    // single serializing bank up to the default eight.
    pc.llc.size_bytes = (u64{256} << rng.below(4)) * 1024;
    pc.llc.assoc = 4u << rng.below(3);
    pc.dram.banks = 1u << rng.below(4);
    static constexpr Cycle kOccupancies[] = {0, 8, 16, 64};
    pc.dram.bank_occupancy = kOccupancies[rng.below(4)];
    pc.share_address_space = rng.chance(0.25);
    return fc;
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
          case K::LoadFar:
            b.load(kLoadOps[fi.sel % 4], dataReg(fi.dst), x(11),
                   farOffset(fi.imm));
            break;
          case K::StoreFar:
            b.store(kStoreOps[fi.sel % 4], dataReg(fi.a), x(11),
                    farOffset(fi.imm));
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
// Contract checker
// ---------------------------------------------------------------------

namespace {

/** @p parts, printed one after the other. */
template <class... Parts>
std::string
str(const Parts &...parts)
{
    std::ostringstream os;
    (os << ... << parts);
    return os.str();
}

} // namespace

RunOutcome
runOne(const Trace &trace, CoreConfig config, SchedKernel kernel,
       Observer observer)
{
    config.sched_kernel = kernel;
    OooCore core(config);
    std::optional<DepGraphBuilder> builder;
    if (observer != Observer::None) {
        builder.emplace(trace, config);
        core.setRecorder(&*builder);
    }
    RunOutcome out;
    try {
        out.stats = core.run(trace);
    } catch (const DeadlockError &e) {
        out.deadlock = true;
        out.deadlock_cycle = e.cycle();
        return out;
    }
    if (builder) {
        out.events = builder->eventsSeen();
        out.record_digest = builder->digest();
        if (observer == Observer::Graph)
            out.graph = builder->finalize();
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
    if (a.deadlock != b.deadlock)
        return str("deadlock: ", a.deadlock, " vs ", b.deadlock);
    if (a.deadlock)
        return a.deadlock_cycle == b.deadlock_cycle
                   ? ""
                   : str("deadlock_cycle: ", a.deadlock_cycle, " vs ",
                         b.deadlock_cycle);
    return firstDifference(a.stats, b.stats);
}

ProcOutcome
runProcOne(const std::vector<const Trace *> &traces, ProcConfig config,
           SchedKernel kernel, Observer observer = Observer::None)
{
    config.core.sched_kernel = kernel;
    Processor proc(config);
    std::vector<std::unique_ptr<GraphRecorder>> recorders;
    if (observer != Observer::None) {
        for (unsigned i = 0; i < proc.numCores(); ++i) {
            recorders.push_back(
                std::make_unique<GraphRecorder>(traces.at(i)->size()));
            proc.setRecorder(i, recorders.back().get());
        }
    }
    ProcOutcome out;
    try {
        out.stats = proc.run(traces);
    } catch (const DeadlockError &e) {
        out.deadlock = true;
        out.deadlock_cycle = e.cycle();
        return out;
    }
    Fnv1a fold;
    for (const auto &rec : recorders) {
        out.events += rec->eventsSeen();
        fold(rec->digest());
    }
    out.record_digest = fold.h;
    return out;
}

/** Op @p i's CSR range [first, second) in g.edges. */
std::pair<u32, u32>
opEdges(const DepGraph &g, u32 i)
{
    return {g.edge_begin[nodeId(i, Milestone::D)],
            g.edge_begin[nodeId(i + 1, Milestone::D)]};
}

} // namespace

std::string
diffOutcome(const RunOutcome &a, const RunOutcome &b)
{
    return diffOutcomes(a, b);
}

std::string
diffProcOutcome(const ProcOutcome &a, const ProcOutcome &b)
{
    return diffOutcomes(a, b);
}

std::string
hexDigest(u64 digest)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

ProcConfig
soloConfig(const CoreConfig &core)
{
    ProcConfig cfg;
    cfg.num_cores = 1;
    cfg.core = core;
    cfg.llc = core.memory.l2;
    cfg.llc.line_bytes = core.memory.l1.line_bytes;
    return cfg;
}

u64
graphDigest(const DepGraph &g)
{
    Fnv1a fold;
    const MachineParams &mp = g.params;
    for (const u64 v :
         {u64{mp.frontend_width}, u64{mp.commit_width},
          u64{mp.rob_entries}, u64{mp.rs_entries}, u64{mp.lsq_entries},
          u64{mp.redirect_penalty}, u64{mp.ticks_per_cycle},
          u64{mp.ci_precision_bits}, u64{mp.slack_threshold_ticks}})
        fold(v);
    for (const unsigned u : mp.units)
        fold(u);
    fold(g.num_ops);
    for (u32 i = 0; i < g.num_ops; ++i) {
        for (const u64 v : {g.obs_d[i], g.obs_s[i], g.obs_x[i],
                            g.obs_w[i], g.obs_c[i], u64{g.flags[i]},
                            u64{g.pool[i]}, u64{g.pool_pos[i]}})
            fold(v);
        const auto [first, last] = opEdges(g, i);
        u32 e = first;
        for (u32 ms = 0; ms < kNumMilestones; ++ms) {
            const u32 begin = e;
            while (e < last &&
                   static_cast<u32>(edgeDstMilestone(g.edges[e].kind)) ==
                       ms)
                ++e;
            fold(e - begin);
            for (u32 k = begin; k < e; ++k) {
                fold(g.edges[k].src);
                fold(g.edges[k].aux);
                fold(static_cast<u64>(g.edges[k].kind));
            }
        }
        fold(last - e); // edges out of milestone order (0 when valid)
    }
    for (const auto &order : g.pool_order) {
        fold(order.size());
        for (const u32 op : order)
            fold(op);
    }
    fold(g.topo.size());
    for (const u32 node : g.topo)
        fold(node);
    fold(g.dropped_nonmonotone_data);
    fold(g.dropped_nonmonotone_mem);
    return fold.h;
}

std::vector<WhatIfModel>
crossCheckModels()
{
    std::vector<WhatIfModel> models;
    for (unsigned bits : {1u, 2u, 3u, 4u}) {
        for (bool egpw : {true, false}) {
            for (double fu : {0.5, 1.0, 2.0, 4.0, 16.0}) {
                WhatIfModel m;
                m.name = "ci" + std::to_string(bits) +
                         (egpw ? "" : "_noegpw") + "_fu" +
                         std::to_string(fu);
                m.exact_replay = false;
                m.ci_bits = bits;
                m.egpw = egpw;
                m.fu_scale = fu;
                models.push_back(m);
            }
        }
    }
    for (double fu : {0.5, 1.0, 2.0}) {
        WhatIfModel m;
        m.name = "ideal_fu" + std::to_string(fu);
        m.exact_replay = false;
        m.zero_latency_recycle = true;
        m.fu_scale = fu;
        models.push_back(m);
        m.name = "none_fu" + std::to_string(fu);
        m.zero_latency_recycle = false;
        m.no_recycle = true;
        models.push_back(m);
    }
    return models;
}

namespace {

/** The graph invariants of one completed recorder run: every op
 *  recorded, validate(), every node reachable from op 0's dispatch,
 *  at most kMaxEdgesPerOp edges per op in the array reserved for
 *  them. "" when all hold. */
std::string
graphProblem(const DepGraph &g, const CoreStats &stats, u64 trace_ops)
{
    if (g.num_ops != trace_ops || stats.committed != trace_ops)
        return str("recorded ", g.num_ops, " ops, committed ",
                   stats.committed, " of ", trace_ops);
    const std::string invalid = g.validate();
    if (!invalid.empty())
        return "validate: " + invalid;
    // Forward reachability in topological order: a node is reached
    // when any edge into it leaves a reached node.
    std::vector<char> reach(size_t{g.num_ops} * kNumMilestones, 0);
    reach[nodeId(0, Milestone::D)] = 1;
    for (const u32 node : g.topo) {
        for (u32 e = g.edge_begin[node];
             e < g.edge_begin[node + 1] && !reach[node]; ++e) {
            const Edge &edge = g.edges[e];
            reach[node] = reach[nodeId(edge.src, edgeSrcMilestone(edge.kind))];
        }
        if (!reach[node])
            return str("op ", nodeOp(node), " ",
                       milestoneName(nodeMilestone(node)),
                       " unreachable from op 0's dispatch");
    }
    for (u32 i = 0; i < g.num_ops; ++i) {
        const auto [first, last] = opEdges(g, i);
        if (last - first > kMaxEdgesPerOp)
            return str("op ", i, " has ", last - first, " edges");
    }
    if (g.edges.capacity() != size_t{g.num_ops} * kMaxEdgesPerOp)
        return "the edge array regrew past its reservation";
    return "";
}

/** "" when the base model reproduces the run, else the first
 *  mismatch. Leaves @p retimer's node times at the base model's. */
std::string
baseRetimeProblem(Retimer &retimer, const DepGraph &g,
                  const CoreStats &stats)
{
    const RetimeResult base = retimer.retime(WhatIfModel{});
    if (base.cycles != stats.cycles || base.ops != stats.committed)
        return str("retimed ", base.cycles, " cycles / ", base.ops,
                   " ops, simulated ", stats.cycles, " / ",
                   stats.committed);
    const auto &t = retimer.nodeTimes();
    for (u32 i = 0; i < g.num_ops; ++i) {
        for (u32 m = 0; m < kNumMilestones; ++m) {
            const auto ms = static_cast<Milestone>(m);
            if (t[nodeId(i, ms)] != g.obs(ms, i))
                return str("op ", i, " ", milestoneName(ms), ": retimed ",
                           t[nodeId(i, ms)], ", observed ", g.obs(ms, i));
        }
    }
    return "";
}

/** "" when the batched pass equals per-model retiming over
 *  crossCheckModels() within 4096 lane rows, and a second pass on
 *  the same Retimer (its lanes reused) repeats the first, else the
 *  first mismatch. */
std::string
batchedRetimeProblem(Retimer &retimer)
{
    static const std::vector<WhatIfModel> models = crossCheckModels();
    const std::vector<RetimeResult> batched = retimer.retimeAll(models);
    if (retimer.laneRows() == 0 || retimer.laneRows() > 4096)
        return str(retimer.laneRows(), " lane rows");
    const std::vector<RetimeResult> again = retimer.retimeAll(models);
    for (size_t i = 0; i < models.size(); ++i) {
        if (again[i].cycles != batched[i].cycles ||
            again[i].ops != batched[i].ops)
            return str("model ", models[i].name, ": second batched pass ",
                       again[i].cycles, " cycles / ", again[i].ops,
                       " ops, first ", batched[i].cycles, " / ",
                       batched[i].ops);
        const RetimeResult one = retimer.retime(models[i]);
        if (batched[i].cycles != one.cycles || batched[i].ops != one.ops)
            return str("model ", models[i].name, ": batched ",
                       batched[i].cycles, " cycles / ", batched[i].ops,
                       " ops, per-model ", one.cycles, " / ", one.ops);
    }
    return "";
}

/** Every run checkContracts makes under one kernel (Outcome:
 *  RunOutcome for a single core, ProcOutcome for a mix). */
template <class Outcome>
struct KernelRuns
{
    SchedKernel kernel;
    Outcome plain, recorder;
    ProcOutcome solo; ///< the 1-core Processor (single core only)
};

/** Records the first failure, "<contract>/<kernel>: <what>". */
struct Failures
{
    ContractReport &report;

    /** True if @p what is a failure (nonempty); it is recorded. */
    bool operator()(const char *name, const std::string &kernel,
                    const std::string &what) const
    {
        if (!what.empty())
            report.failure = std::string(name) + "/" + kernel + ": " + what;
        return !what.empty();
    }
};

template <class Outcome>
std::string
kname(const KernelRuns<Outcome> &r)
{
    return schedKernelName(r.kernel);
}

/** How a recorded run ended: its event count or its deadlock. */
template <class Outcome>
std::string
ending(const Outcome &o)
{
    return o.deadlock ? str("deadlock at cycle ", o.deadlock_cycle)
                      : str(o.events, " events");
}

/**
 * The contracts a single core and a mix share: no run deadlocked
 * (unless Contracts::deadlock_ok), then kScanEqualsEvent,
 * kRecordsMatch and kRecorderNeutral of @p want. True on the first
 * failure, which @p failed records.
 */
template <class Outcome>
bool
sharedContractFailed(const std::vector<KernelRuns<Outcome>> &runs,
                     u32 want, bool deadlock_ok, const Failures &failed)
{
    if (!deadlock_ok) {
        for (const auto &r : runs) {
            for (const auto &[name, deadlock, cycle] :
                 {std::tuple{"untraced", r.plain.deadlock,
                             r.plain.deadlock_cycle},
                  {"recorder", r.recorder.deadlock,
                   r.recorder.deadlock_cycle},
                  {"processor", r.solo.deadlock, r.solo.deadlock_cycle}}) {
                if (deadlock &&
                    failed("completed", kname(r),
                           str(name, " run deadlocked at cycle ", cycle)))
                    return true;
            }
        }
    }
    const auto &first = runs.front();
    for (size_t k = 1; k < runs.size(); ++k) {
        const std::string pair = kname(first) + "-" + kname(runs[k]);
        const Outcome &a = first.recorder, &b = runs[k].recorder;
        const bool records_differ = ending(a) != ending(b) ||
                                    a.record_digest != b.record_digest;
        if (((want & kScanEqualsEvent) &&
             failed("kernels", pair,
                    diffOutcomes(first.plain, runs[k].plain))) ||
            ((want & kRecordsMatch) && records_differ &&
             failed("records", pair,
                    str(ending(a), " (", hexDigest(a.record_digest),
                        ") vs ", ending(b), " (",
                        hexDigest(b.record_digest), ")"))))
            return true;
    }
    for (const auto &r : runs) {
        std::string neutral = diffOutcomes(r.plain, r.recorder);
        if (neutral.empty() && !r.recorder.deadlock &&
            r.recorder.events == 0)
            neutral = "the recorder recorded no event";
        if ((want & kRecorderNeutral) &&
            failed("recorder-neutral", kname(r), neutral))
            return true;
    }
    return false;
}

} // namespace

ContractReport
checkContracts(const Trace &trace, const CoreConfig &config,
               const Contracts &contracts)
{
    const u32 want = contracts.checks;
    const std::vector<SchedKernel> &kernels = contracts.kernels;
    fatal_if(kernels.empty() ||
                 ((want & (kScanEqualsEvent | kRecordsMatch)) &&
                  kernels.size() < 2),
             "checkContracts: a kernel comparison needs two kernels");
    const bool plain = want & (kScanEqualsEvent | kRecorderNeutral |
                               kProcSolo);
    const bool graph = (want & (kGraph | kBaseRetime | kBatchedRetime)) ||
                       !contracts.digest.empty();
    const bool recorder = graph || (want & (kRecorderNeutral | kRecordsMatch));

    std::vector<KernelRuns<RunOutcome>> runs;
    for (const SchedKernel kernel : kernels) {
        KernelRuns<RunOutcome> &r = runs.emplace_back();
        r.kernel = kernel;
        if (plain)
            r.plain = runOne(trace, config, kernel);
        if (recorder)
            r.recorder = runOne(trace, config, kernel,
                                graph ? Observer::Graph : Observer::Recorder);
        if (want & kProcSolo)
            r.solo = runProcOne({&trace}, soloConfig(config), kernel);
    }

    ContractReport report;
    const Failures failed{report};
    const KernelRuns<RunOutcome> &first = runs.front();
    report.stats = plain ? first.plain.stats : first.recorder.stats;
    if (sharedContractFailed(runs, want, contracts.deadlock_ok, failed))
        return report;
    const auto pair = [&](const KernelRuns<RunOutcome> &r) {
        return kname(first) + "-" + kname(r);
    };

    for (const KernelRuns<RunOutcome> &r : runs) {
        if (!(want & kProcSolo))
            break;
        RunOutcome solo;
        solo.deadlock = r.solo.deadlock;
        solo.deadlock_cycle = r.solo.deadlock_cycle;
        if (!solo.deadlock)
            solo.stats = r.solo.stats.cores.at(0);
        std::string what = diffOutcome(r.plain, solo);
        if (what.empty() && !solo.deadlock) {
            const LlcCoreStats &llc = r.solo.stats.llc.per_core.at(0);
            if (llc.mshr_merges != 0 || llc.bank_wait_cycles != 0 ||
                llc.back_invalidations != 0)
                what = "a single core was charged contention";
        }
        if (failed("proc-solo", kname(r), what))
            return report;
    }
    // The graph contracts, on each completed recorder run.
    if (!graph)
        return report;
    for (const KernelRuns<RunOutcome> &r : runs) {
        if ((want & kGraph) &&
            r.recorder.deadlock != first.recorder.deadlock &&
            failed("graph", pair(r),
                   ending(first.recorder) + " vs " + ending(r.recorder)))
            return report;
        if (r.recorder.deadlock) {
            if (!contracts.digest.empty() &&
                failed("digest", kname(r), ending(r.recorder)))
                return report;
            continue;
        }
        const DepGraph &g = r.recorder.graph;
        const u64 digest = graphDigest(g);
        const std::string hex = hexDigest(digest);
        if (!contracts.digest.empty() && hex != contracts.digest &&
            failed("digest", kname(r),
                   hex + " is not the pinned " + contracts.digest))
            return report;
        if (&r == &first) {
            report.digest = digest;
        } else if (digest != report.digest) {
            if ((want & kGraph) &&
                failed("graph", pair(r),
                       hexDigest(report.digest) + " vs " + hex))
                return report;
        } else if (firstDifference(r.recorder.stats, first.recorder.stats)
                       .empty()) {
            continue; // the same graph and run: the same results
        }
        // Retiming needs a valid graph, whatever was asked.
        if (failed("graph", kname(r),
                   graphProblem(g, r.recorder.stats, trace.size())))
            return report;
        Retimer retimer(g);
        if ((want & kBaseRetime) &&
            failed("base-retime", kname(r),
                   baseRetimeProblem(retimer, g, r.recorder.stats)))
            return report;
        if (want & kBatchedRetime) {
            if (failed("batched-retime", kname(r),
                       batchedRetimeProblem(retimer)))
                return report;
            report.lane_rows = std::max(report.lane_rows, retimer.laneRows());
        }
    }
    return report;
}

ContractReport
checkContracts(const std::vector<const Trace *> &traces,
               const ProcConfig &config, const Contracts &contracts)
{
    const u32 want =
        contracts.checks & (kScanEqualsEvent | kRecorderNeutral |
                            kRecordsMatch);
    const std::vector<SchedKernel> &kernels = contracts.kernels;
    fatal_if(kernels.empty() ||
                 ((want & (kScanEqualsEvent | kRecordsMatch)) &&
                  kernels.size() < 2),
             "checkContracts: a kernel comparison needs two kernels");
    std::vector<KernelRuns<ProcOutcome>> runs;
    for (const SchedKernel kernel : kernels) {
        KernelRuns<ProcOutcome> &r = runs.emplace_back();
        r.kernel = kernel;
        if (want & (kScanEqualsEvent | kRecorderNeutral))
            r.plain = runProcOne(traces, config, kernel);
        if (want & (kRecorderNeutral | kRecordsMatch))
            r.recorder =
                runProcOne(traces, config, kernel, Observer::Recorder);
    }
    ContractReport report;
    sharedContractFailed(runs, want, contracts.deadlock_ok,
                         Failures{report});
    return report;
}

std::string
caseConfigError(const FuzzCase &fc)
{
    return configError(fc.config.num_cores == 1 ? soloConfig(fc.config.core)
                                                : fc.config);
}

std::string
checkCase(const FuzzCase &fc)
{
    const Contracts every{.deadlock_ok = true};
    if (fc.config.num_cores == 1)
        return checkContracts(buildTrace(fc), fc.config.core, every)
            .failure;
    const std::vector<Trace> traces = buildTraces(fc);
    std::vector<const Trace *> mix;
    for (const Trace &t : traces)
        mix.push_back(&t);
    return checkContracts(mix, fc.config, every).failure;
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
    // repro; otherwise shed cores one at a time.
    if (cur.config.num_cores > 1) {
        FuzzCase solo = cur;
        solo.config.num_cores = 1;
        solo.extra_progs.clear();
        if (!checkCase(solo).empty()) {
            cur = std::move(solo);
        } else {
            while (cur.config.num_cores > 2) {
                FuzzCase fewer = cur;
                --fewer.config.num_cores;
                fewer.extra_progs.pop_back();
                if (checkCase(fewer).empty())
                    break;
                cur = std::move(fewer);
            }
        }
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

    // Config normalization: reset each leaf the case reads toward its
    // default (the core template toward the medium core), keeping a
    // reset only if the divergence survives it. The core count was
    // settled above; a single-core case reads only the core template.
    // A reset that leaves the config out of range (a slack threshold
    // beyond the cycle, say) is not a repro.
    auto diverges = [](const FuzzCase &c) {
        return caseConfigError(c).empty() && !checkCase(c).empty();
    };
    ProcConfig def;
    def.core = mediumCore();
    forEachLeaf(def, [&](const std::string &path, const auto &leaf) {
        if (path == "num_cores" ||
            (cur.config.num_cores == 1 && !path.starts_with("core.")))
            return;
        std::string token = path + '=';
        appendLeaf(token, leaf);
        FuzzCase cand = cur;
        if (setLeaf(cand.config, token).empty() && diverges(cand))
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
    if (fc.config.num_cores > 1)
        os << "proc " << fieldsText(fc.config) << '\n';
    else
        os << "config " << fieldsText(fc.config.core) << '\n';
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
        } else if (word == "config" || word == "proc") {
            // A single-core case states its core, a multi-core case
            // its whole ProcConfig (the core template included).
            if (saw_config)
                malformed("a second config or proc line");
            saw_config = true;
            std::string leaves;
            std::getline(ls, leaves);
            const std::string err =
                word == "config" ? parseFieldsText(leaves, fc.config.core)
                                 : parseFieldsText(leaves, fc.config);
            if (!err.empty())
                malformed(word + " line: " + err);
            const std::string range = caseConfigError(fc);
            if (!range.empty())
                malformed(word + " line: " + range);
        } else if (word == "core") {
            unsigned idx = 0;
            if (!(ls >> word) || !parseLeaf(word, idx))
                malformed("core line without an index");
            if (idx != fc.extra_progs.size() + 1 ||
                idx >= fc.config.num_cores)
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
            // key=value, the value whole and in its field's range.
            while (ls >> word) {
                const size_t eq = std::min(word.find('='), word.size());
                const std::string k = word.substr(0, eq);
                const std::string_view v = std::string_view(word).substr(
                    std::min(eq + 1, word.size()));
                if (!(k == "sel"   ? parseLeaf(v, fi.sel)
                      : k == "d"   ? parseLeaf(v, fi.dst)
                      : k == "a"   ? parseLeaf(v, fi.a)
                      : k == "b"   ? parseLeaf(v, fi.b)
                      : k == "imm" && parseLeaf(v, fi.imm)))
                    malformed("bad inst field '" + word + "'");
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
        malformed("missing config or proc line");
    if (fc.prog.empty())
        malformed("empty program");
    if (fc.extra_progs.size() != fc.config.num_cores - 1)
        malformed("expected " + std::to_string(fc.config.num_cores - 1) +
                  " extra core programs, got " +
                  std::to_string(fc.extra_progs.size()));
    for (const std::vector<FuzzInst> &prog : fc.extra_progs)
        if (prog.empty())
            malformed("empty core program");
    return fc;
}

} // namespace redsoc::fuzz
