/**
 * @file
 * Critical-path what-if engine suite (DESIGN.md section 13).
 *
 * Four layers of evidence:
 *  1. streaming-sink completeness: the dependence graph is identical
 *     whether the tracer ring wraps or not (the sink sees everything),
 *  2. a 10-seed randomized property suite: structural validity,
 *     constructive acyclicity, full reachability from the first
 *     dispatch, and base-model exactness node by node,
 *  3. a golden graph snapshot, byte-identical under both scheduler
 *     kernels,
 *  4. the acceptance grid: base-model re-timing reproduces the
 *     simulator's committed cycle count bit-exactly on every
 *     workload x config x kernel point of the shared scheduler grid.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "critpath/dep_graph_builder.h"
#include "critpath/retimer.h"
#include "helpers.h"
#include "sched_grid.h"
#include "trace/pipe_tracer.h"

namespace redsoc {
namespace {

using test::differentialConfigs;
using test::makeTrace;
using test::randomTrace;

struct TracedRun
{
    DepGraph graph;
    CoreStats stats;
    u64 events_seen = 0;
    u64 ring_dropped = 0;
};

/** Run @p trace on a cold core with a graph-building sink attached.
 *  @p ring_cap deliberately defaults small: the graph must not depend
 *  on the ring retaining anything. */
TracedRun
tracedRun(const Trace &trace, CoreConfig cfg,
          size_t ring_cap = size_t{1} << 12)
{
    PipeTracer tracer(ring_cap);
    DepGraphBuilder builder(trace, cfg);
    tracer.setSink(&builder);
    OooCore core(cfg);
    core.setTracer(&tracer);
    TracedRun r;
    r.stats = core.run(trace);
    r.events_seen = builder.eventsSeen();
    r.ring_dropped = tracer.droppedEvents();
    r.graph = builder.finalize();
    return r;
}

/** Every milestone node must be reachable from op 0's dispatch by
 *  following stored edges forward (the graph has no orphaned work). */
void
expectAllReachable(const DepGraph &g)
{
    ASSERT_GT(g.num_ops, 0u);
    std::vector<char> reach(size_t{g.num_ops} * kNumMilestones, 0);
    reach[nodeId(0, Milestone::D)] = 1;
    u64 unreachable = 0;
    for (const u32 node : g.topo) {
        if (reach[node])
            continue;
        const u32 i = nodeOp(node);
        const Milestone ms = nodeMilestone(node);
        bool ok = false;
        for (u32 e = g.edge_begin[i]; e < g.edge_begin[i + 1]; ++e) {
            const Edge &edge = g.edges[e];
            if (edgeDstMilestone(edge.kind) != ms)
                continue;
            ok = ok ||
                 reach[nodeId(edge.src, edgeSrcMilestone(edge.kind))];
        }
        reach[node] = ok ? 1 : 0;
        unreachable += ok ? 0 : 1;
    }
    EXPECT_EQ(unreachable, 0u)
        << "milestone nodes unreachable from op 0's dispatch";
}

/** Base-model exactness, the strong form: not just the final cycle
 *  count, every node's re-timed tick equals the observed tick. */
void
expectBaseExact(const DepGraph &g, const CoreStats &stats,
                const std::string &what)
{
    SCOPED_TRACE(what);
    Retimer retimer(g);
    const RetimeResult base = retimer.retime(WhatIfModel{});
    EXPECT_EQ(base.cycles, stats.cycles);
    EXPECT_EQ(base.ops, stats.committed);
    const auto &t = retimer.nodeTimes();
    u64 mismatches = 0;
    for (u32 i = 0; i < g.num_ops && mismatches < 8; ++i) {
        for (u32 m = 0; m < kNumMilestones; ++m) {
            const auto ms = static_cast<Milestone>(m);
            if (t[nodeId(i, ms)] != g.obs(ms, i)) {
                ++mismatches;
                ADD_FAILURE()
                    << "op " << i << " " << milestoneName(ms)
                    << ": retimed " << t[nodeId(i, ms)]
                    << " != observed " << g.obs(ms, i);
            }
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

/** The builder reserves kMaxEdgesPerOp edges per op when a run
 *  begins: no op may need more, so the edge array never regrows. */
void
expectEdgesWithinReservation(const DepGraph &g)
{
    u32 widest = 0;
    for (u32 i = 0; i < g.num_ops; ++i)
        widest = std::max(widest, g.edge_begin[i + 1] - g.edge_begin[i]);
    EXPECT_LE(widest, kMaxEdgesPerOp);
    EXPECT_EQ(g.edges.capacity(), size_t{g.num_ops} * kMaxEdgesPerOp)
        << "the edge array regrew past its onBeginRun reservation";
}

// ---------------------------------------------------------------------
// 1. Streaming-sink completeness
// ---------------------------------------------------------------------

TEST(CritpathSink, GraphUnaffectedByRingWrap)
{
    const Trace trace = randomTrace(1, 600);
    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;

    // A 256-entry ring wraps hundreds of times over ~600 ops...
    const TracedRun tiny = tracedRun(trace, cfg, 256);
    EXPECT_GT(tiny.ring_dropped, 0u) << "ring never wrapped: the "
                                        "completeness claim is untested";
    // ...while a generous ring never wraps.
    const TracedRun big = tracedRun(trace, cfg, size_t{1} << 20);
    EXPECT_EQ(big.ring_dropped, 0u);

    // The sink saw the identical, complete stream in both runs.
    EXPECT_EQ(tiny.events_seen, big.events_seen);
    EXPECT_EQ(tiny.events_seen, tiny.ring_dropped + 256);
    EXPECT_EQ(renderDepGraph(tiny.graph), renderDepGraph(big.graph));
}

// ---------------------------------------------------------------------
// 2. Randomized property suite
// ---------------------------------------------------------------------

class CritpathProperty : public ::testing::TestWithParam<u64>
{
};

TEST_P(CritpathProperty, ValidAcyclicReachableAndExact)
{
    const Trace trace = randomTrace(GetParam(), 600);
    for (const std::string core : {"big", "small"}) {
        for (const auto &[tag, cfg] : differentialConfigs(core)) {
            SCOPED_TRACE(core + "/" + tag);
            const TracedRun r = tracedRun(trace, cfg);
            ASSERT_EQ(r.stats.committed, trace.size());
            ASSERT_EQ(r.graph.num_ops, trace.size());
            // validate() covers CSR shape, stored-edge tick
            // monotonicity and the topo-order acyclicity proof.
            EXPECT_EQ(r.graph.validate(), std::string());
            expectAllReachable(r.graph);
            expectBaseExact(r.graph, r.stats, "base");
        }
    }
}

TEST_P(CritpathProperty, KernelsBuildIdenticalGraphs)
{
    const Trace trace = randomTrace(GetParam(), 600);
    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;
    std::string rendered[2];
    int i = 0;
    for (const SchedKernel kernel :
         {SchedKernel::Scan, SchedKernel::Event}) {
        cfg.sched_kernel = kernel;
        rendered[i++] = renderDepGraph(tracedRun(trace, cfg).graph);
    }
    EXPECT_EQ(rendered[0], rendered[1]);
}

TEST_P(CritpathProperty, EdgesWithinPerOpBound)
{
    const Trace trace = randomTrace(GetParam(), 600);
    for (const std::string core : {"big", "small"}) {
        for (const auto &[tag, cfg] : differentialConfigs(core)) {
            SCOPED_TRACE(core + "/" + tag);
            expectEdgesWithinReservation(tracedRun(trace, cfg).graph);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CritpathProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u, 0xdeadbeefu,
                                           0xfeedfaceu));

// ---------------------------------------------------------------------
// 3. Golden graph snapshot
// ---------------------------------------------------------------------

/** Small fixed workload covering the interesting edge kinds: a logic
 *  chain (transparent passes + EGPW), an add chain, aliasing memory
 *  traffic and a conditional branch. */
Trace
goldenTrace()
{
    ProgramBuilder b("critpath_golden");
    test::emitLogicChain(b, 12);
    test::emitAddChain(b, 6, x(2));
    b.movImm(x(11), 0x1000);
    b.store(Opcode::STR, x(1), x(11), 0);
    b.load(Opcode::LDR, x(3), x(11), 0);
    b.alu(Opcode::ADD, x(2), x(2), x(3));
    ProgramBuilder::Label skip = b.newLabel();
    b.branch(Opcode::BNEZ, x(2), skip);
    b.alui(Opcode::ADD, x(1), x(1), 1);
    b.bind(skip);
    b.alu(Opcode::EOR, x(1), x(1), x(2));
    b.halt();
    return makeTrace(b);
}

TEST(CritpathGolden, SnapshotMatchesBothKernels)
{
    const Trace trace = goldenTrace();
    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;

    std::string rendered[2];
    int i = 0;
    for (const SchedKernel kernel :
         {SchedKernel::Scan, SchedKernel::Event}) {
        cfg.sched_kernel = kernel;
        const TracedRun r = tracedRun(trace, cfg);
        // The golden workload must exercise the recycle machinery.
        EXPECT_GT(r.stats.recycled_ops, 0u);
        rendered[i++] = renderDepGraph(r.graph);
    }
    EXPECT_EQ(rendered[0], rendered[1])
        << "Scan and Event kernels built different graphs";

    const std::string golden_path =
        std::string(REDSOC_TEST_GOLDEN) + "/critpath_small.txt";
    const char *update = std::getenv("REDSOC_UPDATE_GOLDEN");
    if (update != nullptr && *update != '\0') {
        std::ofstream ofs(golden_path, std::ios::binary);
        ASSERT_TRUE(ofs) << "cannot write " << golden_path;
        ofs << rendered[0];
        GTEST_SKIP() << "golden updated: " << golden_path;
    }
    std::ifstream ifs(golden_path, std::ios::binary);
    ASSERT_TRUE(ifs) << "missing golden file " << golden_path
                     << " (regenerate with REDSOC_UPDATE_GOLDEN=1)";
    std::ostringstream want;
    want << ifs.rdbuf();
    EXPECT_EQ(rendered[0], want.str())
        << "dependence-graph drift: the committed golden snapshot no "
           "longer matches (REDSOC_UPDATE_GOLDEN=1 if intentional)";
}

// ---------------------------------------------------------------------
// 4. Acceptance grid: base-model exactness on real workloads
// ---------------------------------------------------------------------

class CritpathGrid : public ::testing::TestWithParam<std::string>
{
  protected:
    static SimDriver &sharedDriver()
    {
        static SimDriver driver;
        return driver;
    }
};

TEST_P(CritpathGrid, BaseRetimeBitIdenticalToSimulator)
{
    const std::string workload = GetParam();
    const Trace &trace = sharedDriver().trace(workload);
    for (const std::string core : {"big", "small"}) {
        for (const auto &[tag, cfg] : differentialConfigs(core)) {
            for (const SchedKernel kernel :
                 {SchedKernel::Scan, SchedKernel::Event}) {
                CoreConfig point = cfg;
                point.sched_kernel = kernel;
                SCOPED_TRACE(
                    workload + "/" + core + "/" + tag +
                    (kernel == SchedKernel::Scan ? "/scan" : "/event"));
                const TracedRun r = tracedRun(trace, point);
                Retimer retimer(r.graph);
                const RetimeResult base = retimer.retime(WhatIfModel{});
                EXPECT_EQ(base.cycles, r.stats.cycles);
            }
        }
    }
}

TEST_P(CritpathGrid, EdgesWithinPerOpBound)
{
    const Trace &trace = sharedDriver().trace(GetParam());
    for (const std::string core : {"big", "small"}) {
        for (const auto &[tag, cfg] : differentialConfigs(core)) {
            SCOPED_TRACE(GetParam() + "/" + core + "/" + tag);
            expectEdgesWithinReservation(tracedRun(trace, cfg).graph);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, CritpathGrid,
                         ::testing::Values("crc", "gsm", "act", "bzip2",
                                           "conv", "xalanc"),
                         [](const auto &pinfo) { return pinfo.param; });

// ---------------------------------------------------------------------
// What-if model sanity (ordering relations, not exact values)
// ---------------------------------------------------------------------

TEST(CritpathWhatIf, ModelOrderingSane)
{
    const Trace trace = randomTrace(7, 800);
    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;
    const TracedRun r = tracedRun(trace, cfg);
    Retimer retimer(r.graph);

    WhatIfModel base;
    const Cycle base_cycles = retimer.retime(base).cycles;
    EXPECT_EQ(base_cycles, r.stats.cycles);

    WhatIfModel ideal;
    ideal.name = "zero_latency_recycle";
    ideal.exact_replay = false;
    ideal.zero_latency_recycle = true;
    const Cycle ideal_cycles = retimer.retime(ideal).cycles;

    WhatIfModel none;
    none.name = "no_recycle";
    none.exact_replay = false;
    none.no_recycle = true;
    const Cycle none_cycles = retimer.retime(none).cycles;

    // Ideal recycling can only help; no recycling can only hurt.
    EXPECT_LE(ideal_cycles, none_cycles);

    // Coarser CI precision is monotonically worse (or equal).
    Cycle prev = 0;
    for (const unsigned bits : {4u, 3u, 2u, 1u}) {
        WhatIfModel m;
        m.name = "ci" + std::to_string(bits);
        m.exact_replay = false;
        m.ci_bits = bits;
        const Cycle c = retimer.retime(m).cycles;
        EXPECT_GE(c, prev) << "ci_bits=" << bits;
        prev = c;
    }

    // Fewer FUs can only lengthen the schedule relative to more.
    Cycle more_units = 0, fewer_units = 0;
    {
        WhatIfModel m;
        m.exact_replay = false;
        m.fu_scale = 2.0;
        more_units = retimer.retime(m).cycles;
        m.fu_scale = 0.5;
        fewer_units = retimer.retime(m).cycles;
    }
    EXPECT_LE(more_units, fewer_units);

    // The critical-path walk terminates and reports a real path.
    const RetimeResult res = retimer.retime(base);
    EXPECT_GT(res.path_len, 0u);
    u64 total = 0;
    for (const u64 n : res.path_kinds)
        total += n;
    EXPECT_EQ(total, res.path_len);
}

/** Every what-if knob combination the batched pass special-cases:
 *  CI precision ladder x EGPW honoring x FU scaling, plus the two
 *  bound models. Mirrors (and exceeds) the bench sweep's coverage. */
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

/** The batched sweep must be a pure optimization: retimeAll() and a
 *  loop of retime() calls are two independent implementations (the
 *  batched pass runs on a pruned, class-folded plan; retime() walks
 *  the raw edge array), so agreement here proves the plan's
 *  model-independent prunes are sound on real dependence graphs. */
TEST_P(CritpathProperty, BatchedRetimeMatchesPerModel)
{
    const Trace trace = randomTrace(GetParam(), 600);
    const std::vector<WhatIfModel> models = crossCheckModels();
    for (const std::string core : {"big", "small"}) {
        for (const auto &[tag, cfg] : differentialConfigs(core)) {
            SCOPED_TRACE(core + "/" + tag);
            const TracedRun r = tracedRun(trace, cfg);
            Retimer retimer(r.graph);
            const std::vector<RetimeResult> batched =
                retimer.retimeAll(models);
            ASSERT_EQ(batched.size(), models.size());
            for (size_t i = 0; i < models.size(); ++i) {
                const RetimeResult one = retimer.retime(models[i]);
                EXPECT_EQ(batched[i].cycles, one.cycles)
                    << "model " << models[i].name;
                EXPECT_EQ(batched[i].ops, one.ops);
            }
        }
    }
}

/** A register written by op 0 and read by the last op, and an FP pool
 *  used only at both ends of a long integer chain: at fu_scale 16 the
 *  late FP ops' structural gathers reach back to the early ones. */
Trace
longLivedTrace()
{
    ProgramBuilder b("critpath_long_lived");
    b.movImm(x(9), 7);
    b.fmovImm(x(2), 1.5);
    for (unsigned i = 0; i < 64; ++i)
        b.fop(Opcode::FADD, x(3), x(2), x(2));
    test::emitAddChain(b, 3000);
    for (unsigned i = 0; i < 16; ++i)
        b.fop(Opcode::FADD, x(3), x(2), x(2));
    b.alu(Opcode::ADD, x(1), x(1), x(9));
    b.halt();
    return makeTrace(b);
}

/** The batched pass keeps a lane row only while a later node reads
 *  it. A row read thousands of nodes later (by a data edge or an FU
 *  gather) must survive until then. */
TEST(CritpathLongLived, BatchedRetimeKeepsFarSources)
{
    const Trace trace = longLivedTrace();
    const std::vector<WhatIfModel> models = crossCheckModels();
    for (const std::string core : {"big", "small"}) {
        SCOPED_TRACE(core);
        CoreConfig cfg = coreByName(core);
        cfg.mode = SchedMode::ReDSOC;
        const TracedRun r = tracedRun(trace, cfg);
        ASSERT_EQ(r.stats.committed, trace.size());
        Retimer retimer(r.graph);
        const std::vector<RetimeResult> batched =
            retimer.retimeAll(models);
        ASSERT_EQ(batched.size(), models.size());
        for (size_t i = 0; i < models.size(); ++i)
            EXPECT_EQ(batched[i].cycles, retimer.retime(models[i]).cycles)
                << "model " << models[i].name;
        // The live set, not the run length, sizes the lane array.
        EXPECT_LT(retimer.laneRows(), r.graph.num_ops / 4);
    }
}

/** On every grid workload the batched pass stays within a small,
 *  run-length-independent number of lane rows. */
TEST_P(CritpathGrid, BatchedRetimeLaneRowsBounded)
{
    const Trace &trace = sharedDriver().trace(GetParam());
    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;
    const TracedRun r = tracedRun(trace, cfg);
    Retimer retimer(r.graph);
    retimer.retimeAll(crossCheckModels());
    EXPECT_GT(retimer.laneRows(), 0u);
    EXPECT_LE(retimer.laneRows(), 4096u);
}

} // namespace
} // namespace redsoc
