/**
 * @file
 * Critical-path what-if engine suite (DESIGN.md section 13). The
 * contract checker (checkContracts, tools/fuzz) checks the graph
 * contracts (kGraph, kBaseRetime, kBatchedRetime) and the kernels'
 * equal records on a 10-seed randomized property suite, and the graph
 * contracts on the acceptance grid of real workloads, each grid graph
 * pinned to its digest. This suite adds the two attach forms' equal
 * graphs, a golden graph snapshot byte-identical under both kernels,
 * what-if model ordering, and far-reaching lane rows.
 */

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "critpath/dep_graph_builder.h"
#include "critpath/retimer.h"
#include "fuzz_lib.h"
#include "helpers.h"
#include "sched_grid.h"
#include "trace/pipe_tracer.h"

namespace redsoc {
namespace {

using fuzz::checkContracts;
using fuzz::Observer;
using fuzz::RunOutcome;
using fuzz::runOne;
using test::differentialConfigs;
using test::makeTrace;
using test::randomTrace;

// ---------------------------------------------------------------------
// The two attach forms
// ---------------------------------------------------------------------

TEST(CritpathSink, TracerAttachEqualsSetRecorder)
{
    const Trace trace = randomTrace(1, 600);
    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;

    // A builder carried by a PipeTracer (whose argument sizes
    // nothing) and one attached directly record the same run.
    std::string rendered[2];
    u64 digests[2];
    for (int i = 0; i < 2; ++i) {
        DepGraphBuilder builder(trace, cfg);
        PipeTracer tracer(1);
        tracer.setSink(&builder);
        OooCore core(cfg);
        if (i == 0)
            core.setTracer(&tracer);
        else
            core.setRecorder(&builder);
        (void)core.run(trace);
        EXPECT_GT(builder.eventsSeen(), trace.size());
        digests[i] = builder.digest();
        rendered[i] = renderDepGraph(builder.finalize());
    }
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(rendered[0], rendered[1]);
}

// ---------------------------------------------------------------------
// 1. Randomized property suite
// ---------------------------------------------------------------------

class CritpathProperty : public ::testing::TestWithParam<u64>
{
};

TEST_P(CritpathProperty, GraphContractsHold)
{
    // Every config of the grid, so fusion, replays and EGPW arms and
    // wastes all show up in the graphs and in the records.
    const Trace trace = randomTrace(GetParam(), 600);
    for (const std::string core : {"big", "small"}) {
        for (const auto &[tag, cfg] : differentialConfigs(core)) {
            EXPECT_EQ(checkContracts(trace, cfg,
                                     {.checks = fuzz::kRecordsMatch |
                                                fuzz::kGraph |
                                                fuzz::kBaseRetime |
                                                fuzz::kBatchedRetime})
                          .failure,
                      "")
                << core << "/" << tag;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CritpathProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u, 0xdeadbeefu,
                                           0xfeedfaceu));

// ---------------------------------------------------------------------
// Golden graph snapshot
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
        const RunOutcome r = runOne(trace, cfg, kernel, Observer::Graph);
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
// 2. Acceptance grid: the graph contracts on real workloads
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

/** One "workload core tag digest" line per grid point (regenerate
 *  with REDSOC_UPDATE_GOLDEN=1 by running the whole test_critpath
 *  binary: each grid case rewrites its own lines in the shared file). */
const std::string kGridDigests =
    std::string(REDSOC_TEST_GOLDEN) + "/critpath_grid_digests.txt";

/**
 * Check kGraph, kBaseRetime and @p extra on @p workload at the @p core
 * grid points whose tag @p keep accepts, under both kernels, with each
 * point's graph pinned to its digest line. The three grid cases share
 * the grid out between them, so a run of the whole binary records
 * each point once.
 */
template <class Keep>
void
checkGrid(const Trace &trace, const std::string &workload,
          const std::string &core, Keep keep, u32 extra = 0)
{
    const char *update = std::getenv("REDSOC_UPDATE_GOLDEN");
    const bool updating = update != nullptr && *update != '\0';
    std::map<std::string, std::string> digests;
    {
        std::ifstream ifs(kGridDigests);
        std::string w, c, tag, digest;
        while (ifs >> w >> c >> tag >> digest)
            digests[w + " " + c + " " + tag] = digest;
    }
    for (const auto &[tag, cfg] : differentialConfigs(core)) {
        if (!keep(tag))
            continue;
        const std::string key = workload + " " + core + " " + tag;
        const auto pinned = digests.find(key);
        const fuzz::ContractReport r = checkContracts(
            trace, cfg,
            {.checks = fuzz::kGraph | fuzz::kBaseRetime | extra,
             .digest = updating               ? ""
                       : pinned != digests.end() ? pinned->second
                                                 : "(none)"});
        EXPECT_EQ(r.failure, "")
            << key << " (digests: " << kGridDigests
            << "; REDSOC_UPDATE_GOLDEN=1 if the graph change is intended)";
        if (updating)
            digests[key] = fuzz::hexDigest(r.digest);
    }
    if (updating) {
        std::ofstream ofs(kGridDigests, std::ios::binary);
        ASSERT_TRUE(ofs) << "cannot write " << kGridDigests;
        for (const auto &[key, digest] : digests)
            ofs << key << " " << digest << "\n";
    }
}

// The three cases keep their historical names, but each checks every
// graph contract on its share of the grid; the trace below names the
// share, so a failure says which points and contracts it covers.

/** The big core's grid, but for the redsoc point (see below). */
TEST_P(CritpathGrid, BaseRetimeBitIdenticalToSimulator)
{
    SCOPED_TRACE("grid share: big core minus redsoc; graph, base "
                 "retime and digest under both kernels");
    checkGrid(sharedDriver().trace(GetParam()), GetParam(), "big",
              [](const std::string &tag) { return tag != "redsoc"; });
}

/** The small core's grid. */
TEST_P(CritpathGrid, EdgesWithinPerOpBound)
{
    SCOPED_TRACE("grid share: every small-core point; graph, base "
                 "retime and digest under both kernels");
    checkGrid(sharedDriver().trace(GetParam()), GetParam(), "small",
              [](const std::string &) { return true; });
}

/** The big core's redsoc point, where the batched pass must also
 *  equal per-model re-timing within a small, run-length-independent
 *  number of lane rows. */
TEST_P(CritpathGrid, BatchedRetimeLaneRowsBounded)
{
    SCOPED_TRACE("grid share: the big core's redsoc point; graph, base "
                 "and batched retime and digest under both kernels");
    checkGrid(sharedDriver().trace(GetParam()), GetParam(), "big",
              [](const std::string &tag) { return tag == "redsoc"; },
              fuzz::kBatchedRetime);
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
    const RunOutcome r =
        runOne(trace, cfg, SchedKernel::Event, Observer::Graph);
    ASSERT_FALSE(r.deadlock);
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
 *  gather) must survive until then, and the live set, not the run
 *  length, sizes the lane array. */
TEST(CritpathLongLived, BatchedRetimeKeepsFarSources)
{
    const Trace trace = longLivedTrace();
    for (const std::string core : {"big", "small"}) {
        CoreConfig cfg = coreByName(core);
        cfg.mode = SchedMode::ReDSOC;
        const fuzz::ContractReport r = checkContracts(
            trace, cfg,
            {.checks = fuzz::kBatchedRetime, .kernels = {SchedKernel::Event}});
        EXPECT_EQ(r.failure, "") << core;
        EXPECT_LT(r.lane_rows, trace.size() / 4) << core;
    }
}

} // namespace
} // namespace redsoc
