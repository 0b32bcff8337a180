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

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "critpath/dep_graph_builder.h"
#include "critpath/retimer.h"
#include "common/rng.h"
#include "fuzz_lib.h"
#include "helpers.h"
#include "sched_grid.h"
#include "trace/pipe_tracer.h"
#include "workloads/registry.h"

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

/** FU scales whose unit counts would not fit u32 price like a count
 *  past every pool's grant count (such a count never gates), and a
 *  scale that is not finite and positive is rejected. */
TEST(CritpathWhatIf, FuScaleClampedOrRejected)
{
    const Trace trace = randomTrace(3, 800);
    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;
    const RunOutcome r =
        runOne(trace, cfg, SchedKernel::Event, Observer::Graph);
    ASSERT_FALSE(r.deadlock);
    Retimer retimer(r.graph);

    WhatIfModel m;
    m.exact_replay = false;
    m.fu_scale = 1e4; // 10k+ units: past every pool of an 800-op run
    const Cycle unbounded = retimer.retime(m).cycles;
    for (const double scale : {4294967296.0, 1e12, 1e300}) {
        m.fu_scale = scale;
        EXPECT_EQ(retimer.retime(m).cycles, unbounded) << scale;
        EXPECT_EQ(retimer.retimeAll({m}).at(0).cycles, unbounded) << scale;
    }
    for (const double scale :
         {std::nan(""), std::numeric_limits<double>::infinity(), 0.0,
          -1.0}) {
        m.fu_scale = scale;
        EXPECT_THROW(retimer.retime(m), std::logic_error) << scale;
        EXPECT_THROW(retimer.retimeAll({m}), std::logic_error) << scale;
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

// ---------------------------------------------------------------------
// Batched retime over random model sets
// ---------------------------------------------------------------------

/** The 64-model what-if ladder (CI 1-4 x EGPW x FU 0.25-16, and both
 *  recycle bounds at FU 0.5-4), then the same model kinds at FU
 *  scales 0.1 (one unit everywhere, as 0.25 gives on every preset:
 *  the two share an effective-unit group), 3, 40 and 1000 (at 1000
 *  the units reach past the end of every pool's grant order). */
std::vector<WhatIfModel>
modelPool()
{
    std::vector<WhatIfModel> pool;
    const auto add = [&pool](const std::string &kind, double fu) {
        WhatIfModel m;
        m.name = kind + "_fu" + std::to_string(fu);
        m.exact_replay = false;
        m.fu_scale = fu;
        m.zero_latency_recycle = kind == "ideal";
        m.no_recycle = kind == "none";
        if (kind.starts_with("ci")) {
            m.ci_bits = static_cast<unsigned>(kind[2] - '0');
            m.egpw = !kind.ends_with("_noegpw");
        }
        pool.push_back(m);
    };
    std::vector<std::string> ci_kinds;
    for (const char bits : {'1', '2', '3', '4'})
        for (const std::string egpw : {"", "_noegpw"})
            ci_kinds.push_back(std::string("ci") + bits + egpw);
    for (const std::string &kind : ci_kinds)
        for (const double fu : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0})
            add(kind, fu);
    for (const std::string kind : {"ideal", "none"})
        for (const double fu : {0.5, 1.0, 2.0, 4.0})
            add(kind, fu);
    for (const double fu : {0.1, 3.0, 40.0, 1000.0})
        for (const std::string kind : {"ci1", "ci3_noegpw", "ideal", "none"})
            add(kind, fu);
    return pool;
}

/** Random subsets of the pool (1-64 models, random order) re-timed in
 *  one batched pass each equal per-model retime(), on real workloads
 *  under every core preset. The sets run back to back on one Retimer
 *  at different lane counts, and the first set, run again after the
 *  others, repeats: the lane rows grown for one pass serve the next. */
TEST(CritpathBatched, RandomModelSetsMatchPerModel)
{
    const std::vector<WhatIfModel> pool = modelPool();
    Rng rng(0xba7c4edull);
    for (const std::string workload : {"act", "conv"}) {
        const Trace trace = traceWorkload(workload);
        for (const std::string core : {"big", "medium", "small"}) {
            const RunOutcome run =
                runOne(trace, configFor(core, SchedMode::ReDSOC),
                       SchedKernel::Event, Observer::Graph);
            ASSERT_FALSE(run.deadlock) << workload << "/" << core;
            Retimer retimer(run.graph);
            std::map<size_t, Cycle> per_model;
            const auto oracle = [&](size_t idx) {
                auto it = per_model.find(idx);
                if (it == per_model.end())
                    it = per_model
                             .emplace(idx, retimer.retime(pool[idx]).cycles)
                             .first;
                return it->second;
            };
            std::vector<WhatIfModel> first;
            std::vector<RetimeResult> first_results;
            // Wide, narrow, then anything: the lane count changes.
            for (const u64 max_size : {64, 16, 64, 64}) {
                std::vector<size_t> idx(pool.size());
                std::iota(idx.begin(), idx.end(), size_t{0});
                for (size_t j = idx.size() - 1; j > 0; --j)
                    std::swap(idx[j], idx[rng.below(j + 1)]);
                idx.resize(rng.range(max_size == 64 && first.empty() ? 33 : 1,
                                     max_size));
                std::vector<WhatIfModel> models;
                for (const size_t k : idx)
                    models.push_back(pool[k]);
                const std::vector<RetimeResult> got =
                    retimer.retimeAll(models);
                ASSERT_EQ(got.size(), models.size());
                for (size_t j = 0; j < idx.size(); ++j)
                    EXPECT_EQ(got[j].cycles, oracle(idx[j]))
                        << workload << "/" << core << " "
                        << models[j].name << " in a set of "
                        << models.size();
                if (first.empty()) {
                    first = models;
                    first_results = got;
                }
            }
            const std::vector<RetimeResult> again = retimer.retimeAll(first);
            for (size_t j = 0; j < first.size(); ++j)
                EXPECT_EQ(again[j].cycles, first_results[j].cycles)
                    << workload << "/" << core << " " << first[j].name;
        }
    }
}

} // namespace
} // namespace redsoc
