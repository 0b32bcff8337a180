/**
 * @file
 * Trace-neutrality differential suite: attaching an observer must not
 * change simulated behaviour in any observable way. A ring-attached
 * PipeTracer or a graph recorder run's CoreStats — every counter plus
 * the per-op commit-schedule checksum — must be byte-identical to the
 * untraced run's, and the Scan and Event kernels must record
 * identical event streams (the golden-snapshot test in test_trace.cc
 * pins the rendered form; this one covers real workloads at full
 * length). Each point goes through the contract checker
 * (checkContracts, tools/fuzz).
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz_lib.h"
#include "helpers.h"
#include "sched_grid.h"
#include "trace/pipe_tracer.h"

namespace redsoc {
namespace {

using fuzz::checkContracts;
using test::makeTrace;

// ---------------------------------------------------------------------
// Real workloads x both kernels: tracing is behavior-neutral, and the
// recorded stream is kernel-agnostic.
// ---------------------------------------------------------------------

class TraceNeutrality : public ::testing::TestWithParam<std::string>
{
  protected:
    static SimDriver &sharedDriver()
    {
        static SimDriver driver;
        return driver;
    }
};

TEST_P(TraceNeutrality, TracedRunIsBitIdentical)
{
    const std::string workload = GetParam();
    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;
    EXPECT_EQ(checkContracts(sharedDriver().trace(workload), cfg,
                             {.checks = fuzz::kRingNeutral |
                                        fuzz::kRingStreams})
                  .failure,
              "")
        << workload;
}

TEST_P(TraceNeutrality, BaselineAndMosNeutralToo)
{
    // The non-ReDSOC modes take different emission paths (no
    // transparent/EGPW events, MOS fusion events): each must be
    // equally neutral.
    const std::string workload = GetParam();
    for (const SchedMode mode : {SchedMode::Baseline, SchedMode::MOS}) {
        CoreConfig cfg = coreByName("big");
        cfg.mode = mode;
        EXPECT_EQ(checkContracts(sharedDriver().trace(workload), cfg,
                                 {.checks = fuzz::kRingNeutral,
                                  .kernels = {SchedKernel::Event}})
                      .failure,
                  "")
            << workload << "/" << schedModeName(mode);
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, TraceNeutrality,
                         ::testing::Values("crc", "gsm", "act", "bzip2",
                                           "conv", "xalanc"),
                         [](const auto &pinfo) { return pinfo.param; });

// ---------------------------------------------------------------------
// A graph recorder is just as neutral: the core reports to it through
// its own hooks, which must not perturb the schedule either, and the
// graph it records covers every op.
// ---------------------------------------------------------------------

TEST(TraceNeutralityUnit, GraphRecorderRunIsBitIdentical)
{
    for (const u64 seed : {1u, 2u, 3u}) {
        const Trace trace = test::randomTrace(seed, 1200);
        for (const std::string core : {"big", "small"}) {
            for (const auto &[tag, cfg] :
                 test::differentialConfigs(core)) {
                EXPECT_EQ(checkContracts(trace, cfg,
                                         {.checks = fuzz::kRecorderNeutral |
                                                    fuzz::kGraph})
                              .failure,
                          "")
                    << "seed " << seed << "/" << core << "/" << tag;
            }
        }
    }
}

// ---------------------------------------------------------------------
// A disabled tracer records nothing; a detached core stays silent.
// ---------------------------------------------------------------------

TEST(TraceNeutralityUnit, DisabledTracerRecordsNothing)
{
    ProgramBuilder b("trace_equiv");
    test::emitAddChain(b, 32);
    b.halt();
    const Trace trace = makeTrace(b);

    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;

    PipeTracer tracer;
    tracer.setEnabled(false);
    OooCore core(cfg);
    core.setTracer(&tracer);
    (void)core.run(trace);
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.droppedEvents(), 0u);

    // Re-enabling records on the next run without a fresh attach.
    tracer.setEnabled(true);
    (void)core.run(trace);
    EXPECT_GT(tracer.size(), 0u);
}

TEST(TraceNeutralityUnit, RingWrapKeepsTailAndCountsDropped)
{
    ProgramBuilder b("trace_equiv");
    test::emitLogicChain(b, 64);
    b.halt();
    const Trace trace = makeTrace(b);

    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;

    PipeTracer full;
    OooCore core(cfg);
    core.setTracer(&full);
    (void)core.run(trace);
    ASSERT_GT(full.size(), 32u);

    PipeTracer small(32);
    core.setTracer(&small);
    (void)core.run(trace);
    EXPECT_EQ(small.size(), 32u);
    EXPECT_EQ(small.droppedEvents(), full.size() - 32);

    // The retained window is exactly the tail of the full stream.
    const std::vector<PipeEvent> all = full.events();
    const std::vector<PipeEvent> tail = small.events();
    for (size_t i = 0; i < tail.size(); ++i) {
        const PipeEvent &want = all[all.size() - tail.size() + i];
        EXPECT_EQ(tail[i].seq, want.seq);
        EXPECT_EQ(tail[i].tick, want.tick);
        EXPECT_EQ(static_cast<int>(tail[i].kind),
                  static_cast<int>(want.kind));
    }
}

} // namespace
} // namespace redsoc
