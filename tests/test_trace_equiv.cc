/**
 * @file
 * Trace-neutrality differential suite: attaching a PipeTracer must
 * not change simulated behaviour in any observable way. For every
 * real workload x scheduler kernel, a traced run's CoreStats — every
 * counter plus the per-op commit-schedule checksum — must be
 * byte-identical to the untraced run's.
 *
 * The same harness also proves the trace itself is kernel-agnostic:
 * the Scan and Event kernels must record identical event streams
 * (the golden-snapshot test in test_trace.cc pins the rendered form;
 * this one covers real workloads at full length).
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "critpath/dep_graph_builder.h"
#include "helpers.h"
#include "sched_grid.h"
#include "sim/run_cache.h"
#include "trace/pipe_tracer.h"

namespace redsoc {
namespace {

using test::makeTrace;

CoreStats
runKernel(const Trace &trace, CoreConfig cfg, SchedKernel kernel,
          PipeTracer *tracer)
{
    cfg.sched_kernel = kernel;
    OooCore core(std::move(cfg));
    core.setTracer(tracer);
    return core.run(trace);
}

/** Element-wise event-stream comparison (streams can be millions of
 *  events; report the first divergence, not a full dump). */
void
expectEventsEqual(const PipeTracer &scan, const PipeTracer &event,
                  const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(scan.size(), event.size());
    ASSERT_EQ(scan.droppedEvents(), event.droppedEvents());
    const std::vector<PipeEvent> a = scan.events();
    const std::vector<PipeEvent> b = event.events();
    for (size_t i = 0; i < a.size(); ++i) {
        const bool same = a[i].tick == b[i].tick &&
                          a[i].seq == b[i].seq &&
                          a[i].link == b[i].link &&
                          a[i].kind == b[i].kind && a[i].arg == b[i].arg;
        ASSERT_TRUE(same)
            << "first divergence at event " << i << ": scan={"
            << pipeEventName(a[i].kind) << " seq=" << a[i].seq
            << " tick=" << a[i].tick << "} event={"
            << pipeEventName(b[i].kind) << " seq=" << b[i].seq
            << " tick=" << b[i].tick << "}";
    }
}

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
    const Trace &trace = sharedDriver().trace(workload);

    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;

    PipeTracer tracers[2];
    int i = 0;
    for (const SchedKernel kernel :
         {SchedKernel::Scan, SchedKernel::Event}) {
        const std::string what =
            workload + "/" + schedKernelName(kernel);
        const CoreStats off = runKernel(trace, cfg, kernel, nullptr);
        const CoreStats on = runKernel(trace, cfg, kernel, &tracers[i]);
        EXPECT_EQ(firstDifference(off, on), "") << what;
        EXPECT_GT(tracers[i].size(), 0u) << what;
        ++i;
    }
    expectEventsEqual(tracers[0], tracers[1], workload + "/kernels");
}

TEST_P(TraceNeutrality, BaselineAndMosNeutralToo)
{
    // The non-ReDSOC modes take different emission paths (no
    // transparent/EGPW events, MOS fusion events): each must be
    // equally neutral.
    const std::string workload = GetParam();
    const Trace &trace = sharedDriver().trace(workload);

    for (const SchedMode mode : {SchedMode::Baseline, SchedMode::MOS}) {
        CoreConfig cfg = coreByName("big");
        cfg.mode = mode;
        PipeTracer tracer;
        const std::string what =
            workload + "/" + schedModeName(mode);
        const CoreStats off =
            runKernel(trace, cfg, SchedKernel::Event, nullptr);
        const CoreStats on =
            runKernel(trace, cfg, SchedKernel::Event, &tracer);
        EXPECT_EQ(firstDifference(off, on), "") << what;
        EXPECT_GT(tracer.size(), 0u) << what;
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, TraceNeutrality,
                         ::testing::Values("crc", "gsm", "act", "bzip2",
                                           "conv", "xalanc"),
                         [](const auto &pinfo) { return pinfo.param; });

// ---------------------------------------------------------------------
// A graph recorder is just as neutral: the core reports to it through
// its own hooks, which must not perturb the schedule either.
// ---------------------------------------------------------------------

TEST(TraceNeutralityUnit, GraphRecorderRunIsBitIdentical)
{
    for (const u64 seed : {1u, 2u, 3u}) {
        const Trace trace = test::randomTrace(seed, 1200);
        for (const std::string core : {"big", "small"}) {
            for (const auto &[tag, cfg] :
                 test::differentialConfigs(core)) {
                for (const SchedKernel kernel :
                     {SchedKernel::Scan, SchedKernel::Event}) {
                    const std::string what =
                        "seed " + std::to_string(seed) + "/" + core +
                        "/" + tag + "/" + schedKernelName(kernel);
                    const CoreStats off =
                        runKernel(trace, cfg, kernel, nullptr);
                    PipeTracer tracer(1);
                    DepGraphBuilder builder(trace, cfg);
                    tracer.setSink(&builder);
                    const CoreStats on =
                        runKernel(trace, cfg, kernel, &tracer);
                    EXPECT_EQ(firstDifference(off, on), "") << what;
                    EXPECT_EQ(builder.finalize().num_ops, trace.size())
                        << what;
                }
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
