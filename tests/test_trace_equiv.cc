/**
 * @file
 * Trace-neutrality differential suite: attaching a recorder must not
 * change simulated behaviour in any observable way. A recorded run's
 * CoreStats — every counter plus the per-op commit-schedule checksum
 * — must be byte-identical to the unrecorded run's, and the Scan and
 * Event kernels must record identical runs, lane for lane (the
 * golden-snapshot test in test_trace.cc pins the rendered form; this
 * one covers real workloads at full length). Each point goes through
 * the contract checker (checkContracts, tools/fuzz).
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz_lib.h"
#include "helpers.h"
#include "sched_grid.h"

namespace redsoc {
namespace {

using fuzz::checkContracts;

// ---------------------------------------------------------------------
// Real workloads x both kernels: recording is behavior-neutral, and
// the record is kernel-agnostic.
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
                             {.checks = fuzz::kRecorderNeutral |
                                        fuzz::kRecordsMatch})
                  .failure,
              "")
        << workload;
}

TEST_P(TraceNeutrality, BaselineAndMosNeutralToo)
{
    // The non-ReDSOC modes take different hook paths (no transparent
    // or EGPW moments, MOS fusions): each must be equally neutral.
    const std::string workload = GetParam();
    for (const SchedMode mode : {SchedMode::Baseline, SchedMode::MOS}) {
        CoreConfig cfg = coreByName("big");
        cfg.mode = mode;
        EXPECT_EQ(checkContracts(sharedDriver().trace(workload), cfg,
                                 {.checks = fuzz::kRecorderNeutral,
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
// Over the whole config grid, a graph-building recorder is just as
// neutral, and the graph it records covers every op.
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

} // namespace
} // namespace redsoc
