/**
 * @file
 * Integration tests: real workloads through the full stack (trace ->
 * cores x modes) via the SimDriver, checking the paper's headline
 * qualitative results on a fast subset.
 */

#include <gtest/gtest.h>

#include "baselines/timing_speculation.h"
#include "sim/driver.h"

namespace redsoc {
namespace {

class IntegrationTest : public ::testing::Test
{
  protected:
    SimDriver driver;
};

TEST_F(IntegrationTest, DriverCachesTracesAndRuns)
{
    const Trace &a = driver.trace("crc");
    const Trace &b = driver.trace("crc");
    EXPECT_EQ(&a, &b);

    const CoreConfig cfg = configFor("medium", SchedMode::Baseline);
    const CoreStats &r1 = driver.run("crc", cfg);
    const CoreStats &r2 = driver.run("crc", cfg);
    EXPECT_EQ(&r1, &r2);
    EXPECT_GT(r1.cycles, 0u);
}

TEST_F(IntegrationTest, ConfigKeysDistinguishVariants)
{
    CoreConfig a = configFor("medium", SchedMode::Baseline);
    CoreConfig b = configFor("medium", SchedMode::ReDSOC);
    CoreConfig c = b;
    c.slack_threshold_ticks = 2;
    EXPECT_NE(SimDriver::configKey(a), SimDriver::configKey(b));
    EXPECT_NE(SimDriver::configKey(b), SimDriver::configKey(c));
    // L2 line size alone changes the simulated cycles (xalanc
    // big/redsoc: 539,127 at 64 B, 537,174 at 128 B).
    CoreConfig d = b;
    d.memory.l2.line_bytes = 128;
    EXPECT_NE(SimDriver::configKey(b), SimDriver::configKey(d));
    // Doubles are keyed at round-trip precision: the PVT derate sweep
    // and the timing-speculation latency rescale must not alias
    // neighbouring points.
    CoreConfig e = b;
    CoreConfig f = b;
    e.timing.pvt_derate = 0.85;
    f.timing.pvt_derate = 0.8500001;
    EXPECT_NE(SimDriver::configKey(e), SimDriver::configKey(f));
    e = b;
    f = b;
    e.memory.offcore_latency_scale = 1.0 / 0.85;
    f.memory.offcore_latency_scale = 1.1764705;
    EXPECT_NE(SimDriver::configKey(e), SimDriver::configKey(f));
}

TEST_F(IntegrationTest, RedsocSpeedsUpComputeKernels)
{
    for (const char *name : {"crc", "bitcnt"}) {
        const double s =
            driver.speedup(name, configFor("big", SchedMode::Baseline),
                           configFor("big", SchedMode::ReDSOC));
        EXPECT_GT(s, 1.10) << name; // high-slack kernels gain a lot
    }
}

TEST_F(IntegrationTest, MemoryBoundKernelsGainLess)
{
    const double compute =
        driver.speedup("bitcnt", configFor("big", SchedMode::Baseline),
                       configFor("big", SchedMode::ReDSOC));
    const double memory =
        driver.speedup("xalanc", configFor("big", SchedMode::Baseline),
                       configFor("big", SchedMode::ReDSOC));
    EXPECT_GT(compute, memory);
}

TEST_F(IntegrationTest, RedsocBeatsMosOnRealKernels)
{
    const CoreConfig base = configFor("big", SchedMode::Baseline);
    double red_total = 0.0, mos_total = 0.0;
    for (const char *name : {"crc", "gsm", "bitcnt"}) {
        red_total +=
            driver.speedup(name, base, configFor("big", SchedMode::ReDSOC));
        mos_total +=
            driver.speedup(name, base, configFor("big", SchedMode::MOS));
    }
    EXPECT_GT(red_total, mos_total);
}

TEST_F(IntegrationTest, TimingSpeculationIsBounded)
{
    const CoreConfig base = configFor("medium", SchedMode::Baseline);
    const Trace &trace = driver.trace("gsm");
    const Cycle base_cycles = driver.run("gsm", base).cycles;
    TimingSpeculation ts;
    const auto result = ts.run(trace, base, base_cycles);
    EXPECT_LE(result.error_rate, 0.01);
    EXPECT_GE(result.speedup, 0.9); // never catastrophically worse
    EXPECT_LT(result.period_ps, 500u);
}

TEST_F(IntegrationTest, FuStallsRiseUnderRedsoc)
{
    // Fig.14: slack recycling trades FU occupancy for latency.
    const CoreStats &base =
        driver.run("crc", configFor("small", SchedMode::Baseline));
    const CoreStats &red =
        driver.run("crc", configFor("small", SchedMode::ReDSOC));
    EXPECT_GE(red.fuStallRate(), base.fuStallRate());
}

TEST_F(IntegrationTest, TagMispredictionStaysLow)
{
    // Fig.12: P/GP (last-arrival) misprediction around 1%.
    const CoreStats &red =
        driver.run("gsm", configFor("big", SchedMode::ReDSOC));
    if (red.la_predictions > 0) {
        EXPECT_LT(red.laMispredictRate(), 0.08);
    }
}

TEST_F(IntegrationTest, WidthPredictorAggressiveRateTiny)
{
    // Sec.II-B: aggressive mispredictions ~0.3-0.4%.
    const CoreStats &red =
        driver.run("corners", configFor("medium", SchedMode::ReDSOC));
    EXPECT_GT(red.width_predictions, 0u);
    EXPECT_LT(red.widthAggressiveRate(), 0.02);
}

TEST_F(IntegrationTest, MeanHelper)
{
    EXPECT_DOUBLE_EQ(SimDriver::mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(SimDriver::mean({}), 0.0);
}

} // namespace
} // namespace redsoc
