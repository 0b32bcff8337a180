/**
 * @file
 * Fig.14: pipeline stall rate from busy functional units, baseline
 * vs ReDSOC — recycling trades FU occupancy (2-cycle transparent
 * holds, eager consumers) for latency.
 */

#include "bench_common.h"
#include "harnesses.h"

using namespace redsoc;

void
bench::fig14_fu_stalls(SimDriver &driver, bool fast)
{
    bench::printHeader("FU-busy stall rates", "Fig.14");
    bench::prefetchTuning(driver, bench::allSuites(), bench::allCores(),
                          fast);
    Table t({"core:suite", "baseline", "REDSOC"});
    for (const std::string &core : bench::allCores()) {
        for (Suite suite : bench::allSuites()) {
            auto rate = [&](const CoreConfig &cfg) {
                return bench::suiteMean(
                    suite, fast, [&](const std::string &name) {
                        return driver.run(name, cfg).fuStallRate();
                    });
            };
            t.addRow({core + ":" + suiteName(suite) + "-MEAN",
                      Table::pct(rate(configFor(core,
                                                SchedMode::Baseline))),
                      Table::pct(rate(bench::tunedRedsoc(
                          driver, suite, core, fast)))});
        }
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("paper shape: ReDSOC raises FU-busy stalls everywhere; "
                "the\nincrease is what bounds recycling gains on the "
                "small core.\n");
}
