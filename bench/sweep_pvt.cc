/**
 * @file
 * Sec.V "Influence of PVT variation": the headline results use the
 * worst-case design corner (pure data slack). Under nominal PVT
 * conditions every combinational path speeds up; CPM-guided LUT
 * recalibration lets ReDSOC recycle that additional guard band too.
 * This sweep derates all path delays and re-runs the recycling stack
 * (slack LUT and true delays recalibrate together, as the on-line
 * CPM recalibration of the paper would).
 */

#include "bench_common.h"
#include "harnesses.h"

using namespace redsoc;

void
bench::sweep_pvt(SimDriver &driver, bool fast)
{
    bench::printHeader("PVT guard-band sweep",
                       "Sec.V (worst-case corner vs nominal PVT)");

    std::vector<SimDriver::Point> points;
    for (double derate : {1.0, 0.95, 0.9, 0.85}) {
        for (Suite suite : bench::allSuites()) {
            for (const std::string &name :
                 bench::suiteWorkloads(suite, fast)) {
                CoreConfig base = configFor("big", SchedMode::Baseline);
                CoreConfig red = configFor("big", SchedMode::ReDSOC);
                base.timing.pvt_derate = derate;
                red.timing.pvt_derate = derate;
                points.push_back({name, base});
                points.push_back({name, red});
            }
        }
    }
    driver.prefetch(points);

    Table t({"PVT derate", "SPEC mean", "MiBench mean", "ML mean"});
    for (double derate : {1.0, 0.95, 0.9, 0.85}) {
        std::vector<std::string> row = {Table::num(derate, 2)};
        for (Suite suite : bench::allSuites()) {
            const double mean = bench::suiteMean(
                suite, fast, [&](const std::string &name) {
                    CoreConfig base = configFor("big",
                                                SchedMode::Baseline);
                    CoreConfig red = configFor("big", SchedMode::ReDSOC);
                    // Both timing models see the same silicon; only
                    // ReDSOC can exploit the extra slack.
                    base.timing.pvt_derate = derate;
                    red.timing.pvt_derate = derate;
                    return driver.speedup(name, base, red) - 1.0;
                });
            row.push_back(Table::pct(mean));
        }
        t.addRow(row);
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("expected: speedups grow as the PVT guard band opens "
                "up —\nnominal-corner paths finish earlier, so every "
                "LUT bucket gains\nrecyclable ticks (1.0 = worst-case "
                "corner, the paper's default).\n");
}
