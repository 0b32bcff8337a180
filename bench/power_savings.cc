/**
 * @file
 * Sec.VI-C: power savings at baseline performance — convert ReDSOC
 * speedups into V/F-scaling power savings on the A57-style DVFS
 * curve.
 */

#include "bench_common.h"
#include "harnesses.h"
#include "power/dvfs.h"

using namespace redsoc;

void
bench::power_savings(SimDriver &driver, bool fast)
{
    bench::printHeader("iso-performance power savings", "Sec.VI-C");
    bench::prefetchTuning(driver, bench::allSuites(), bench::allCores(),
                          fast);
    const DvfsModel dvfs;

    Table t({"suite", "core", "min", "mean", "max"});
    for (Suite suite : bench::allSuites()) {
        for (const std::string &core : bench::allCores()) {
            double lo = 1.0, hi = 0.0, total = 0.0;
            const auto names = bench::suiteWorkloads(suite, fast);
            const CoreConfig red =
                bench::tunedRedsoc(driver, suite, core, fast);
            for (const std::string &name : names) {
                const double s = driver.speedup(
                    name, configFor(core, SchedMode::Baseline), red);
                const double saving = dvfs.powerSavingForSpeedup(s);
                lo = std::min(lo, saving);
                hi = std::max(hi, saving);
                total += saving / asDouble(names.size());
            }
            t.addRow({suiteName(suite), core, Table::pct(lo),
                      Table::pct(total), Table::pct(hi)});
        }
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("paper shape: mean savings of 8-15%% (SPEC), 12-36%% "
                "(MiBench)\nand 8-18%% (ML) across the cores, via "
                "application-level V/F\nscaling modeled on an ARM "
                "A57.\n");
}
