/**
 * @file
 * Fig.13: ReDSOC speedup over the conventional baseline for every
 * benchmark on the three cores, with suite means — the paper's
 * headline result.
 */

#include "bench_common.h"
#include "harnesses.h"

using namespace redsoc;

void
bench::fig13_speedup(SimDriver &driver, bool fast)
{
    bench::printHeader("ReDSOC speedup over baseline", "Fig.13");
    // Every cell of Fig.13 (and the tuning sweep behind it) is a
    // point of the per-suite threshold matrix: fan it out first.
    bench::prefetchTuning(driver, bench::allSuites(), bench::allCores(),
                          fast);

    Table t({"benchmark", "BIG", "MEDIUM", "SMALL"});

    for (Suite suite : bench::allSuites()) {
        // Sec.VI-C: the slack threshold is tuned per application set.
        auto speedup = [&](const std::string &name,
                           const std::string &core) {
            return driver.speedup(
                name, configFor(core, SchedMode::Baseline),
                bench::tunedRedsoc(driver, suite, core, fast));
        };
        std::vector<double> means(bench::allCores().size(), 0.0);
        const auto names = bench::suiteWorkloads(suite, fast);
        for (const std::string &name : names) {
            std::vector<std::string> row = {name};
            for (size_t c = 0; c < bench::allCores().size(); ++c) {
                const double s = speedup(name, bench::allCores()[c]);
                means[c] += (s - 1.0) / asDouble(names.size());
                row.push_back(Table::pct(s - 1.0));
            }
            t.addRow(row);
        }
        std::vector<std::string> mrow = {
            std::string(suiteName(suite)) + "-MEAN"};
        for (double m : means)
            mrow.push_back(Table::pct(m));
        t.addRow(mrow);
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("paper shape (BIG/MED/SMALL means): SPEC 12/8/4%%, "
                "MiBench 23/17/9%%,\nML 13/9/6%%; bitcount exceeds "
                "40%% on the big core; gains grow\nwith core size.\n");
}
