/**
 * @file
 * Fig.12: last-arriving parent/grandparent tag misprediction rate of
 * the Operational RSE design, by benchmark class and core size.
 */

#include "bench_common.h"
#include "harnesses.h"

using namespace redsoc;

void
bench::fig12_tag_mispred(SimDriver &driver, bool fast)
{
    bench::printHeader("P/GP tag misprediction", "Fig.12");
    bench::prefetchTuning(driver, bench::allSuites(), bench::allCores(),
                          fast);
    Table t({"suite", "BIG", "MEDIUM", "SMALL"});
    for (Suite suite : bench::allSuites()) {
        std::vector<std::string> row = {
            std::string(suiteName(suite)) + "-MEAN"};
        for (const std::string &core : bench::allCores()) {
            const CoreConfig red =
                bench::tunedRedsoc(driver, suite, core, fast);
            const double rate = bench::suiteMean(
                suite, fast, [&](const std::string &name) {
                    return driver.run(name, red).laMispredictRate();
                });
            row.push_back(Table::pct(rate, 2));
        }
        t.addRow(row);
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("paper shape: around 1%% misprediction, slightly "
                "higher on larger\ncores (more scheduling traffic).\n");
}
