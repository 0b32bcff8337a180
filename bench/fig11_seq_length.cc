/**
 * @file
 * Fig.11: expected value of the transparent-sequence length, by
 * benchmark class and core size (the weighted mean length of the
 * recycled sequence a uniformly chosen recycled operation belongs
 * to).
 */

#include "bench_common.h"
#include "harnesses.h"

using namespace redsoc;

void
bench::fig11_seq_length(SimDriver &driver, bool fast)
{
    bench::printHeader("expected transparent sequence length",
                       "Fig.11");
    // The whole matrix is the tuning sweep; simulate it in parallel
    // before any table code runs.
    bench::prefetchTuning(driver, bench::allSuites(), bench::allCores(),
                          fast);
    Table t({"suite", "BIG", "MEDIUM", "SMALL"});
    for (Suite suite : bench::allSuites()) {
        std::vector<std::string> row = {
            std::string(suiteName(suite)) + "-MEAN"};
        for (const std::string &core : bench::allCores()) {
            const CoreConfig red =
                bench::tunedRedsoc(driver, suite, core, fast);
            const double ev = bench::suiteMean(
                suite, fast, [&](const std::string &name) {
                    return driver.run(name, red).expected_chain_length;
                });
            row.push_back(Table::num(ev, 2));
        }
        t.addRow(row);
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("paper shape: average transparent sequences of ~4-6 "
                "operations,\nlonger on larger cores (more idle units "
                "to flow into).\n");
}
