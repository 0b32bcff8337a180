/**
 * @file
 * Sec.II-B overheads/accuracy: the Loh resetting-counter data-width
 * predictor — aggressive/conservative misprediction rates per
 * workload plus the state-budget comparison the paper makes.
 */

#include "bench_common.h"
#include "harnesses.h"

using namespace redsoc;

void
bench::tab_width_predictor(SimDriver &driver, bool fast)
{
    bench::printHeader("data-width predictor accuracy and cost",
                       "Sec.II-B");
    const CoreConfig cfg = configFor("medium", SchedMode::ReDSOC);

    std::vector<SimDriver::Point> points;
    for (Suite suite : bench::allSuites())
        for (const std::string &name : bench::suiteWorkloads(suite, fast))
            points.push_back({name, cfg});
    driver.prefetch(points);

    Table t({"benchmark", "predictions", "aggressive", "conservative"});
    double worst_aggressive = 0.0;
    for (Suite suite : bench::allSuites()) {
        for (const std::string &name :
             bench::suiteWorkloads(suite, fast)) {
            const CoreStats &stats = driver.run(name, cfg);
            const double aggr = stats.widthAggressiveRate();
            worst_aggressive = std::max(worst_aggressive, aggr);
            const double cons = ratioOf(stats.width_conservative,
                                        stats.width_predictions);
            t.addRow({name, std::to_string(stats.width_predictions),
                      Table::pct(aggr, 3), Table::pct(cons, 2)});
        }
    }
    std::printf("%s\n", t.render().c_str());

    WidthPredictor wp(cfg.width_pred);
    LastArrivalPredictor la(cfg.last_arrival);
    std::printf("predictor state: %llu bytes (4K-entry resetting "
                "counter table)\n",
                static_cast<unsigned long long>(wp.stateBytes()));
    std::printf("last-arrival table: %llu bytes (1K x 1 bit)\n",
                static_cast<unsigned long long>(la.stateBytes()));
    std::printf("worst aggressive misprediction observed: %.3f%%\n",
                worst_aggressive * 100.0);
    std::printf("paper: aggressive mispredictions ~0.3-0.4%% with a "
                "4K-entry,\n~1.5KB table (vs 64KB branch predictors).\n");
}
