/**
 * @file
 * Sec.IV-C / VI-C: the slack-threshold design sweep — aggressive
 * recycling (high threshold) accumulates more slack but over-books
 * functional units with 2-cycle holds; the balance is tuned per
 * application class.
 */

#include "bench_common.h"
#include "harnesses.h"

using namespace redsoc;

void
bench::sweep_slack_threshold(SimDriver &driver, bool fast)
{
    bench::printHeader("slack-threshold sweep", "Sec.IV-C step 10");

    std::vector<SimDriver::Point> points;
    for (const std::string &core : {std::string("big"),
                                    std::string("small")}) {
        for (Suite suite : bench::allSuites()) {
            for (const std::string &name :
                 bench::suiteWorkloads(suite, fast)) {
                points.push_back(
                    {name, configFor(core, SchedMode::Baseline)});
                for (Tick thr = 0; thr <= 8; thr += 2) {
                    CoreConfig red = configFor(core, SchedMode::ReDSOC);
                    red.slack_threshold_ticks = thr;
                    points.push_back({name, red});
                }
            }
        }
    }
    driver.prefetch(points);

    for (const std::string &core : {std::string("big"),
                                    std::string("small")}) {
        Table t({"threshold", "SPEC mean", "MiBench mean", "ML mean",
                 "FU stall (MiB)"});
        for (Tick thr = 0; thr <= 8; thr += 2) {
            std::vector<std::string> row = {std::to_string(thr) + "/8"};
            double mib_stall = 0.0;
            for (Suite suite : bench::allSuites()) {
                const double mean = bench::suiteMean(
                    suite, fast, [&](const std::string &name) {
                        CoreConfig red = configFor(core,
                                                   SchedMode::ReDSOC);
                        red.slack_threshold_ticks = thr;
                        const double s = driver.speedup(
                            name, configFor(core, SchedMode::Baseline),
                            red);
                        if (suite == Suite::MiBench)
                            mib_stall +=
                                driver.run(name, red).fuStallRate();
                        return s - 1.0;
                    });
                row.push_back(Table::pct(mean));
            }
            const size_t mib_count =
                bench::suiteWorkloads(Suite::MiBench, fast).size();
            row.push_back(
                Table::pct(mib_stall / asDouble(mib_count)));
            t.addRow(row);
        }
        std::printf("--- %s core ---\n%s\n", core.c_str(),
                    t.render().c_str());
    }
    std::printf("paper shape: higher thresholds recycle more "
                "aggressively; FU\nover-allocation (2-cycle holds) "
                "pushes stall rates up, bounding\nthe benefit on "
                "FU-constrained small cores.\n");
}
