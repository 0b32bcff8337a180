/**
 * @file
 * Fig.15: ReDSOC against the two prior-art comparators — timing
 * speculation (Razor-like static overclocking, optimistic: no
 * recovery cost) and MOS operation fusion — per suite and core.
 */

#include <map>
#include <utility>

#include "baselines/timing_speculation.h"
#include "bench_common.h"
#include "harnesses.h"
#include "sim/thread_pool.h"

using namespace redsoc;

void
bench::fig15_comparison(SimDriver &driver, bool fast)
{
    bench::printHeader("ReDSOC vs TS vs MOS", "Fig.15");
    const TimingSpeculation ts;

    // Matrix: the tuning sweep (covers baseline + tuned ReDSOC) plus
    // one MOS point per (core, workload). TS replays the functional
    // trace directly, so the trace prefetch inside the sweep covers
    // it too.
    std::vector<SimDriver::Point> points;
    for (const std::string &core : bench::allCores()) {
        for (Suite suite : bench::allSuites()) {
            bench::appendTuningPoints(points, suite, core, fast);
            for (const std::string &name :
                 bench::suiteWorkloads(suite, fast))
                points.push_back({name, configFor(core, SchedMode::MOS)});
        }
    }
    driver.prefetch(points);

    // The TS replays, one baseline-scheduled core run per (core,
    // workload), as pool tasks: each writes its own entry, and the
    // table below only reads them.
    std::map<std::pair<std::string, std::string>, double> ts_speedup;
    for (const std::string &core : bench::allCores())
        for (Suite suite : bench::allSuites())
            for (const std::string &name :
                 bench::suiteWorkloads(suite, fast))
                ts_speedup[{core, name}] = 0.0;
    ThreadPool &pool = globalSimPool();
    for (auto &entry : ts_speedup) {
        pool.submit([&ts, &driver, &entry] {
            const auto &[core, name] = entry.first;
            const CoreConfig base = configFor(core, SchedMode::Baseline);
            const Cycle base_cycles = driver.run(name, base).cycles;
            entry.second =
                ts.run(driver.trace(name), base, base_cycles).speedup - 1.0;
        });
    }
    pool.wait();

    Table t({"core:suite", "ReDSOC", "TS", "MOS"});
    for (const std::string &core : bench::allCores()) {
        for (Suite suite : bench::allSuites()) {
            const CoreConfig base = configFor(core, SchedMode::Baseline);
            auto cfg_speedup = [&](const CoreConfig &cfg) {
                return bench::suiteMean(
                    suite, fast, [&](const std::string &name) {
                        return driver.speedup(name, base, cfg) - 1.0;
                    });
            };
            const double ts_mean = bench::suiteMean(
                suite, fast, [&](const std::string &name) {
                    return ts_speedup.at({core, name});
                });
            t.addRow({core + ":" + suiteName(suite) + "-MEAN",
                      Table::pct(cfg_speedup(bench::tunedRedsoc(
                          driver, suite, core, fast))),
                      Table::pct(ts_mean),
                      Table::pct(cfg_speedup(
                          configFor(core, SchedMode::MOS)))});
        }
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("paper shape: ReDSOC outperforms both comparators by "
                "2x or more;\nMOS does best on MiBench (highest slack "
                "pairs); TS is capped by\nits conservative error-rate "
                "band and fixed memory time.\n");
}
