/**
 * @file
 * Mechanism ablations (DESIGN.md §3): how much of ReDSOC's gain each
 * scheduler component is responsible for — eager grandparent wakeup,
 * skewed selection, the Operational vs Illustrative RSE design — and
 * the Sec.IV-C dynamic-threshold extension versus the static tuned
 * value.
 */

#include "bench_common.h"
#include "harnesses.h"

using namespace redsoc;

void
bench::ablation_mechanisms(SimDriver &driver, bool fast)
{
    bench::printHeader("ReDSOC mechanism ablations",
                       "Sec.IV design choices");
    const std::vector<std::string> cores = {"big", "small"};

    // Two-phase prefetch: the tuning sweep first (it decides each
    // suite's threshold), then every ablation variant of the tuned
    // configuration in one parallel batch.
    bench::prefetchTuning(driver, bench::allSuites(), cores, fast);
    std::vector<SimDriver::Point> points;
    for (const std::string &core : cores) {
        for (Suite suite : bench::allSuites()) {
            const CoreConfig full =
                bench::tunedRedsoc(driver, suite, core, fast);
            CoreConfig no_egpw = full;
            no_egpw.egpw = false;
            CoreConfig no_skew = full;
            no_skew.skewed_select = false;
            CoreConfig illus = full;
            illus.rs_design = RsDesign::Illustrative;
            CoreConfig dyn = configFor(core, SchedMode::ReDSOC);
            dyn.dynamic_threshold = true;
            for (const std::string &name :
                 bench::suiteWorkloads(suite, fast)) {
                points.push_back({name, no_egpw});
                points.push_back({name, no_skew});
                points.push_back({name, illus});
                points.push_back({name, dyn});
            }
        }
    }
    driver.prefetch(points);

    for (const std::string &core : cores) {
        Table t({"suite", "full", "-EGPW", "-skewed sel",
                 "illustrative RSE", "dynamic threshold"});
        for (Suite suite : bench::allSuites()) {
            const CoreConfig base = configFor(core, SchedMode::Baseline);
            const CoreConfig full =
                bench::tunedRedsoc(driver, suite, core, fast);

            auto mean_speedup = [&](const CoreConfig &cfg) {
                return bench::suiteMean(
                    suite, fast, [&](const std::string &name) {
                        return driver.speedup(name, base, cfg) - 1.0;
                    });
            };

            CoreConfig no_egpw = full;
            no_egpw.egpw = false;
            CoreConfig no_skew = full;
            no_skew.skewed_select = false;
            CoreConfig illus = full;
            illus.rs_design = RsDesign::Illustrative;
            CoreConfig dyn = configFor(core, SchedMode::ReDSOC);
            dyn.dynamic_threshold = true;

            t.addRow({suiteName(suite), Table::pct(mean_speedup(full)),
                      Table::pct(mean_speedup(no_egpw)),
                      Table::pct(mean_speedup(no_skew)),
                      Table::pct(mean_speedup(illus)),
                      Table::pct(mean_speedup(dyn))});
        }
        std::printf("--- %s core ---\n%s\n", core.c_str(),
                    t.render().c_str());
    }
    std::printf("expected: EGPW carries most of the gain (chains can't "
                "start\nwithout same-cycle parent/child issue); skewed "
                "selection matters\nunder FU pressure; the Operational "
                "RSE tracks the Illustrative\ndesign within ~1%%; the "
                "dynamic threshold approaches the statically\ntuned "
                "value without per-suite sweeps.\n");
}
