/**
 * @file
 * Shared plumbing for the figure/table regeneration harnesses
 * (harnesses.h): suite iteration, matrix enumeration + parallel
 * prefetch helpers, and mean helpers. Fast mode runs a reduced
 * workload subset (one benchmark per suite).
 *
 * The harness pattern is enumerate-then-print: a harness first collects
 * every (workload, config) point its tables will touch into a
 * SimDriver::Point matrix and hands it to SimDriver::prefetch(),
 * which fans the points out across the global thread pool (and the
 * REDSOC_CACHE_DIR disk cache, when set). The printing loops below
 * then only ever hit warm in-memory results, so table layout code
 * stays serial and simple while all simulation happens in parallel.
 */

#ifndef REDSOC_BENCH_BENCH_COMMON_H
#define REDSOC_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/table.h"
#include "sim/driver.h"

namespace redsoc {
namespace bench {

/**
 * Workloads to sweep, honoring fast mode. An empty suite would
 * silently collapse the whole simulation matrix, so it is fatal; the
 * first fast-mode reduction of each suite logs what was dropped (to
 * stderr, keeping table output on stdout byte-stable).
 */
inline std::vector<std::string>
suiteWorkloads(Suite suite, bool fast)
{
    std::vector<std::string> names = workloadNames(suite);
    fatal_if(names.empty(), "suite ", suiteName(suite),
             " has no workloads: the simulation matrix would be empty");
    if (fast && names.size() > 1) {
        static bool logged[3] = {false, false, false};
        bool &done = logged[static_cast<unsigned>(suite)];
        if (!done) {
            done = true;
            std::fprintf(stderr,
                         "[fast] %s: keeping '%s', dropping %zu other "
                         "workloads\n",
                         suiteName(suite), names.front().c_str(),
                         names.size() - 1);
        }
        names.resize(1);
    }
    return names;
}

inline const std::vector<Suite> &
allSuites()
{
    static const std::vector<Suite> suites = {Suite::Spec,
                                              Suite::MiBench, Suite::Ml};
    return suites;
}

inline const std::vector<std::string> &
allCores()
{
    static const std::vector<std::string> cores = {"big", "medium",
                                                   "small"};
    return cores;
}

/** The Sec.VI-C candidate thresholds of the per-suite tuning sweep. */
inline const std::vector<Tick> &
tuningThresholds()
{
    static const std::vector<Tick> ticks = {2, 4, 6, 8};
    return ticks;
}

/**
 * Every (workload, config) point the slack-threshold tuning sweep of
 * one (suite, core) touches: the baseline plus each candidate
 * threshold, over the suite's workloads.
 */
inline void
appendTuningPoints(std::vector<SimDriver::Point> &out, Suite suite,
                   const std::string &core, bool fast)
{
    for (const std::string &name : suiteWorkloads(suite, fast)) {
        out.push_back({name, configFor(core, SchedMode::Baseline)});
        for (Tick thr : tuningThresholds()) {
            CoreConfig red = configFor(core, SchedMode::ReDSOC);
            red.slack_threshold_ticks = thr;
            out.push_back({name, red});
        }
    }
}

/** Enumerate + simulate the whole tuning matrix of a set of suites
 *  and cores across the thread pool. */
inline void
prefetchTuning(SimDriver &driver, const std::vector<Suite> &suites,
               const std::vector<std::string> &cores, bool fast)
{
    std::vector<SimDriver::Point> points;
    for (Suite suite : suites)
        for (const std::string &core : cores)
            appendTuningPoints(points, suite, core, fast);
    driver.prefetch(points);
}

/** Mean of a per-workload metric over a suite. */
template <typename Fn>
double
suiteMean(Suite suite, bool fast, Fn &&metric)
{
    std::vector<double> values;
    for (const std::string &name : suiteWorkloads(suite, fast))
        values.push_back(metric(name));
    return SimDriver::mean(values);
}

inline void
printHeader(const char *title, const char *paper_ref)
{
    std::printf("=== %s ===\n(reproduces %s)\n\n", title, paper_ref);
}

/**
 * Sec.VI-C methodology: the slack threshold is tuned via a design
 * sweep per application set (suite) and core. The sweep's matrix is
 * prefetched through the thread pool up front, so the argmax scan
 * below only reads warm results; across harnesses the driver's
 * in-memory and REDSOC_CACHE_DIR caches make repeat sweeps free.
 */
inline Tick
tunedThreshold(SimDriver &driver, Suite suite, const std::string &core,
               bool fast)
{
    std::vector<SimDriver::Point> points;
    appendTuningPoints(points, suite, core, fast);
    driver.prefetch(points);

    Tick best = 6;
    double best_mean = -1e9;
    for (Tick thr : tuningThresholds()) {
        const CoreConfig base = configFor(core, SchedMode::Baseline);
        const double mean =
            suiteMean(suite, fast, [&](const std::string &name) {
                CoreConfig red = configFor(core, SchedMode::ReDSOC);
                red.slack_threshold_ticks = thr;
                return driver.speedup(name, base, red);
            });
        if (mean > best_mean) {
            best_mean = mean;
            best = thr;
        }
    }
    return best;
}

/** The ReDSOC configuration with the suite-tuned slack threshold. */
inline CoreConfig
tunedRedsoc(SimDriver &driver, Suite suite, const std::string &core,
            bool fast)
{
    CoreConfig red = configFor(core, SchedMode::ReDSOC);
    red.slack_threshold_ticks = tunedThreshold(driver, suite, core, fast);
    return red;
}

} // namespace bench
} // namespace redsoc

#endif // REDSOC_BENCH_BENCH_COMMON_H
