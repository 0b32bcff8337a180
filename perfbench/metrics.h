/**
 * @file
 * Every metric the benchmark reports, by name and unit (BENCHMARK.json
 * lists the same names), and how each is computed from a run.
 */

#ifndef PERFBENCH_METRICS_H
#define PERFBENCH_METRICS_H

#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** The workloads a run can name: sweep-cold and whatif. */
const std::vector<std::string> &workloadNames();
/** Reported with tracing off. */
const std::vector<MetricDef> &endToEndMetrics();
/** Reported by the traced run. */
const std::vector<MetricDef> &perLayerMetrics();

using MetricValues = std::map<std::string, double>;

MetricValues endToEnd(const RunSummary &run, double peak_rss_mb);

/** The existing prof phase totals over the traced run, in ns. */
struct PhaseTotals
{
    double run = 0, dispatch = 0, issue = 0, wakeup = 0, select = 0,
           commit = 0;
};

struct TracedRun
{
    std::string workload;
    std::vector<Span> spans;
    PhaseTotals phases;
    RunSummary reference; ///< the untraced round
    RunSummary traced;    ///< the traced round
    std::pair<u64, u64> population_counts; ///< cycles, committed ops
};

MetricValues perLayer(const TracedRun &run);

/** The result line: exactly correct, attempted, failed and metrics,
 *  with every metric of @p defs (a missing value is a program bug). */
std::string resultJson(bool correct, u64 attempted, u64 failed,
                       const std::vector<MetricDef> &defs,
                       const MetricValues &values);

} // namespace perfbench

#endif // PERFBENCH_METRICS_H
