#include "metrics.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"sweep-cold", "whatif"};
    return names;
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"ops_per_s", "1/s"},
        {"sim_mips", "Mop/s"},
        {"op_p50_ms", "ms"},
        {"op_tail_ms", "ms"},
        {"parallel_efficiency", "share"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"func.trace_build_ms", "ms"},
        {"core.run_ns_per_op", "ns"},
        {"core.minor_faults_per_run", "count"},
        {"core.sys_ms_per_run", "ms"},
        {"core.dispatch_ns", "ns"},
        {"core.issue_ns", "ns"},
        {"core.wakeup_ns", "ns"},
        {"core.select_ns", "ns"},
        {"core.commit_ns", "ns"},
        {"core.unattributed_share", "share"},
        {"core.sim_cycles", "count"},
        {"core.committed_ops", "count"},
        {"core.self_share", "share"},
        {"driver.open_ms", "ms"},
        {"driver.hit_us", "us"},
        {"driver.self_share", "share"},
        {"run_cache.load_us", "us"},
        {"run_cache.miss_us", "us"},
        {"run_cache.store_us", "us"},
        {"run_cache.entry_bytes", "B"},
        {"trace.events_per_op", "count"},
        {"trace.overhead_ratio", "ratio"},
        {"critpath.build_ms", "ms"},
        {"critpath.edges_per_op", "count"},
        {"critpath.plan_ms", "ms"},
        {"critpath.base_retime_ms", "ms"},
        {"critpath.sweep_ms", "ms"},
        {"critpath.sweep_ns_per_edge", "ns"},
        {"critpath.minor_faults_per_op", "count"},
        {"critpath.self_share", "share"},
        {"profile.overhead_ratio", "ratio"},
        {"bench.span_coverage", "share"},
    };
    return defs;
}

namespace {

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
meanMs(const std::vector<OpSample> &ops)
{
    double sum = 0.0;
    for (const OpSample &s : ops)
        sum += s.ms;
    return ratio(sum, static_cast<double>(ops.size()));
}

std::string
layerOf(const char *name)
{
    const std::string s(name);
    return s.substr(0, s.find('.'));
}

/** Totals over every span of one name. */
struct Agg
{
    double calls = 0, ns = 0, work = 0, aux = 0, faults = 0, sys_ns = 0;

    void add(const Span &s)
    {
        calls += 1;
        ns += static_cast<double>(s.ns());
        work += static_cast<double>(s.work);
        aux += static_cast<double>(s.aux);
        faults += static_cast<double>(s.minor_faults);
        sys_ns += static_cast<double>(s.sys_ns);
    }
    double meanNs() const { return ratio(ns, calls); }
};

} // namespace

MetricValues
endToEnd(const RunSummary &run, double peak_rss_mb)
{
    // Every member's fastest op over the run's rounds: the host's slow
    // spells lengthen some rounds' ops, never shorten them.
    const std::vector<OpSample> best = bestPerMember(run.ops);
    std::vector<double> ms;
    double pass_ms = 0.0;
    double committed = 0.0;
    for (const OpSample &s : best) {
        ms.push_back(s.ms);
        pass_ms += s.ms;
        committed += static_cast<double>(s.committed);
    }
    std::sort(ms.begin(), ms.end());
    // One pass over the population at those times, spread over the
    // clients.
    const double pass_s = pass_ms * 1e-3 / run.clients;
    return {
        {"setup_s", run.setup_s.empty()
                        ? 0.0
                        : *std::min_element(run.setup_s.begin(),
                                            run.setup_s.end())},
        {"ops_per_s", ratio(static_cast<double>(best.size()), pass_s)},
        {"sim_mips", ratio(committed, pass_s) * 1e-6},
        {"op_p50_ms", percentile(ms, 50.0)},
        {"op_tail_ms", percentile(ms, tailPercentile(ms.size()))},
        {"parallel_efficiency",
         ratio(run.busy_s, run.clients * run.wall_s)},
        {"peak_rss_mb", peak_rss_mb},
    };
}

MetricValues
perLayer(const TracedRun &run)
{
    // Per-call costs come from every span of the traced phase: set-up,
    // census and ops alike. Shares come from the workload's own op trees.
    std::unordered_map<std::string, Agg> by_name;
    for (const Span &s : run.spans)
        by_name[s.name].add(s);
    auto agg = [&by_name](const char *name) { return by_name[name]; };

    // trace.overhead_ratio pairs each probe's traced core run with its
    // plain run of the same point (same op id), ns per committed op.
    std::unordered_map<u32, std::pair<Agg, Agg>> paired;
    for (const Span &s : run.spans) {
        const std::string n = s.name;
        if (n == "trace.run")
            paired[s.op].first.add(s);
        else if (n == "core.run")
            paired[s.op].second.add(s);
    }
    Agg traced_runs, plain_runs;
    for (const auto &[op, pr] : paired) {
        if (pr.first.calls == 0 || pr.second.calls == 0)
            continue;
        traced_runs.ns += pr.first.ns;
        traced_runs.work += pr.first.work;
        plain_runs.ns += pr.second.ns;
        plain_runs.work += pr.second.work;
    }

    // Self time per layer under the workload's own op roots.
    const std::string root_name = "op." + run.workload;
    std::unordered_map<u32, size_t> index;
    std::unordered_map<u32, double> child_ns;
    for (size_t i = 0; i < run.spans.size(); ++i) {
        index[run.spans[i].id] = i;
        if (run.spans[i].parent != 0)
            child_ns[run.spans[i].parent] +=
                static_cast<double>(run.spans[i].ns());
    }
    auto opRootOf = [&](const Span &s) -> const Span * {
        const Span *cur = &s;
        while (cur->parent != 0) {
            auto it = index.find(cur->parent);
            if (it == index.end())
                return nullptr;
            cur = &run.spans[it->second];
        }
        return root_name == cur->name ? cur : nullptr;
    };
    double op_ns = 0.0;
    double core_span_ns = 0.0;
    std::unordered_map<std::string, double> self_ns;
    for (const Span &s : run.spans) {
        const Span *root = opRootOf(s);
        if (root == nullptr)
            continue;
        const double self = static_cast<double>(s.ns()) - child_ns[s.id];
        if (root == &s) {
            op_ns += static_cast<double>(s.ns());
            self_ns["bench"] += self;
        } else {
            self_ns[layerOf(s.name)] += self;
            if (layerOf(s.name) == "core")
                core_span_ns += static_cast<double>(s.ns());
        }
    }
    // The ops' core runs that no core span covers ran inside
    // SimDriver::run (sweep-cold): the prof Run time of the op loop
    // tells how long they took, and that share is the core's, not the
    // driver's.
    const double hidden_core_ns =
        std::max(0.0, run.traced.loop_core_ns - core_span_ns);
    self_ns["core"] += hidden_core_ns;
    self_ns["driver"] -= hidden_core_ns;

    const Agg core_run = agg("core.run");
    const Agg run_traced = agg("core.run_traced");
    const Agg driver_run = agg("driver.run");
    const Agg finalize = agg("critpath.finalize");
    const Agg sweep = agg("critpath.sweep");
    const Agg store = agg("run_cache.store");
    // The prof timers ran for the ops' core runs, not the probes'.
    const double prof_ops = driver_run.work + run_traced.work;
    const PhaseTotals &ph = run.phases;
    const double timed_phases = ph.dispatch + ph.issue + ph.commit;

    return {
        {"func.trace_build_ms", agg("func.trace_build").meanNs() * 1e-6},
        {"core.run_ns_per_op", ratio(core_run.ns, core_run.work)},
        {"core.minor_faults_per_run", ratio(core_run.faults, core_run.calls)},
        {"core.sys_ms_per_run", ratio(core_run.sys_ns, core_run.calls) * 1e-6},
        {"core.dispatch_ns", ratio(ph.dispatch, prof_ops)},
        {"core.issue_ns", ratio(ph.issue, prof_ops)},
        {"core.wakeup_ns", ratio(ph.wakeup, prof_ops)},
        {"core.select_ns", ratio(ph.select, prof_ops)},
        {"core.commit_ns", ratio(ph.commit, prof_ops)},
        {"core.unattributed_share", ratio(ph.run - timed_phases, ph.run)},
        {"core.sim_cycles", static_cast<double>(run.population_counts.first)},
        {"core.committed_ops",
         static_cast<double>(run.population_counts.second)},
        {"core.self_share", ratio(self_ns["core"], op_ns)},
        {"driver.open_ms", agg("driver.open").meanNs() * 1e-6},
        {"driver.hit_us", agg("driver.hit").meanNs() * 1e-3},
        {"driver.self_share", ratio(self_ns["driver"], op_ns)},
        {"run_cache.load_us", agg("run_cache.load").meanNs() * 1e-3},
        {"run_cache.miss_us", agg("run_cache.miss").meanNs() * 1e-3},
        {"run_cache.store_us", store.meanNs() * 1e-3},
        {"run_cache.entry_bytes", ratio(store.work, store.calls)},
        {"trace.events_per_op", ratio(run_traced.aux, run_traced.work)},
        {"trace.overhead_ratio",
         ratio(ratio(traced_runs.ns, traced_runs.work),
               ratio(plain_runs.ns, plain_runs.work))},
        {"critpath.build_ms",
         ratio(run_traced.ns + finalize.ns, run_traced.calls) * 1e-6},
        {"critpath.edges_per_op", ratio(finalize.aux, finalize.work)},
        {"critpath.plan_ms", agg("critpath.plan").meanNs() * 1e-6},
        {"critpath.base_retime_ms",
         agg("critpath.base_retime").meanNs() * 1e-6},
        {"critpath.sweep_ms", sweep.meanNs() * 1e-6},
        {"critpath.sweep_ns_per_edge", ratio(sweep.ns, sweep.aux)},
        {"critpath.minor_faults_per_op",
         ratio(agg("op.whatif").faults, agg("op.whatif").calls)},
        {"critpath.self_share", ratio(self_ns["critpath"], op_ns)},
        {"profile.overhead_ratio",
         ratio(meanMs(run.traced.ops), meanMs(run.reference.ops))},
        {"bench.span_coverage", 1.0 - ratio(self_ns["bench"], op_ns)},
    };
}

std::string
resultJson(bool correct, u64 attempted, u64 failed,
           const std::vector<MetricDef> &defs, const MetricValues &values)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &d : defs) {
        auto it = values.find(d.name);
        if (it == values.end())
            throw std::logic_error(std::string("metric not computed: ") +
                                   d.name);
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", it->second);
        out += first ? "" : ", ";
        out += "\"" + std::string(d.name) + "\": {\"value\": " + num +
               ", \"unit\": \"" + d.unit + "\"}";
        first = false;
    }
    out += "}}";
    return out;
}

} // namespace perfbench
