/**
 * @file
 * Analytic what-if accuracy: the critpath re-timer against the
 * simulator (DESIGN.md §13). For each workload, one traced reference
 * run (big-core ReDSOC at CI precision 4, so the CI 1..4 ladder
 * refines a real sub-cycle schedule) builds the dependence graph
 * through a DepGraphBuilder. The base-model replay of that graph must
 * reproduce the run's cycles and ops exactly (fatal otherwise, the
 * subsystem's contract). One batched retimeAll() pass then answers 64
 * machine models (CI precision x EGPW x FU scaling, plus the
 * ideal-recycle and no-recycle bounds), and the same 64 points are
 * re-simulated as ordinary driver points.
 *
 * The table gives each model's analytic and simulated cycles. The two
 * bounds have no exact simulator knob; their simulated column is the
 * nearest real machine (max-precision ReDSOC and the conventional
 * baseline), flagged as a proxy and left out of the tally. The
 * slack threshold is held at 3/4 of a cycle across CI precisions, so
 * each re-simulated point changes one knob at a time.
 */

#include "bench_common.h"
#include "critpath/dep_graph_builder.h"
#include "critpath/retimer.h"
#include "harnesses.h"
#include "sim/thread_pool.h"

using namespace redsoc;

namespace {

/** CI precision of the traced reference run (tpc = 16). */
constexpr unsigned kTracedCiBits = 4;

/** Slack threshold at 3/4 of a cycle for a given CI precision, the
 *  same fraction as the repo default (6 ticks at precision 3). */
Tick
thresholdForBits(unsigned bits)
{
    const Tick tpc = Tick{1} << bits;
    const Tick t = tpc * 3 / 4;
    return t == 0 ? 1 : t;
}

CoreConfig
tracedConfig()
{
    CoreConfig cfg = bigCore();
    cfg.mode = SchedMode::ReDSOC;
    cfg.ci_precision_bits = kTracedCiBits;
    cfg.slack_threshold_ticks = thresholdForBits(kTracedCiBits);
    return cfg;
}

/** One sweep point: a what-if model plus the CoreConfig a simulator
 *  sweep would run for the same question. */
struct SweepPoint
{
    WhatIfModel model;
    CoreConfig sim_cfg;
    /** False when the model has no exact simulator knob (bounds);
     *  sim_cfg is then a labelled proxy and the cycle delta is not
     *  comparable. */
    bool representable = true;
};

void
scaleUnits(CoreConfig &cfg, double scale)
{
    auto apply = [scale](unsigned &units) {
        const double scaled = units * scale;
        units = scaled < 1.0 ? 1u : static_cast<unsigned>(scaled);
    };
    apply(cfg.alu_units);
    apply(cfg.simd_units);
    apply(cfg.fp_units);
    apply(cfg.mem_ports);
}

std::vector<SweepPoint>
buildSweep()
{
    std::vector<SweepPoint> sweep;
    auto whatIf = [](const std::string &name) {
        WhatIfModel m;
        m.name = name;
        m.exact_replay = false;
        return m;
    };
    auto fuTag = [](double fu) {
        return fu == 0.25   ? std::string("_fuquarter")
               : fu == 0.5  ? std::string("_fuhalf")
               : fu == 2.0  ? std::string("_fu2")
               : fu == 4.0  ? std::string("_fu4")
               : fu == 8.0  ? std::string("_fu8")
               : fu == 16.0 ? std::string("_fu16")
                            : std::string();
    };
    // 4 CI x 2 EGPW x 7 FU = 56 grid points plus 2 bounds x 4 FU = 64
    // total, the retimeAll lane cap (the pass pads to 64 lanes either
    // way, so the extra points are marginally free).
    constexpr double kFuLadder[] = {0.25, 0.5, 1.0, 2.0,
                                    4.0,  8.0, 16.0};
    constexpr double kFuBoundsLadder[] = {0.5, 1.0, 2.0, 4.0};
    // The CI x EGPW x FU grid: every combination is an exact
    // CoreConfig, so analytic and simulated cycles are comparable.
    for (unsigned ci = 1; ci <= kTracedCiBits; ++ci) {
        for (bool egpw : {true, false}) {
            for (double fu : kFuLadder) {
                SweepPoint p;
                p.model = whatIf("ci" + std::to_string(ci) +
                                 (egpw ? "" : "_noegpw") + fuTag(fu));
                p.model.ci_bits = ci;
                p.model.egpw = egpw;
                p.model.fu_scale = fu;
                p.sim_cfg = tracedConfig();
                p.sim_cfg.ci_precision_bits = ci;
                p.sim_cfg.slack_threshold_ticks = thresholdForBits(ci);
                p.sim_cfg.egpw = egpw;
                scaleUnits(p.sim_cfg, fu);
                sweep.push_back(std::move(p));
            }
        }
    }
    // Bounds: no exact simulator knob; the re-simulated point is the
    // nearest real machine (flagged non-representable). Both bounds
    // get a coarser FU ladder of their own so the total lands on the
    // 64-model lane cap.
    for (double fu : kFuBoundsLadder) {
        SweepPoint p;
        p.model = whatIf("ideal_recycle" + fuTag(fu));
        p.model.zero_latency_recycle = true;
        p.model.fu_scale = fu;
        p.sim_cfg = tracedConfig();
        p.sim_cfg.ci_precision_bits = kMaxCiPrecisionBits;
        p.sim_cfg.slack_threshold_ticks =
            thresholdForBits(kMaxCiPrecisionBits);
        scaleUnits(p.sim_cfg, fu);
        p.representable = false;
        sweep.push_back(std::move(p));
    }
    for (double fu : kFuBoundsLadder) {
        SweepPoint p;
        p.model = whatIf("no_recycle" + fuTag(fu));
        p.model.no_recycle = true;
        p.model.fu_scale = fu;
        p.sim_cfg = tracedConfig();
        p.sim_cfg.mode = SchedMode::Baseline;
        scaleUnits(p.sim_cfg, fu);
        p.representable = false;
        sweep.push_back(std::move(p));
    }
    return sweep;
}

/** What one workload's traced run and graph answer. */
struct TracedAnswers
{
    u64 ops = 0;
    u64 edges = 0;
    Cycle traced_cycles = 0;
    std::vector<Cycle> analytic; ///< per sweep point, in sweep order
};

/** Trace @p workload into a graph, check the base replay is exact,
 *  and re-time every model in one batched pass. */
TracedAnswers
traceAndRetime(SimDriver &driver, const std::string &workload,
               const std::vector<WhatIfModel> &models)
{
    const CoreConfig cfg = tracedConfig();
    DepGraphBuilder builder(driver.trace(workload), cfg);
    const CoreStats stats = driver.runTraced(workload, cfg, builder);
    const DepGraph graph = builder.finalize();
    Retimer retimer(graph);
    const RetimeResult base = retimer.retime(WhatIfModel{});
    fatal_if(base.cycles != stats.cycles || base.ops != stats.committed,
             "critpath_whatif: base replay of ", workload, " gives ",
             base.cycles, " cycles / ", base.ops, " ops, the simulator ",
             stats.cycles, " / ", stats.committed);

    TracedAnswers a;
    a.ops = graph.num_ops;
    a.edges = graph.numEdges();
    a.traced_cycles = stats.cycles;
    for (const RetimeResult &r : retimer.retimeAll(models))
        a.analytic.push_back(r.cycles);
    return a;
}

} // namespace

void
bench::critpath_whatif(SimDriver &driver, bool fast)
{
    std::printf("=== critpath what-if: analytic re-timing vs "
                "re-simulation ===\n(big ReDSOC traced at CI precision "
                "%u; proxy = a bound re-simulated on the nearest real "
                "machine)\n\n",
                kTracedCiBits);
    const std::vector<std::string> workloads =
        fast ? std::vector<std::string>{"crc", "act"}
             : std::vector<std::string>{"crc", "gsm", "act", "conv"};
    const std::vector<SweepPoint> sweep = buildSweep();
    std::vector<WhatIfModel> models;
    for (const SweepPoint &sp : sweep)
        models.push_back(sp.model);

    // The traced runs (graph build and retime included) go on the pool
    // first, as the longest tasks; prefetch then queues every
    // re-simulated point behind them, and its wait drains both.
    std::vector<TracedAnswers> traced(workloads.size());
    ThreadPool &pool = globalSimPool();
    for (size_t w = 0; w < workloads.size(); ++w)
        pool.submit([&driver, &traced, &workloads, &models, w] {
            traced[w] = traceAndRetime(driver, workloads[w], models);
        });
    std::vector<SimDriver::Point> resim;
    for (const std::string &workload : workloads)
        for (const SweepPoint &sp : sweep)
            resim.push_back({workload, sp.sim_cfg});
    driver.prefetch(resim);

    Table rows({"workload", "model", "analytic", "simulated", "delta%",
                "proxy"});
    unsigned exact = 0, pessimistic = 0, optimistic = 0;
    double max_delta = 0.0, min_delta = 0.0;
    std::string max_at = "-", min_at = "-";
    for (size_t w = 0; w < workloads.size(); ++w) {
        for (size_t m = 0; m < sweep.size(); ++m) {
            const Cycle analytic = traced[w].analytic[m];
            const Cycle simulated =
                driver.run(workloads[w], sweep[m].sim_cfg).cycles;
            const double delta =
                simulated == 0 ? 0.0
                               : 100.0 *
                                     (asDouble(analytic) -
                                      asDouble(simulated)) /
                                     asDouble(simulated);
            rows.addRow({workloads[w], sweep[m].model.name,
                         std::to_string(analytic),
                         std::to_string(simulated), Table::num(delta, 2),
                         sweep[m].representable ? "no" : "yes"});
            if (!sweep[m].representable)
                continue;
            const std::string at = workloads[w] + " " + sweep[m].model.name;
            if (analytic == simulated)
                ++exact;
            else if (analytic > simulated)
                ++pessimistic;
            else
                ++optimistic;
            if (delta > max_delta) {
                max_delta = delta;
                max_at = at;
            }
            if (delta < min_delta) {
                min_delta = delta;
                min_at = at;
            }
        }
    }
    std::printf("%s\n", rows.render().c_str());

    Table graphs({"workload", "ops", "edges", "traced-cycles"});
    for (size_t w = 0; w < workloads.size(); ++w)
        graphs.addRow({workloads[w], std::to_string(traced[w].ops),
                       std::to_string(traced[w].edges),
                       std::to_string(traced[w].traced_cycles)});
    std::printf("%s\n", graphs.render().c_str());

    std::printf("non-proxy rows: %u exact, %u pessimistic, %u optimistic "
                "of %u; extremes %+.2f%% (%s), %+.2f%% (%s)\n",
                exact, pessimistic, optimistic,
                exact + pessimistic + optimistic, max_delta,
                max_at.c_str(), min_delta, min_at.c_str());
}
