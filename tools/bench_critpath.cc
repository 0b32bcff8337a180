/**
 * @file
 * bench_critpath: analytic what-if engine benchmark. For each
 * workload, one traced reference run (big-core ReDSOC at CI precision
 * 4, so the CI 1..4 what-if ladder refines a real sub-cycle schedule)
 * builds the critpath dependence graph through the streaming
 * DepGraphBuilder sink; the harness then
 *
 *   1. checks exactness: the base-model replay of the graph must
 *      reproduce the simulator's committed cycle count bit-exactly
 *      (exit 1 on divergence — this is the correctness contract of
 *      the whole subsystem);
 *   2. answers an analytic what-if sweep of 64 machine models (CI
 *      precision x EGPW x FU scaling, plus the ideal-recycle and
 *      no-recycle bounds) as one batched Retimer::retimeAll() pass
 *      over the frozen graph; and
 *   3. re-simulates the same sweep points as cold, single-threaded
 *      OooCore runs of the mapped CoreConfig, for per-model analytic
 *      vs simulated cycle counts.
 *
 *   bench_critpath [fast] [--reps N]
 *
 * stdout carries only machine-independent answers: one JSON object
 * per line, per-model cycle counts plus a per-workload summary (ops,
 * edges, traced cycles). The committed BENCH_critpath.json is the
 * full-mode output, and the bench_critpath_answers ctest pins it byte
 * for byte.
 *
 * stderr carries the tables, with the host timings: each
 * re-simulation's milliseconds, the sweep's milliseconds (best of
 * --reps, default 5), and the re-simulation / sweep wall-clock ratio.
 *
 * Methodology notes:
 *  - The analytic sweep is timed as best-of---reps over the batched
 *    all-models pass; per-model cycle results must be bit-identical
 *    across repetitions (and test_critpath cross-checks the batched
 *    pass against per-model retime() calls).
 *  - Graph construction is *not* part of the timed sweep: the graph
 *    is a per-trace artifact built once while tracing.
 *  - Re-simulated points run the traced config's (default) event
 *    kernel — the simulator's fastest path, not a strawman.
 *  - The slack threshold is held at the same cycle fraction (3/4)
 *    across CI precisions so re-simulated points change one knob at
 *    a time.
 *  - The ideal-recycle and no-recycle bounds have no exact simulator
 *    equivalent; their re-simulation proxies (max-precision ReDSOC
 *    and the conventional baseline) are flagged in the JSON and
 *    excluded from the cycle-delta table.
 *
 * REDSOC_CRITPATH_PATH=1 adds each model's critical-path composition
 * to stderr.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "cli.h"
#include "common/logging.h"
#include "common/table.h"
#include "core/ooo_core.h"
#include "critpath/dep_graph_builder.h"
#include "critpath/retimer.h"
#include "workloads/registry.h"

using namespace redsoc;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

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

struct ModelResult
{
    std::string model;
    Cycle analytic_cycles = 0;
    Cycle sim_cycles = 0;
    double sim_seconds = 0.0; ///< host time: stderr only
    bool representable = true;
};

struct WorkloadResult
{
    std::string workload;
    u64 ops = 0;
    u64 edges = 0;
    Cycle traced_cycles = 0;
    double sweep_seconds = 0.0; ///< host time: stderr only
    double resim_seconds = 0.0; ///< host time: stderr only
    std::vector<ModelResult> models;

    double speedup() const
    {
        return sweep_seconds <= 0.0 ? 0.0
                                    : resim_seconds / sweep_seconds;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    bool fast = false;
    unsigned reps = 5;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "fast") {
            fast = true;
        } else if (arg == "--reps" && i + 1 < argc) {
            reps = std::max(1u, cli::numArg<unsigned>("--reps", argv[++i]));
        } else {
            std::fprintf(stderr, "usage: %s [fast] [--reps N]\n", argv[0]);
            return 2;
        }
    }

    const std::vector<std::string> workloads =
        fast ? std::vector<std::string>{"crc", "act"}
             : std::vector<std::string>{"crc", "gsm", "act", "conv"};
    const std::vector<SweepPoint> sweep = buildSweep();
    const CoreConfig traced_cfg = tracedConfig();

    std::vector<WorkloadResult> results;

    for (const std::string &workload : workloads) {
        WorkloadResult wr;
        wr.workload = workload;
        const Trace trace = traceWorkload(workload);

        // Traced reference run: the core reports straight to the
        // graph builder.
        DepGraphBuilder builder(trace, traced_cfg);
        OooCore core(traced_cfg);
        core.setRecorder(&builder);
        const CoreStats stats = core.run(trace);
        const DepGraph graph = builder.finalize();
        wr.ops = graph.num_ops;
        wr.edges = graph.numEdges();
        wr.traced_cycles = stats.cycles;

        Retimer retimer(graph);

        // The base-model replay must be bit-exact.
        const RetimeResult base = retimer.retime(WhatIfModel{});
        if (base.cycles != stats.cycles ||
            base.ops != stats.committed) {
            std::fprintf(
                stderr,
                "bench_critpath: EXACTNESS FAILURE on %s: base replay "
                "%llu cycles / %llu ops vs simulator %llu / %llu\n",
                workload.c_str(),
                static_cast<unsigned long long>(base.cycles),
                static_cast<unsigned long long>(base.ops),
                static_cast<unsigned long long>(stats.cycles),
                static_cast<unsigned long long>(stats.committed));
            return 1;
        }

        // Optional diagnostic: per-model critical-path composition.
        if (std::getenv("REDSOC_CRITPATH_PATH")) {
            std::array<u64, static_cast<size_t>(EdgeKind::NUM)> hist{};
            for (const Edge &e : graph.edges)
                ++hist[static_cast<size_t>(e.kind)];
            std::fprintf(stderr, "  [edges]");
            for (size_t k = 0; k < hist.size(); ++k)
                if (hist[k] != 0)
                    std::fprintf(stderr, " %s=%llu",
                                 edgeKindName(static_cast<EdgeKind>(k)),
                                 static_cast<unsigned long long>(hist[k]));
            u64 n_load = 0, n_store = 0, n_transp = 0;
            for (u32 i = 0; i < graph.num_ops; ++i) {
                n_load += (graph.flags[i] & kOpLoad) != 0;
                n_store += (graph.flags[i] & kOpStore) != 0;
                n_transp += (graph.flags[i] & kOpTransparent) != 0;
            }
            std::fprintf(stderr,
                         " | loads=%llu stores=%llu transparent=%llu "
                         "dropped_mem=%llu\n",
                         static_cast<unsigned long long>(n_load),
                         static_cast<unsigned long long>(n_store),
                         static_cast<unsigned long long>(n_transp),
                         static_cast<unsigned long long>(
                             graph.dropped_nonmonotone_mem));
            auto dumpPath = [&](const RetimeResult &rr) {
                std::fprintf(stderr, "  [path] %-14s %8llu cycles, len %llu:",
                             rr.model.c_str(),
                             static_cast<unsigned long long>(rr.cycles),
                             static_cast<unsigned long long>(rr.path_len));
                for (size_t k = 0; k < rr.path_kinds.size(); ++k)
                    if (rr.path_kinds[k] != 0)
                        std::fprintf(stderr, " %s=%llu",
                                     edgeKindName(static_cast<EdgeKind>(k)),
                                     static_cast<unsigned long long>(
                                         rr.path_kinds[k]));
                std::fprintf(stderr, "\n");
            };
            dumpPath(base);
            for (const SweepPoint &sp : sweep)
                dumpPath(retimer.retime(sp.model));
        }

        // Timed analytic sweep: one batched retimeAll() pass settles
        // all models at once; best of --reps, cycle results
        // bit-identical across repetitions (and cross-checked against
        // per-model retime() passes by test_critpath).
        std::vector<WhatIfModel> sweep_models;
        sweep_models.reserve(sweep.size());
        for (const SweepPoint &sp : sweep)
            sweep_models.push_back(sp.model);
        std::vector<Cycle> analytic(sweep.size(), 0);
        for (unsigned r = 0; r < reps; ++r) {
            const auto t0 = std::chrono::steady_clock::now();
            const std::vector<RetimeResult> batched =
                retimer.retimeAll(sweep_models);
            const double secs = secondsSince(t0);
            std::vector<Cycle> pass(sweep.size(), 0);
            for (size_t m = 0; m < sweep.size(); ++m)
                pass[m] = batched[m].cycles;
            if (r == 0) {
                analytic = pass;
                wr.sweep_seconds = secs;
            } else {
                fatal_if(pass != analytic,
                         "bench_critpath: nondeterministic analytic "
                         "sweep on ",
                         workload);
                wr.sweep_seconds = std::min(wr.sweep_seconds, secs);
            }
        }

        // Re-simulate the same sweep points: cold single-threaded
        // runs, the cost a configuration sweep actually pays.
        for (size_t m = 0; m < sweep.size(); ++m) {
            ModelResult mr;
            mr.model = sweep[m].model.name;
            mr.analytic_cycles = analytic[m];
            mr.representable = sweep[m].representable;
            const auto t0 = std::chrono::steady_clock::now();
            OooCore sim_core(sweep[m].sim_cfg);
            const CoreStats sim_stats = sim_core.run(trace);
            mr.sim_seconds = secondsSince(t0);
            mr.sim_cycles = sim_stats.cycles;
            wr.resim_seconds += mr.sim_seconds;
            wr.models.push_back(std::move(mr));
        }

        results.push_back(std::move(wr));
    }

    // Per-model cycle comparison (representable points only).
    Table detail({"workload", "model", "analytic", "simulated",
                  "delta%", "sim ms"});
    for (const WorkloadResult &wr : results) {
        for (const ModelResult &mr : wr.models) {
            if (!mr.representable)
                continue;
            const double delta =
                mr.sim_cycles == 0
                    ? 0.0
                    : 100.0 *
                          (static_cast<double>(mr.analytic_cycles) -
                           static_cast<double>(mr.sim_cycles)) /
                          static_cast<double>(mr.sim_cycles);
            detail.addRow({wr.workload, mr.model,
                           std::to_string(mr.analytic_cycles),
                           std::to_string(mr.sim_cycles),
                           Table::num(delta, 2),
                           Table::num(mr.sim_seconds * 1e3, 1)});
        }
    }
    std::fprintf(stderr,
                 "=== bench_critpath (analytic what-if vs "
                 "re-simulation) ===\n%s\n",
                 detail.render().c_str());

    Table summary({"workload", "ops", "edges", "sweep ms", "resim s",
                   "speedup"});
    double log_sum = 0.0;
    for (const WorkloadResult &wr : results) {
        summary.addRow({wr.workload, std::to_string(wr.ops),
                        std::to_string(wr.edges),
                        Table::num(wr.sweep_seconds * 1e3, 2),
                        Table::num(wr.resim_seconds, 3),
                        Table::num(wr.speedup(), 1)});
        log_sum += std::log(wr.speedup());
    }
    const double geomean =
        results.empty()
            ? 0.0
            : std::exp(log_sum / static_cast<double>(results.size()));
    std::fprintf(stderr, "%s\n", summary.render().c_str());
    std::fprintf(stderr,
                 "geomean sweep speedup: %.1fx over %zu workloads x "
                 "%zu models (best of %u rep%s%s)\n",
                 geomean, results.size(), sweep.size(), reps,
                 reps == 1 ? "" : "s", fast ? ", fast mode" : "");

    std::printf("[\n");
    bool first = true;
    for (const WorkloadResult &wr : results) {
        for (const ModelResult &mr : wr.models) {
            std::printf("%s  {\"workload\": \"%s\", \"model\": \"%s\", "
                        "\"analytic_cycles\": %llu, "
                        "\"sim_cycles\": %llu, "
                        "\"representable\": %s}",
                        first ? "" : ",\n", wr.workload.c_str(),
                        mr.model.c_str(),
                        static_cast<unsigned long long>(
                            mr.analytic_cycles),
                        static_cast<unsigned long long>(mr.sim_cycles),
                        mr.representable ? "true" : "false");
            first = false;
        }
        std::printf(",\n  {\"workload\": \"%s\", \"model\": "
                    "\"__summary__\", \"ops\": %llu, \"edges\": %llu, "
                    "\"traced_cycles\": %llu}",
                    wr.workload.c_str(),
                    static_cast<unsigned long long>(wr.ops),
                    static_cast<unsigned long long>(wr.edges),
                    static_cast<unsigned long long>(wr.traced_cycles));
    }
    std::printf("\n]\n");
    return 0;
}
