/**
 * @file
 * bench_sched: scheduler-kernel microbenchmark. Runs a workload x
 * mode grid under both simulation kernels (legacy full-scan vs
 * event-driven) on cold, single-threaded, uncached OooCore runs.
 *
 *   bench_sched [fast] [--reps N]
 *
 * stdout carries only machine-independent answers: a JSON array with
 * one object per grid point (cycles, committed ops, commit checksum).
 * The committed BENCH_sched.json is the full-mode output, and the
 * bench_sched_answers ctest pins it byte for byte.
 *
 * stderr carries the host timings: simulator throughput (kilo-
 * cycles/s and simulated MIPS) per point and kernel, and the
 * event/scan speedup. Each point runs --reps times (default 3) and
 * the table reports the *minimum* wall-clock, the least contaminated
 * estimate on a noisy host; every repetition must reproduce the
 * first one's answer. When REDSOC_PROFILE is set the per-phase host
 * profile follows the table.
 */

#include <cmath>
#include <cstdio>

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "cli.h"
#include "common/logging.h"
#include "common/table.h"
#include "core/ooo_core.h"
#include "sim/profile.h"
#include "workloads/registry.h"

using namespace redsoc;

namespace {

struct GridPoint
{
    std::string workload;
    std::string mode;
    std::string kernel;
    Cycle cycles = 0;
    u64 committed = 0;
    u64 checksum = 0;
    double sim_seconds = 0.0; ///< host time: stderr only

    std::string key() const
    {
        return workload + "/" + mode + "/" + kernel;
    }
    double kcps() const
    {
        return sim_seconds <= 0.0 ? 0.0
                                  : static_cast<double>(cycles) /
                                        sim_seconds / 1e3;
    }
    double mips() const
    {
        return sim_seconds <= 0.0 ? 0.0
                                  : static_cast<double>(committed) /
                                        sim_seconds / 1e6;
    }
};

CoreConfig
gridConfig(SchedMode mode, SchedKernel kernel)
{
    CoreConfig cfg = bigCore();
    cfg.mode = mode;
    cfg.sched_kernel = kernel;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    bool fast = false;
    unsigned reps = 3;
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
    constexpr SchedMode kModes[] = {SchedMode::Baseline, SchedMode::ReDSOC,
                                    SchedMode::MOS};
    constexpr SchedKernel kKernels[] = {SchedKernel::Scan,
                                        SchedKernel::Event};

    std::vector<GridPoint> points;
    Table table({"workload", "mode", "scan kc/s", "event kc/s",
                 "scan MIPS", "event MIPS", "speedup"});
    double log_speedup_sum = 0.0;
    unsigned speedup_count = 0;

    for (const std::string &workload : workloads) {
        // One trace per workload, shared by every grid point; runs
        // themselves are cold (fresh core, no run cache, one thread).
        const Trace trace = traceWorkload(workload);
        for (const SchedMode mode : kModes) {
            double kcps[2] = {0.0, 0.0};
            double mips[2] = {0.0, 0.0};
            for (unsigned k = 0; k < std::size(kKernels); ++k) {
                GridPoint p;
                p.workload = workload;
                p.mode = enumText(mode);
                p.kernel = enumText(kKernels[k]);
                // Best-of-N: keep the minimum wall-clock (least host
                // contamination) and insist the architectural result
                // is bit-identical on every repetition.
                for (unsigned r = 0; r < reps; ++r) {
                    OooCore core(gridConfig(mode, kKernels[k]));
                    const CoreStats stats = core.run(trace);
                    if (r == 0) {
                        p.cycles = stats.cycles;
                        p.committed = stats.committed;
                        p.checksum = stats.commit_checksum;
                        p.sim_seconds = stats.sim_seconds;
                    } else {
                        fatal_if(stats.cycles != p.cycles ||
                                     stats.committed != p.committed ||
                                     stats.commit_checksum != p.checksum,
                                 "bench_sched: nondeterministic rerun "
                                 "of ", p.key());
                        p.sim_seconds =
                            std::min(p.sim_seconds, stats.sim_seconds);
                    }
                }
                kcps[k] = p.kcps();
                mips[k] = p.mips();
                points.push_back(std::move(p));
            }
            const double speedup =
                kcps[0] > 0.0 ? kcps[1] / kcps[0] : 0.0;
            if (speedup > 0.0) {
                log_speedup_sum += std::log(speedup);
                ++speedup_count;
            }
            table.addRow({workload, enumText(mode), Table::num(kcps[0], 1),
                          Table::num(kcps[1], 1), Table::num(mips[0], 3),
                          Table::num(mips[1], 3),
                          Table::num(speedup, 2)});
        }
    }

    const double geomean =
        speedup_count > 0
            ? std::exp(log_speedup_sum / speedup_count)
            : 0.0;
    std::fprintf(stderr, "=== bench_sched (event vs scan kernel) ===\n%s\n",
                 table.render().c_str());
    std::fprintf(stderr, "geomean event/scan speedup: %.2fx over %u "
                         "points (best of %u rep%s%s)\n",
                 geomean, speedup_count, reps, reps == 1 ? "" : "s",
                 fast ? ", fast mode" : "");
    prof::report(std::cerr);

    std::printf("[\n");
    for (size_t i = 0; i < points.size(); ++i) {
        const GridPoint &p = points[i];
        std::printf("  {\"workload\": \"%s\", \"mode\": \"%s\", "
                    "\"kernel\": \"%s\", \"cycles\": %llu, "
                    "\"committed\": %llu, \"checksum\": %llu}%s\n",
                    p.workload.c_str(), p.mode.c_str(), p.kernel.c_str(),
                    static_cast<unsigned long long>(p.cycles),
                    static_cast<unsigned long long>(p.committed),
                    static_cast<unsigned long long>(p.checksum),
                    i + 1 < points.size() ? "," : "");
    }
    std::printf("]\n");
    return 0;
}
