/**
 * @file
 * bench_all: run every figure/table harness in sequence and report
 * per-harness and total wall-clock, plus the throughput totals of the
 * shared run cache. The harnesses are independent processes; pointing
 * them at one REDSOC_CACHE_DIR dedups the heavily overlapping
 * (workload x config) matrices across them — in particular the
 * per-suite threshold tuning sweep that every results harness re-runs
 * — while each process still fans its own matrix across the thread
 * pool.
 *
 *   bench_all [fast] [--bench-dir DIR] [--cache-dir DIR] [--no-cache]
 *             [--profile] [--trace-dir DIR] [--sched-baseline FILE]
 *             [--critpath]
 *
 * "fast" is forwarded to every harness. The cache directory defaults
 * to ".redsoc-cache" in the current directory (created on demand);
 * --no-cache leaves REDSOC_CACHE_DIR untouched. --profile exports
 * REDSOC_PROFILE=1 so every harness (and the bench_sched kernel
 * microbenchmark, which always runs last) prints per-phase host
 * timings. --trace-dir exports REDSOC_TRACE_DIR so every harness
 * drops one pipeline trace per simulated point into DIR (note: the
 * run cache dedups points, so only cache misses simulate and trace;
 * combine with --no-cache for full coverage). --sched-baseline FILE
 * is forwarded to bench_sched as --baseline FILE, so the closing
 * kernel microbenchmark also diffs against the committed
 * BENCH_sched.json perf baseline (see tools/bench_sched.cc for the
 * calibrated-wall-clock contract); a diff failure fails bench_all.
 * --critpath appends the analytic what-if engine benchmark
 * (tools/bench_critpath) to the combined report, forwarding "fast";
 * its exactness or speedup gate failing fails bench_all.
 *
 * SIGINT/SIGTERM stops launching new harnesses after the current one
 * exits (each harness installs its own graceful shutdown, so the
 * in-flight one drains its cache writes atomically) and exits 130.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unistd.h>

#include <chrono>
#include <string>
#include <vector>

#include "common/shutdown.h"
#include "common/table.h"
#include "sim/run_cache.h"

using namespace redsoc;

namespace {

/** The harness binaries, in presentation order (see bench/). */
const std::vector<std::string> kHarnesses = {
    "fig01_alu_times",     "fig02_ks_adder",
    "tab_slack_lut",       "tab1_configs",
    "tab2_kernels",        "fig10_op_mix",
    "fig11_seq_length",    "fig12_tag_mispred",
    "fig13_speedup",       "fig14_fu_stalls",
    "fig15_comparison",    "tab_width_predictor",
    "sweep_slack_precision", "sweep_slack_threshold",
    "sweep_pvt",           "ablation_mechanisms",
    "power_savings",
};

std::string
exeDir()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return ".";
    buf[n] = '\0';
    std::string path(buf);
    const size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? "." : path.substr(0, slash);
}

std::string
defaultBenchDir()
{
    // The build tree puts bench_all in tools/ and the harnesses in
    // bench/, siblings under the build root.
    return exeDir() + "/../bench";
}

double
seconds(std::chrono::steady_clock::time_point from,
        std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

} // namespace

int
main(int argc, char **argv)
{
    bool fast = false;
    bool use_cache = true;
    bool critpath = false;
    std::string bench_dir = defaultBenchDir();
    std::string cache_dir = ".redsoc-cache";
    std::string sched_baseline;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "fast") {
            fast = true;
        } else if (arg == "--bench-dir" && i + 1 < argc) {
            bench_dir = argv[++i];
        } else if (arg == "--cache-dir" && i + 1 < argc) {
            cache_dir = argv[++i];
        } else if (arg == "--no-cache") {
            use_cache = false;
        } else if (arg == "--profile") {
            ::setenv("REDSOC_PROFILE", "1", 1);
        } else if (arg == "--trace-dir" && i + 1 < argc) {
            ::setenv("REDSOC_TRACE_DIR", argv[++i], 1);
        } else if (arg == "--sched-baseline" && i + 1 < argc) {
            sched_baseline = argv[++i];
        } else if (arg == "--critpath") {
            critpath = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [fast] [--bench-dir DIR] "
                         "[--cache-dir DIR] [--no-cache] [--profile] "
                         "[--trace-dir DIR] [--sched-baseline FILE] "
                         "[--critpath]\n",
                         argv[0]);
            return 2;
        }
    }

    installGracefulShutdown();

    if (use_cache) {
        // Don't override an explicit environment choice unless the
        // user also passed --cache-dir.
        const char *env = std::getenv("REDSOC_CACHE_DIR");
        if (env == nullptr || *env == '\0' ||
            cache_dir != ".redsoc-cache") {
            ::setenv("REDSOC_CACHE_DIR", cache_dir.c_str(), 1);
        } else {
            cache_dir = env;
        }
        std::fprintf(stderr, "[bench_all] run cache: %s\n",
                     cache_dir.c_str());
    }

    Table summary({"harness", "status", "seconds"});
    int failures = 0;
    bool interrupted = false;
    const auto t0 = std::chrono::steady_clock::now();
    for (const std::string &name : kHarnesses) {
        if (shutdownRequested()) {
            interrupted = true;
            break;
        }
        std::string cmd = "\"" + bench_dir + "/" + name + "\"";
        if (fast)
            cmd += " fast";
        std::printf("$ %s\n", cmd.c_str());
        std::fflush(stdout);
        const auto h0 = std::chrono::steady_clock::now();
        const int rc = std::system(cmd.c_str());
        const double secs = seconds(h0, std::chrono::steady_clock::now());
        if (rc != 0)
            ++failures;
        summary.addRow({name, rc == 0 ? "ok" : "FAIL",
                        Table::num(secs, 2)});
        std::printf("\n");
    }

    // The scheduler-kernel microbenchmark is a tool, not a figure
    // harness: it lives next to bench_all itself and always runs so
    // the simulator-throughput trend is part of every bench report.
    if (!interrupted) {
        std::string cmd = "\"" + exeDir() + "/bench_sched\"";
        if (fast)
            cmd += " fast";
        if (!sched_baseline.empty())
            cmd += " --baseline \"" + sched_baseline + "\"";
        cmd += " > /dev/null"; // JSON feed; the table goes to stderr
        std::printf("$ %s\n", cmd.c_str());
        std::fflush(stdout);
        const auto h0 = std::chrono::steady_clock::now();
        const int rc = std::system(cmd.c_str());
        const double secs = seconds(h0, std::chrono::steady_clock::now());
        if (rc != 0)
            ++failures;
        summary.addRow({"bench_sched", rc == 0 ? "ok" : "FAIL",
                        Table::num(secs, 2)});
        std::printf("\n");
    }

    // --critpath: the analytic what-if engine benchmark. Like
    // bench_sched it is a tool, not a figure harness; its JSON feed
    // goes to stdout on its own, so discard it here and keep the
    // stderr tables.
    if (critpath && !interrupted) {
        std::string cmd = "\"" + exeDir() + "/bench_critpath\"";
        if (fast)
            cmd += " fast";
        cmd += " > /dev/null";
        std::printf("$ %s\n", cmd.c_str());
        std::fflush(stdout);
        const auto h0 = std::chrono::steady_clock::now();
        const int rc = std::system(cmd.c_str());
        const double secs = seconds(h0, std::chrono::steady_clock::now());
        if (rc != 0)
            ++failures;
        summary.addRow({"bench_critpath", rc == 0 ? "ok" : "FAIL",
                        Table::num(secs, 2)});
        std::printf("\n");
    }
    const double total = seconds(t0, std::chrono::steady_clock::now());

    std::printf("=== bench_all summary ===\n%s\n",
                summary.render().c_str());
    std::printf("total wall-clock: %.2f s over %zu harnesses%s\n",
                total, kHarnesses.size(), fast ? " (fast mode)" : "");

    if (use_cache) {
        const RunCache::Totals totals = RunCache::scan(cache_dir);
        if (totals.runs > 0) {
            std::printf("run cache: %llu distinct points, %llu "
                        "committed ops, %.2f core-seconds simulated "
                        "(%.2f simulated MIPS)\n",
                        static_cast<unsigned long long>(totals.runs),
                        static_cast<unsigned long long>(
                            totals.committed_ops),
                        totals.sim_seconds,
                        totals.sim_seconds > 0.0
                            ? asDouble(totals.committed_ops) /
                                  totals.sim_seconds / 1e6
                            : 0.0);
        }
    }
    if (interrupted) {
        std::fprintf(stderr, "[bench_all] interrupted; remaining "
                             "harnesses skipped\n");
        return 130;
    }
    return failures == 0 ? 0 : 1;
}
