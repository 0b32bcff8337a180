/**
 * @file
 * bench_all: run the figure/table harnesses (bench/harnesses.h) in one
 * process over one SimDriver. stdout carries only the harnesses'
 * tables, which are deterministic; the summary of host timings
 * (per-harness and total wall-clock) goes to stderr. The shared
 * driver's in-memory memo simulates every (workload x config) point
 * once per process — in particular the per-suite threshold tuning
 * sweep that most results harnesses read — and each harness fans its
 * own matrix across the thread pool.
 *
 *   bench_all [fast] [--cache-dir DIR] [--no-cache] [--trace-dir DIR]
 *             [NAME...]
 *
 * NAMEs select harnesses (all by default); they run in kHarnesses
 * order whatever the order given, and an unknown name is a usage
 * error. "fast" runs every harness's reduced sweep. The disk cache
 * (REDSOC_CACHE_DIR) carries points across processes; its directory
 * defaults to ".redsoc-cache" in the current directory (created on
 * demand), and --no-cache runs without one. --trace-dir exports
 * REDSOC_TRACE_DIR so the driver drops one pipeline trace per
 * simulated point into DIR (note: the run cache dedups points, so only
 * cache misses simulate and trace; combine with --no-cache for full
 * coverage).
 *
 * SIGINT/SIGTERM stop the harness in flight at its next simulation
 * poll (the point in flight is never cached), skip the rest, and exit
 * 130.
 */

#include <cstdio>
#include <cstdlib>

#include <chrono>
#include <set>
#include <string>

#include "common/shutdown.h"
#include "common/table.h"
#include "harnesses.h"

using namespace redsoc;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [fast] [--cache-dir DIR] [--no-cache] "
                 "[--trace-dir DIR] [NAME...]\n",
                 argv0);
    return 2;
}

bool
isHarness(const std::string &name)
{
    for (const bench::Harness &h : bench::kHarnesses)
        if (name == h.name)
            return true;
    return false;
}

// Times the harnesses on the host. redsoc-lint: allow(nondet-api)
using HostClock = std::chrono::steady_clock;

double
seconds(HostClock::time_point from, HostClock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

} // namespace

int
main(int argc, char **argv)
{
    bool fast = false;
    bool use_cache = true;
    std::string cache_dir = ".redsoc-cache";
    std::set<std::string> selected;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "fast") {
            fast = true;
        } else if (arg == "--cache-dir" && i + 1 < argc) {
            cache_dir = argv[++i];
        } else if (arg == "--no-cache") {
            use_cache = false;
        } else if (arg == "--trace-dir" && i + 1 < argc) {
            ::setenv("REDSOC_TRACE_DIR", argv[++i], 1);
        } else if (isHarness(arg)) {
            selected.insert(arg);
        } else if (!arg.starts_with("--")) {
            std::fprintf(stderr, "unknown harness '%s'\n", arg.c_str());
            return usage(argv[0]);
        } else {
            return usage(argv[0]);
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
    } else {
        ::unsetenv("REDSOC_CACHE_DIR");
    }
    SimDriver driver;

    Table summary({"harness", "seconds"});
    size_t ran = 0;
    bool interrupted = false;
    const auto t0 = HostClock::now();
    for (const bench::Harness &h : bench::kHarnesses) {
        if (!selected.empty() && !selected.contains(h.name))
            continue;
        if (shutdownRequested()) {
            interrupted = true;
            break;
        }
        std::printf("$ bench_all%s %s\n", fast ? " fast" : "", h.name);
        const auto h0 = HostClock::now();
        try {
            h.run(driver, fast);
        } catch (const ShutdownInterrupt &) {
            interrupted = true;
            break;
        }
        const double secs = seconds(h0, HostClock::now());
        ++ran;
        summary.addRow({h.name, Table::num(secs, 2)});
        std::printf("\n");
    }
    const double total = seconds(t0, HostClock::now());

    std::fprintf(stderr, "=== bench_all summary ===\n%s\n",
                 summary.render().c_str());
    std::fprintf(stderr, "total wall-clock: %.2f s over %zu harnesses%s\n",
                 total, ran, fast ? " (fast mode)" : "");
    if (interrupted) {
        std::fprintf(stderr, "[bench_all] interrupted; remaining "
                             "harnesses skipped\n");
        return 130;
    }
    return 0;
}
