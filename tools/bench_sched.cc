/**
 * @file
 * bench_sched: scheduler-kernel microbenchmark. Runs a workload x
 * mode grid under both simulation kernels (legacy full-scan vs
 * event-driven) on cold, single-threaded, uncached OooCore runs and
 * reports simulator throughput (kilo-cycles/s and simulated MIPS)
 * plus the event/scan speedup per point.
 *
 *   bench_sched [fast] [--max-ops N] [--reps N] [--baseline FILE]
 *               [--tolerance PCT]
 *
 * Each grid point is run --reps times (default 3) and the *minimum*
 * wall-clock is reported: on a noisy host the minimum is the least
 * contaminated estimate of the kernel's true cost, and the
 * architectural results (cycles, committed ops, commit checksum) are
 * cross-checked for bit-identity across the repetitions.
 *
 * Human-readable table goes to stderr; a JSON array of every grid
 * point goes to stdout (for scripted regression tracking — the
 * committed BENCH_sched.json is this output).
 *
 * --baseline FILE re-reads a previous stdout capture and diffs the
 * current run against it:
 *   - architectural stats (cycles, committed, commit checksum) must
 *    match the baseline EXACTLY — they are machine-independent;
 *   - wall-clock is compared only *relatively*: a global calibration
 *     factor (the median of current/baseline sim_seconds over the
 *     shared points) absorbs the overall speed difference between
 *     hosts, and each point must then sit within --tolerance percent
 *     (default 15) of the calibrated baseline.
 * Exit status 1 on any architectural mismatch or out-of-tolerance
 * point, so CI can gate on it. When REDSOC_PROFILE is set the
 * per-phase host profile is appended to stderr.
 */

#include <cmath>
#include <cstdio>

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iostream>
#include <sstream>
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
    double sim_seconds = 0.0;

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

/**
 * Minimal field extraction for bench_sched's own JSON output (one
 * object per line, fixed key set written by this file). Not a general
 * JSON parser: good enough to round-trip the committed baseline
 * without growing a dependency.
 */
bool
jsonStr(const std::string &line, const char *field, std::string &out)
{
    const std::string pat = std::string("\"") + field + "\": \"";
    const size_t at = line.find(pat);
    if (at == std::string::npos)
        return false;
    const size_t start = at + pat.size();
    const size_t end = line.find('"', start);
    if (end == std::string::npos)
        return false;
    out = line.substr(start, end - start);
    return true;
}

/** The number after "field": on @p line (std::from_chars stops at
 *  the ',' or '}' that follows it). */
template <class T>
bool
jsonNum(const std::string &line, const char *field, T &out)
{
    const std::string pat = std::string("\"") + field + "\": ";
    const size_t at = line.find(pat);
    return at != std::string::npos &&
           std::from_chars(line.data() + at + pat.size(),
                           line.data() + line.size(), out)
                   .ec == std::errc();
}

bool
loadBaseline(const std::string &path, std::vector<GridPoint> &out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "bench_sched: cannot open baseline %s\n",
                     path.c_str());
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        GridPoint p;
        if (!jsonStr(line, "workload", p.workload))
            continue; // array brackets / malformed line
        if (!jsonStr(line, "mode", p.mode) ||
            !jsonStr(line, "kernel", p.kernel))
            continue;
        u64 cyc = 0;
        jsonNum(line, "cycles", cyc);
        p.cycles = static_cast<Cycle>(cyc);
        jsonNum(line, "committed", p.committed);
        jsonNum(line, "checksum", p.checksum);
        jsonNum(line, "sim_seconds", p.sim_seconds);
        out.push_back(std::move(p));
    }
    if (out.empty()) {
        std::fprintf(stderr,
                     "bench_sched: baseline %s has no grid points\n",
                     path.c_str());
        return false;
    }
    return true;
}

const GridPoint *
findPoint(const std::vector<GridPoint> &points, const std::string &key)
{
    for (const GridPoint &p : points)
        if (p.key() == key)
            return &p;
    return nullptr;
}

/**
 * Diff @p current against @p baseline (see the file comment for the
 * contract). Returns the number of failures; prints one line per
 * compared point to stderr.
 */
unsigned
diffBaseline(const std::vector<GridPoint> &current,
             const std::vector<GridPoint> &baseline, double tolerance)
{
    // Global host-speed calibration: median of current/baseline
    // wall-clock ratios over the shared points. A different machine
    // (or compiler) shifts every point by roughly the same factor;
    // only *relative* movement flags a regression.
    std::vector<double> ratios;
    for (const GridPoint &c : current) {
        const GridPoint *b = findPoint(baseline, c.key());
        if (b && b->sim_seconds > 0.0 && c.sim_seconds > 0.0)
            ratios.push_back(c.sim_seconds / b->sim_seconds);
    }
    double calib = 1.0;
    if (!ratios.empty()) {
        std::sort(ratios.begin(), ratios.end());
        calib = ratios[ratios.size() / 2];
    }

    unsigned failures = 0;
    unsigned compared = 0;
    for (const GridPoint &c : current) {
        const GridPoint *b = findPoint(baseline, c.key());
        if (!b) {
            std::fprintf(stderr, "  %-24s not in baseline (skipped)\n",
                         c.key().c_str());
            continue;
        }
        ++compared;
        if (c.cycles != b->cycles || c.committed != b->committed ||
            c.checksum != b->checksum) {
            ++failures;
            std::fprintf(
                stderr,
                "  %-24s ARCH MISMATCH: cycles %llu vs %llu, "
                "committed %llu vs %llu, checksum %016llx vs %016llx\n",
                c.key().c_str(),
                static_cast<unsigned long long>(c.cycles),
                static_cast<unsigned long long>(b->cycles),
                static_cast<unsigned long long>(c.committed),
                static_cast<unsigned long long>(b->committed),
                static_cast<unsigned long long>(c.checksum),
                static_cast<unsigned long long>(b->checksum));
            continue;
        }
        if (b->sim_seconds <= 0.0 || c.sim_seconds <= 0.0) {
            std::fprintf(stderr, "  %-24s arch ok (no wall-clock)\n",
                         c.key().c_str());
            continue;
        }
        const double rel =
            c.sim_seconds / (b->sim_seconds * calib);
        const bool slow = rel > 1.0 + tolerance / 100.0;
        const bool fast = rel < 1.0 / (1.0 + tolerance / 100.0);
        if (slow)
            ++failures;
        std::fprintf(stderr,
                     "  %-24s arch ok, calibrated wall-clock %+.1f%%%s\n",
                     c.key().c_str(), (rel - 1.0) * 100.0,
                     slow ? "  ** REGRESSION **"
                          : fast ? "  (faster than baseline)" : "");
    }
    std::fprintf(stderr,
                 "baseline diff: %u points compared, calibration "
                 "x%.2f, tolerance +/-%.0f%%, %u failure(s)\n",
                 compared, calib, tolerance, failures);
    if (compared == 0)
        ++failures; // an empty comparison must not pass CI
    return failures;
}

} // namespace

int
main(int argc, char **argv)
{
    bool fast = false;
    SeqNum max_ops = 2'000'000;
    unsigned reps = 3;
    double tolerance = 15.0;
    std::string baseline_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "fast") {
            fast = true;
        } else if (arg == "--max-ops" && i + 1 < argc) {
            max_ops = cli::numArg<SeqNum>("--max-ops", argv[++i]);
        } else if (arg == "--reps" && i + 1 < argc) {
            reps = std::max(1u, cli::numArg<unsigned>("--reps", argv[++i]));
        } else if (arg == "--baseline" && i + 1 < argc) {
            baseline_path = argv[++i];
        } else if (arg == "--tolerance" && i + 1 < argc) {
            tolerance = cli::numArg<double>("--tolerance", argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: %s [fast] [--max-ops N] [--reps N] "
                         "[--baseline FILE] [--tolerance PCT]\n",
                         argv[0]);
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
        const Trace trace = traceWorkload(workload, max_ops);
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
                         "points (max_ops=%llu, best of %u rep%s%s)\n",
                 geomean, speedup_count,
                 static_cast<unsigned long long>(max_ops), reps,
                 reps == 1 ? "" : "s", fast ? ", fast mode" : "");
    prof::report(std::cerr);

    // JSON to stdout for scripted consumption (and the committed
    // BENCH_sched.json baseline). One object per line: the baseline
    // loader in this file depends on that shape.
    std::printf("[\n");
    for (size_t i = 0; i < points.size(); ++i) {
        const GridPoint &p = points[i];
        std::printf("  {\"workload\": \"%s\", \"mode\": \"%s\", "
                    "\"kernel\": \"%s\", \"cycles\": %llu, "
                    "\"committed\": %llu, \"checksum\": %llu, "
                    "\"sim_seconds\": %.6f, "
                    "\"kcycles_per_sec\": %.1f, \"sim_mips\": %.3f}%s\n",
                    p.workload.c_str(), p.mode.c_str(), p.kernel.c_str(),
                    static_cast<unsigned long long>(p.cycles),
                    static_cast<unsigned long long>(p.committed),
                    static_cast<unsigned long long>(p.checksum),
                    p.sim_seconds, p.kcps(), p.mips(),
                    i + 1 < points.size() ? "," : "");
    }
    std::printf("]\n");

    if (!baseline_path.empty()) {
        std::vector<GridPoint> baseline;
        if (!loadBaseline(baseline_path, baseline))
            return 1;
        std::fprintf(stderr, "=== baseline diff vs %s ===\n",
                     baseline_path.c_str());
        if (diffBaseline(points, baseline, tolerance) != 0)
            return 1;
    }
    return 0;
}
