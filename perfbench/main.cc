/**
 * @file
 * perfbench: times the simulator's layers from outside on two
 * workloads (see README.md in this directory).
 *
 *   perfbench --workload sweep-cold|whatif --seed N
 *             --seconds S --trace 0|1 [--work-dir DIR]
 *
 * With --trace 0 it runs the workload's rounds and prints the
 * end-to-end metrics, taken from each population member's fastest op;
 * with --trace 1 it runs one untraced round, a census and one traced
 * round and prints the per-layer metrics, writing every span
 * to DIR/<workload>/spans.tsv. The last stdout line is the result as
 * one JSON object.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "harness.h"
#include "metrics.h"
#include "sim/profile.h"
#include "workloads.h"

using namespace perfbench;

namespace {

// Nominal costs on a shared 4-vCPU x86-64 host, used only to turn
// --seconds into a fixed amount of work: every run of one --seconds
// value does the same work, so its medians compare like for like.
constexpr double kColdRoundSeconds = 4.5;     ///< one 270-point pass
constexpr double kWhatifRoundSeconds = 8.0;   ///< one 45-point pass

/** Set-ups timed per round, so setup_s is the fastest of many. */
constexpr unsigned kSetupReps = 5;

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir = ".bench_build/perfbench-run";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "sweep-cold|whatif --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        try {
            if (flag == "--workload") {
                a.workload = v;
                have_workload = true;
            } else if (flag == "--seed") {
                a.seed = std::stoull(v);
            } else if (flag == "--seconds") {
                a.seconds = std::stod(v);
            } else if (flag == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                a.trace = v == "1";
            } else if (flag == "--work-dir") {
                a.work_dir = v;
            } else {
                usage(("unknown flag " + flag).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    const auto &names = workloadNames();
    if (!have_workload ||
        std::find(names.begin(), names.end(), a.workload) == names.end())
        usage("--workload must be sweep-cold or whatif");
    if (!(a.seconds > 0.0 && a.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    return a;
}

unsigned
roundsFor(double seconds, double round_seconds)
{
    return std::max(2u, static_cast<unsigned>(
                            std::lround(seconds / round_seconds)));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

PhaseTotals
readPhases()
{
    using redsoc::prof::Phase;
    auto ns = [](Phase p) {
        return static_cast<double>(redsoc::prof::totals(p).ns);
    };
    return {ns(Phase::Run),    ns(Phase::Dispatch), ns(Phase::Issue),
            ns(Phase::Wakeup), ns(Phase::Select),   ns(Phase::Commit)};
}

void
printDigest(const Workload &w)
{
    const ResultSlots &slots = w.slots();
    std::printf("digest %s fnv1a64=%016llx points=%zu/%zu\n", w.name(),
                static_cast<unsigned long long>(slots.digest()),
                slots.filled(), slots.size());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    // The benchmark owns the simulator's environment knobs: no shared
    // cache, no daemon offload, no trace export, profiling off.
    for (const char *var :
         {"REDSOC_CACHE_DIR", "REDSOC_CACHE_TMP_DIR", "REDSOC_CACHE_TMP_TTL_S",
          "REDSOC_SWEEP_SERVER", "REDSOC_TRACE_DIR", "REDSOC_PROFILE"})
        unsetenv(var);
    redsoc::prof::setEnabled(false);

    const std::string dir = args.work_dir + "/" + args.workload;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    std::unique_ptr<Workload> w;
    unsigned rounds = 1;
    if (args.workload == "sweep-cold") {
        w = std::make_unique<SweepCold>(
            dir, args.seed, sweepGrid(allWorkloadNames(), kCores), 2);
        rounds = roundsFor(args.seconds, kColdRoundSeconds);
    } else {
        w = std::make_unique<Whatif>(args.seed, allWorkloadNames(), kCores);
        rounds = roundsFor(args.seconds, kWhatifRoundSeconds);
    }

    u64 attempted = 0;
    u64 failed = 0;
    const std::vector<MetricDef> *defs = &endToEndMetrics();
    MetricValues values;
    if (!args.trace) {
        const RunSummary run = runRounds(*w, rounds, kSetupReps, false);
        attempted = run.attempted;
        failed = run.failed;
        const size_t n = bestPerMember(run.ops).size();
        const double tail = tailPercentile(n);
        std::printf("perfbench %s seed=%llu rounds=%u ops=%llu clients=%u "
                    "wall_s=%.3f\n",
                    w->name(), static_cast<unsigned long long>(args.seed),
                    rounds, static_cast<unsigned long long>(attempted),
                    run.clients, run.wall_s);
        std::printf("op_tail_ms is p%g of %zu members' fastest ops, %zu "
                    "beyond it\n",
                    tail, n, samplesBeyond(n, tail));
        std::printf("round_s");
        for (double t : run.round_s)
            std::printf(" %.3f", t);
        std::printf("\n");
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        std::printf("process minor_faults=%ld user_s=%.3f sys_s=%.3f\n",
                    ru.ru_minflt,
                    static_cast<double>(ru.ru_utime.tv_sec) +
                        static_cast<double>(ru.ru_utime.tv_usec) * 1e-6,
                    static_cast<double>(ru.ru_stime.tv_sec) +
                        static_cast<double>(ru.ru_stime.tv_usec) * 1e-6);
        values = endToEnd(run, peakRssMb());
    } else {
        TracedRun tr;
        tr.workload = w->name();
        tr.reference = runRounds(*w, 1, 1, false);
        redsoc::prof::reset();
        redsoc::prof::setEnabled(true);
        setTracing(true);
        const CensusResult census = runCensus(dir);
        tr.traced = runRounds(*w, 1, 1, true);
        setTracing(false);
        redsoc::prof::setEnabled(false);
        tr.phases = readPhases();
        tr.spans = collectSpans();
        tr.population_counts = w->slots().counts();
        attempted =
            tr.reference.attempted + tr.traced.attempted + census.attempted;
        failed = tr.reference.failed + tr.traced.failed + census.failed;
        if (!writeSpans(dir + "/spans.tsv", tr.spans)) {
            std::fprintf(stderr, "perfbench: cannot write %s/spans.tsv\n",
                         dir.c_str());
            return 1;
        }
        std::printf("perfbench %s seed=%llu traced spans=%zu -> %s/spans.tsv\n",
                    w->name(), static_cast<unsigned long long>(args.seed),
                    tr.spans.size(), dir.c_str());
        defs = &perLayerMetrics();
        values = perLayer(tr);
    }
    printDigest(*w);
    const bool correct =
        failed == 0 && w->slots().filled() == w->slots().size();
    std::fflush(stderr);
    std::printf("%s\n",
                resultJson(correct, attempted, failed, *defs, values).c_str());
    return 0;
}
