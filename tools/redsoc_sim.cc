/**
 * @file
 * redsoc_sim: command-line front end to the simulator.
 *
 *   redsoc_sim [--workload NAME | --list] [--core small|medium|big]
 *              [--mode baseline|redsoc|mos] [--max-ops N]
 *              [--cores N] [--mix A,B,...] [--set PATH=VALUE]...
 *              [--trace FILE] [--trace-format chrome|konata]
 *              [--profile] [--stats] [--compare]
 *
 * --set assigns one config leaf after the --core/--mode preset, in
 * order. PATH is a ProcConfig leaf path, as in a fuzz fixture's proc
 * line ("core.egpw=0", "dram.banks=4"). A bad path or value, a config
 * configError rejects, core.mode (use --mode), or a leaf the run does
 * not read (outside core.* without --cores/--mix) exits with status 2.
 *
 * --cores (or --mix) runs N copies of the core in front of one
 * shared LLC; core i runs mix entry i mod len. --compare also runs
 * baseline (with the same --set leaves) and prints the speedup;
 * --stats dumps the statistics group; --profile prints host timings.
 * Host timings (the "host:" line, --profile) go to stderr; only the
 * --stats dump still carries one on stdout (its sim_seconds leaf).
 * --trace (or REDSOC_TRACE) writes the run's pipeline trace (Chrome
 * JSON or Konata, by --trace-format or the extension; FILE.core<i>
 * per core) and prints the trace-derived metrics.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cli.h"
#include "common/shutdown.h"
#include "sim/driver.h"
#include "sim/profile.h"
#include "trace/exporters.h"
#include "trace/metrics.h"

using namespace redsoc;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--workload NAME | --list] [--core NAME] "
                 "[--mode MODE]\n"
                 "          [--max-ops N] [--cores N] [--mix A,B,...] "
                 "[--set PATH=VALUE]...\n"
                 "          [--trace FILE] [--trace-format "
                 "chrome|konata]\n"
                 "          [--profile] [--stats] [--compare]\n",
                 argv0);
}

} // namespace

int
main(int argc, char **argv)
try {
    // SIGINT/SIGTERM abort the simulation cooperatively
    // (ShutdownInterrupt below) so in-flight run-cache writes either
    // complete their atomic rename or never start.
    installGracefulShutdown();

    std::string workload = "crc";
    std::string core = "big";
    SchedMode mode = SchedMode::ReDSOC;
    bool want_stats = false;
    bool want_compare = false;
    bool list_only = false;
    SeqNum max_ops = 2'000'000;

    std::vector<std::string> sets;
    std::string trace_path;
    if (const char *env = std::getenv("REDSOC_TRACE"))
        trace_path = env;
    std::optional<TraceFormat> trace_format;

    unsigned num_cores = 1;
    bool proc_mode = false;
    std::string mix_spec;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                cli::usageError("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload") {
            workload = next();
        } else if (arg == "--core") {
            core = cli::coreArg(next());
        } else if (arg == "--mode") {
            mode = cli::enumArg<SchedMode>("--mode", next());
        } else if (arg == "--max-ops") {
            max_ops = cli::numArg<SeqNum>("--max-ops", next());
        } else if (arg == "--set") {
            sets.push_back(next());
        } else if (arg == "--cores") {
            num_cores = cli::numArg<unsigned>("--cores", next());
            proc_mode = true;
        } else if (arg == "--mix") {
            mix_spec = next();
            proc_mode = true;
        } else if (arg == "--trace") {
            trace_path = next();
        } else if (arg == "--trace-format") {
            const std::string f = next();
            trace_format = parseTraceFormat(f);
            if (!trace_format)
                cli::usageError("unknown trace format '" + f +
                                "' (chrome or konata)");
        } else if (arg == "--profile") {
            prof::setEnabled(true);
        } else if (arg == "--stats") {
            want_stats = true;
        } else if (arg == "--compare") {
            want_compare = true;
        } else if (arg == "--list") {
            list_only = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            cli::usageError("unknown argument '" + arg + "'");
        }
    }

    if (list_only) {
        for (const Workload &w : allWorkloads())
            std::printf("%-10s %-8s %s\n", w.name.c_str(),
                        suiteName(w.suite), w.description.c_str());
        return 0;
    }

    // One side of the run: the preset in mode @p m, then every --set
    // in order, twice: the LLC geometry between the passes follows the
    // final core (so a 1-core mix matches the plain hierarchy) unless
    // an llc.* leaf is set.
    auto make_config = [&](SchedMode m) {
        ProcConfig pcfg;
        pcfg.num_cores = num_cores;
        pcfg.core = configFor(core, m);
        auto apply_sets = [&] {
            for (const std::string &token : sets) {
                const std::string err = setLeaf(pcfg, token);
                if (!err.empty())
                    cli::usageError("invalid --set: " + err);
                // --mode names the run and picks --compare's side.
                if (token.starts_with("core.mode="))
                    cli::usageError("--set core.mode: use --mode");
                if (!proc_mode && !token.starts_with("core."))
                    cli::usageError("--set " + token +
                                    ": a single-core run reads only "
                                    "core.* leaves (add --cores or --mix)");
            }
        };
        apply_sets();
        pcfg.llc.size_bytes = pcfg.core.memory.l2.size_bytes;
        pcfg.llc.line_bytes = pcfg.core.memory.l1.line_bytes;
        apply_sets();
        // A single-core run reads only the core (named by --set path).
        const std::string err =
            proc_mode ? configError(pcfg) : configError(pcfg.core);
        if (!err.empty())
            cli::usageError("invalid config: " +
                            std::string(proc_mode ? "" : "core.") + err);
        return pcfg;
    };
    const ProcConfig pcfg = make_config(mode);

    SimDriver driver(max_ops);

    if (proc_mode) {
        const std::vector<std::string> mix =
            cli::splitMix(mix_spec.empty() ? workload : mix_spec);

        ProcStats pstats;
        if (!trace_path.empty()) {
            // Traced multi-core run: uncached (like runTraced), one
            // recorder and one FILE.core<i> output per core.
            std::vector<const Trace *> traces;
            std::vector<std::unique_ptr<GraphRecorder>> recorders;
            Processor proc(pcfg);
            for (unsigned i = 0; i < pcfg.num_cores; ++i) {
                traces.push_back(&driver.trace(mix[i % mix.size()]));
                recorders.push_back(
                    std::make_unique<GraphRecorder>(traces[i]->size()));
                proc.setRecorder(i, recorders[i].get());
            }
            pstats = proc.run(traces);
            for (unsigned i = 0; i < pcfg.num_cores; ++i) {
                const std::string path =
                    trace_path + ".core" + std::to_string(i);
                const TraceFormat fmt =
                    trace_format ? *trace_format
                                 : traceFormatForPath(trace_path);
                writeTraceFile(path, fmt, *recorders[i], *traces[i]);
                std::printf("trace core %u: %llu ops -> %s\n", i,
                            static_cast<unsigned long long>(
                                traces[i]->size()),
                            path.c_str());
            }
        } else {
            pstats = driver.runProc(mix, pcfg);
        }

        for (size_t i = 0; i < pstats.cores.size(); ++i) {
            const CoreStats &cs = pstats.cores[i];
            std::printf("core %zu (%s): %llu cycles, IPC %.3f\n", i,
                        mix[i % mix.size()].c_str(),
                        static_cast<unsigned long long>(cs.cycles),
                        cs.ipc());
        }
        std::printf("%u-core %s/%s: %llu cycles to drain the mix\n",
                    pcfg.num_cores, core.c_str(), schedModeName(mode),
                    static_cast<unsigned long long>(pstats.cycles));
        std::fputs(renderContention(pstats).c_str(), stdout);
        if (want_stats) {
            for (size_t i = 0; i < pstats.cores.size(); ++i) {
                const std::string name = core + ".core" +
                                         std::to_string(i) + "." +
                                         schedModeName(mode);
                std::fputs(
                    toStatGroup(pstats.cores[i], name).dump().c_str(),
                    stdout);
            }
        }
        prof::report(std::cerr);
        return 0;
    }

    const Trace &trace = driver.trace(workload);
    std::printf("workload '%s': %llu dynamic ops\n", workload.c_str(),
                static_cast<unsigned long long>(trace.size()));

    const CoreConfig &cfg = pcfg.core;
    CoreStats stats;
    if (!trace_path.empty()) {
        // A traced run bypasses the result caches (a cache hit has no
        // record) but produces byte-identical statistics.
        GraphRecorder rec(trace.size());
        stats = driver.runTraced(workload, cfg, rec);
        const TraceFormat fmt =
            trace_format ? *trace_format : traceFormatForPath(trace_path);
        writeTraceFile(trace_path, fmt, rec, trace);
        std::printf("trace: %llu ops -> %s [%s]\n",
                    static_cast<unsigned long long>(trace.size()),
                    trace_path.c_str(),
                    fmt == TraceFormat::Chrome ? "chrome" : "konata");
        const TraceMetrics metrics = computeTraceMetrics(rec, trace);
        std::fputs(renderTraceMetrics(metrics).c_str(), stdout);
    } else {
        stats = driver.run(workload, cfg);
    }
    std::printf("%s/%s: %llu cycles, IPC %.3f\n", core.c_str(),
                schedModeName(mode),
                static_cast<unsigned long long>(stats.cycles),
                stats.ipc());
    std::fprintf(stderr, "host: %.3f s simulation, %.2f simulated MIPS\n",
                 stats.sim_seconds, stats.simMips());

    if (want_compare && mode != SchedMode::Baseline) {
        const CoreStats &base =
            driver.run(workload, make_config(SchedMode::Baseline).core);
        std::printf("baseline: %llu cycles -> speedup %.2f%%\n",
                    static_cast<unsigned long long>(base.cycles),
                    (ratioOf(base.cycles, stats.cycles) - 1.0) * 100.0);
    }

    if (want_stats) {
        const std::string name = core + "." + schedModeName(mode);
        std::fputs(toStatGroup(stats, name).dump().c_str(), stdout);
    }
    prof::report(std::cerr);
    return 0;
} catch (const ShutdownInterrupt &) {
    std::fprintf(stderr, "interrupted; partial results discarded\n");
    return 130;
}
