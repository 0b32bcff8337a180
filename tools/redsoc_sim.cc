/**
 * @file
 * redsoc_sim: command-line front end to the simulator.
 *
 *   redsoc_sim [--workload NAME | --list] [--core small|medium|big]
 *              [--mode baseline|redsoc|mos] [--threshold N]
 *              [--precision BITS] [--dynamic-threshold]
 *              [--rs illustrative|operational] [--no-egpw] [--no-skew]
 *              [--pvt-derate X] [--max-ops N] [--kernel scan|event]
 *              [--cores N] [--mix A,B,...] [--llc-kb N]
 *              [--dram-banks N] [--bank-occupancy N] [--share-addr]
 *              [--trace FILE] [--trace-format chrome|konata]
 *              [--profile] [--stats] [--compare]
 *
 * --cores (or --mix) switches to the multi-core Processor: N copies
 * of the selected core configuration in front of one shared inclusive
 * LLC (--llc-kb, default the core's private L2 size) and a banked
 * DRAM backend (--dram-banks/--bank-occupancy). --mix names the
 * multi-programmed workloads comma-separated; core i runs entry
 * i mod len, so "--cores 4 --mix crc,act" alternates the two. Output
 * adds one line per core plus the LLC contention table. With --trace,
 * each core's pipeline trace lands in FILE.core<i>.
 *
 * --compare runs baseline and the selected mode and prints the
 * speedup; --stats dumps the full gem5-style statistics group;
 * --kernel selects the simulation kernel (results are bit-identical,
 * only host speed differs); --profile prints per-phase host timings.
 *
 * --trace (or the REDSOC_TRACE environment variable) records every
 * op of the run and writes its pipeline trace to FILE: Chrome
 * trace_event JSON for chrome://tracing / Perfetto, or Konata text
 * for the Konata pipeline visualizer. The format follows
 * --trace-format when given, else the file extension (.json =>
 * chrome). A traced run also prints the trace-derived metrics report
 * (slack and latency distributions, recycle-chain depths, EGPW
 * outcomes).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cli.h"
#include "common/logging.h"
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
                 "          [--threshold N] [--precision BITS] "
                 "[--dynamic-threshold]\n"
                 "          [--rs DESIGN] [--no-egpw] [--no-skew] "
                 "[--pvt-derate X]\n"
                 "          [--max-ops N] [--kernel scan|event] "
                 "[--profile] [--stats] [--compare]\n"
                 "          [--cores N] [--mix A,B,...] [--llc-kb N] "
                 "[--dram-banks N]\n"
                 "          [--bank-occupancy N] [--share-addr]\n"
                 "          [--trace FILE] [--trace-format "
                 "chrome|konata]\n",
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

    bool threshold_set = false, precision_set = false;
    Tick threshold = 0;
    unsigned precision = 0;
    bool dynamic_threshold = false, no_egpw = false, no_skew = false;
    RsDesign rs_design = RsDesign::Operational;
    bool rs_set = false;
    double pvt_derate = 1.0;
    SchedKernel kernel = SchedKernel::Event;
    bool kernel_set = false;
    std::string trace_path;
    if (const char *env = std::getenv("REDSOC_TRACE"))
        trace_path = env;
    std::optional<TraceFormat> trace_format;

    unsigned num_cores = 1;
    bool proc_mode = false;
    std::string mix_spec;
    u64 llc_kb = 0; // 0 = the core's private L2 size
    unsigned dram_banks = 8;
    Cycle bank_occupancy = 16;
    bool share_addr = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--workload") {
            workload = next();
        } else if (arg == "--core") {
            core = next();
        } else if (arg == "--mode") {
            mode = cli::enumArg<SchedMode>("--mode", next());
        } else if (arg == "--threshold") {
            threshold = cli::numArg<Tick>("--threshold", next());
            threshold_set = true;
        } else if (arg == "--precision") {
            precision = cli::numArg<unsigned>("--precision", next());
            precision_set = true;
        } else if (arg == "--dynamic-threshold") {
            dynamic_threshold = true;
        } else if (arg == "--rs") {
            rs_design = cli::enumArg<RsDesign>("--rs", next());
            rs_set = true;
        } else if (arg == "--no-egpw") {
            no_egpw = true;
        } else if (arg == "--no-skew") {
            no_skew = true;
        } else if (arg == "--pvt-derate") {
            pvt_derate = cli::numArg<double>("--pvt-derate", next());
        } else if (arg == "--max-ops") {
            max_ops = cli::numArg<SeqNum>("--max-ops", next());
        } else if (arg == "--kernel") {
            kernel = cli::enumArg<SchedKernel>("--kernel", next());
            kernel_set = true;
        } else if (arg == "--cores") {
            num_cores = cli::numArg<unsigned>("--cores", next());
            proc_mode = true;
        } else if (arg == "--mix") {
            mix_spec = next();
            proc_mode = true;
        } else if (arg == "--llc-kb") {
            llc_kb = cli::numArg<u64>("--llc-kb", next());
        } else if (arg == "--dram-banks") {
            dram_banks = cli::numArg<unsigned>("--dram-banks", next());
        } else if (arg == "--bank-occupancy") {
            bank_occupancy =
                cli::numArg<Cycle>("--bank-occupancy", next());
        } else if (arg == "--share-addr") {
            share_addr = true;
        } else if (arg == "--trace") {
            trace_path = next();
        } else if (arg == "--trace-format") {
            const std::string f = next();
            trace_format = parseTraceFormat(f);
            if (!trace_format)
                fatal("unknown trace format '", f,
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
            fatal("unknown argument '", arg, "'");
        }
    }

    if (list_only) {
        for (const Workload &w : allWorkloads())
            std::printf("%-10s %-8s %s\n", w.name.c_str(),
                        suiteName(w.suite), w.description.c_str());
        return 0;
    }

    auto make_config = [&](SchedMode m) {
        CoreConfig cfg = configFor(core, m);
        if (threshold_set)
            cfg.slack_threshold_ticks = threshold;
        if (precision_set)
            cfg.ci_precision_bits = precision;
        if (rs_set)
            cfg.rs_design = rs_design;
        cfg.dynamic_threshold = dynamic_threshold;
        cfg.egpw = !no_egpw;
        cfg.skewed_select = !no_skew;
        cfg.timing.pvt_derate = pvt_derate;
        if (kernel_set)
            cfg.sched_kernel = kernel;
        return cfg;
    };

    SimDriver driver(max_ops);

    if (proc_mode) {
        const std::vector<std::string> mix =
            cli::splitMix(mix_spec.empty() ? workload : mix_spec);

        ProcConfig pcfg;
        pcfg.num_cores = num_cores;
        pcfg.core = make_config(mode);
        if (llc_kb != 0)
            pcfg.llc.size_bytes = llc_kb * 1024;
        else
            pcfg.llc.size_bytes = pcfg.core.memory.l2.size_bytes;
        pcfg.llc.line_bytes = pcfg.core.memory.l1.line_bytes;
        pcfg.dram.banks = dram_banks;
        pcfg.dram.bank_occupancy = bank_occupancy;
        pcfg.share_address_space = share_addr;

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

    const CoreConfig cfg = make_config(mode);
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
    std::printf("host: %.3f s simulation, %.2f simulated MIPS\n",
                stats.sim_seconds, stats.simMips());

    if (want_compare && mode != SchedMode::Baseline) {
        const CoreStats &base =
            driver.run(workload, make_config(SchedMode::Baseline));
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
