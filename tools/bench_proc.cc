/**
 * @file
 * bench_proc: multi-core LLC contention sweep. Runs a fixed
 * multi-programmed mix over a (cores x LLC size x DRAM bank
 * occupancy) grid and reports, per point, how much slack recycling
 * survives contention: per-core IPC versus the same core running the
 * same workload solo on an interference-free hierarchy, alongside the
 * LLC's cross-core charges (MSHR merges, bank-wait cycles, back-
 * invalidations).
 *
 *   bench_proc [fast] [--max-ops N] [--mix A,B,...]
 *              [--core small|medium|big] [--mode baseline|redsoc|mos]
 *
 * Human-readable table goes to stderr; a JSON array of every grid
 * point goes to stdout for scripted tracking. Every simulated point
 * is deterministic, so two invocations print byte-identical JSON
 * (modulo the wall-clock-free fields it deliberately sticks to).
 */

#include <cstdio>

#include <string>
#include <vector>

#include "cli.h"
#include "common/logging.h"
#include "common/table.h"
#include "sim/driver.h"

using namespace redsoc;

int
main(int argc, char **argv)
{
    bool fast = false;
    SeqNum max_ops = 500'000;
    std::string mix_spec = "crc,act";
    std::string core_name = "big";
    SchedMode mode = SchedMode::ReDSOC;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "fast") {
            fast = true;
        } else if (arg == "--max-ops" && i + 1 < argc) {
            max_ops = cli::numArg<SeqNum>("--max-ops", argv[++i]);
        } else if (arg == "--mix" && i + 1 < argc) {
            mix_spec = argv[++i];
        } else if (arg == "--core" && i + 1 < argc) {
            core_name = cli::coreArg(argv[++i]);
        } else if (arg == "--mode" && i + 1 < argc) {
            mode = cli::enumArg<SchedMode>("--mode", argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: %s [fast] [--max-ops N] "
                         "[--mix A,B,...] [--core NAME] [--mode MODE]\n",
                         argv[0]);
            return 2;
        }
    }

    const std::vector<std::string> mix = cli::splitMix(mix_spec);
    const CoreConfig core_cfg = configFor(core_name, mode);

    const std::vector<unsigned> core_counts =
        fast ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4};
    const std::vector<u64> llc_kb =
        fast ? std::vector<u64>{2048} : std::vector<u64>{512, 2048};
    const std::vector<Cycle> occupancies =
        fast ? std::vector<Cycle>{0, 16} : std::vector<Cycle>{0, 16, 64};

    SimDriver driver(max_ops);

    // Solo references: each workload alone on a private hierarchy.
    std::vector<Cycle> solo_cycles(mix.size(), 0);
    for (size_t i = 0; i < mix.size(); ++i)
        solo_cycles[i] = driver.run(mix[i], core_cfg).cycles;

    struct Row
    {
        unsigned cores;
        u64 llc_kb;
        Cycle occ;
        double worst_slowdown; ///< max over cores of cycles/solo
        u64 merges;
        u64 bank_waits;
        u64 back_invals;
    };
    std::vector<Row> rows;

    Table table({"cores", "llc-kb", "bank-occ", "worst-slowdown",
                 "merges", "bank-wait", "back-inv"});
    for (unsigned cores : core_counts) {
        for (u64 kb : llc_kb) {
            for (Cycle occ : occupancies) {
                ProcConfig pcfg;
                pcfg.num_cores = cores;
                pcfg.core = core_cfg;
                pcfg.llc.size_bytes = kb * 1024;
                pcfg.llc.line_bytes = core_cfg.memory.l1.line_bytes;
                pcfg.dram.bank_occupancy = occ;

                const ProcStats &st = driver.runProc(mix, pcfg);
                Row row{cores, kb, occ, 0.0, 0, 0, 0};
                for (size_t i = 0; i < st.cores.size(); ++i) {
                    const Cycle solo = solo_cycles[i % mix.size()];
                    if (solo != 0) {
                        const double slow =
                            asDouble(st.cores[i].cycles) /
                            asDouble(solo);
                        row.worst_slowdown =
                            std::max(row.worst_slowdown, slow);
                    }
                }
                for (const LlcCoreStats &cs : st.llc.per_core) {
                    row.merges += cs.mshr_merges;
                    row.bank_waits += cs.bank_wait_cycles;
                    row.back_invals += cs.back_invalidations;
                }
                table.addRow({std::to_string(row.cores),
                              std::to_string(row.llc_kb),
                              std::to_string(row.occ),
                              Table::num(row.worst_slowdown, 3),
                              std::to_string(row.merges),
                              std::to_string(row.bank_waits),
                              std::to_string(row.back_invals)});
                rows.push_back(row);
            }
        }
    }

    std::fprintf(stderr,
                 "=== bench_proc (mix %s, %s/%s, max_ops=%llu) ===\n%s",
                 mix_spec.c_str(), core_name.c_str(),
                 schedModeName(mode),
                 static_cast<unsigned long long>(max_ops),
                 table.render().c_str());

    std::printf("[\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::printf("  {\"cores\": %u, \"llc_kb\": %llu, "
                    "\"bank_occupancy\": %llu, "
                    "\"worst_slowdown\": %.6f, \"mshr_merges\": %llu, "
                    "\"bank_wait_cycles\": %llu, "
                    "\"back_invalidations\": %llu}%s\n",
                    r.cores, static_cast<unsigned long long>(r.llc_kb),
                    static_cast<unsigned long long>(r.occ),
                    r.worst_slowdown,
                    static_cast<unsigned long long>(r.merges),
                    static_cast<unsigned long long>(r.bank_waits),
                    static_cast<unsigned long long>(r.back_invals),
                    i + 1 < rows.size() ? "," : "");
    }
    std::printf("]\n");
    return 0;
}
