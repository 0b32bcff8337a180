/**
 * @file
 * Multi-core LLC contention: how much of slack recycling survives a
 * shared hierarchy. One multi-programmed mix (crc,act on big ReDSOC
 * cores, assigned round-robin) runs over a (cores x LLC size x DRAM
 * bank occupancy) grid. Per point the table reports the worst per-core
 * slowdown against the same workload solo on a private hierarchy,
 * and the LLC's cross-core charges (MSHR merges, bank-wait cycles,
 * back-invalidations), summed over cores.
 */

#include <algorithm>

#include "bench_common.h"
#include "harnesses.h"
#include "sim/thread_pool.h"

using namespace redsoc;

void
bench::proc_contention(SimDriver &driver, bool fast)
{
    std::printf("=== multi-core LLC contention ===\n(mix crc,act on "
                "big ReDSOC cores; slowdown vs each workload solo)\n\n");
    const std::vector<std::string> mix = {"crc", "act"};
    const CoreConfig core_cfg = configFor("big", SchedMode::ReDSOC);

    const std::vector<unsigned> core_counts =
        fast ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4};
    const std::vector<u64> llc_kb =
        fast ? std::vector<u64>{2048} : std::vector<u64>{512, 2048};
    const std::vector<Cycle> occupancies =
        fast ? std::vector<Cycle>{0, 16} : std::vector<Cycle>{0, 16, 64};

    std::vector<ProcConfig> grid;
    for (unsigned cores : core_counts) {
        for (u64 kb : llc_kb) {
            for (Cycle occ : occupancies) {
                ProcConfig pcfg;
                pcfg.num_cores = cores;
                pcfg.core = core_cfg;
                pcfg.llc.size_bytes = kb * 1024;
                pcfg.llc.line_bytes = core_cfg.memory.l1.line_bytes;
                pcfg.dram.bank_occupancy = occ;
                grid.push_back(pcfg);
            }
        }
    }

    // Solo references on the pool, then every grid point as a pool
    // task; the table below only reads the cached results.
    std::vector<SimDriver::Point> solo;
    for (const std::string &name : mix)
        solo.push_back({name, core_cfg});
    driver.prefetch(solo);
    ThreadPool &pool = globalSimPool();
    for (const ProcConfig &pcfg : grid)
        pool.submit(
            [&driver, &mix, &pcfg] { (void)driver.runProc(mix, pcfg); });
    pool.wait();

    Table t({"cores", "llc-kb", "bank-occ", "worst-slowdown", "merges",
             "bank-wait", "back-inv"});
    for (const ProcConfig &pcfg : grid) {
        const ProcStats &st = driver.runProc(mix, pcfg);
        double worst = 0.0;
        for (size_t i = 0; i < st.cores.size(); ++i) {
            const Cycle solo_cycles =
                driver.run(mix[i % mix.size()], core_cfg).cycles;
            worst = std::max(worst, asDouble(st.cores[i].cycles) /
                                        asDouble(solo_cycles));
        }
        u64 merges = 0, bank_waits = 0, back_invals = 0;
        for (const LlcCoreStats &cs : st.llc.per_core) {
            merges += cs.mshr_merges;
            bank_waits += cs.bank_wait_cycles;
            back_invals += cs.back_invalidations;
        }
        t.addRow({std::to_string(pcfg.num_cores),
                  std::to_string(pcfg.llc.size_bytes / 1024),
                  std::to_string(pcfg.dram.bank_occupancy),
                  Table::num(worst, 6), std::to_string(merges),
                  std::to_string(bank_waits), std::to_string(back_invals)});
    }
    std::printf("%s\n", t.render().c_str());
}
