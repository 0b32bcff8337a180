/**
 * @file
 * The figure/table harnesses (DESIGN.md §3): one function per paper
 * experiment, each printing its table to stdout from a driver it
 * shares with the others. kHarnesses is the one list of them, in
 * presentation order; tools/bench_all runs them in one process.
 *
 * @p fast selects the reduced sweep (one benchmark per suite, see
 * bench::suiteWorkloads). Harnesses that simulate nothing ignore both
 * arguments.
 */

#ifndef REDSOC_BENCH_HARNESSES_H
#define REDSOC_BENCH_HARNESSES_H

#include "sim/driver.h"

namespace redsoc {
namespace bench {

void fig01_alu_times(SimDriver &driver, bool fast);
void fig02_ks_adder(SimDriver &driver, bool fast);
void tab_slack_lut(SimDriver &driver, bool fast);
void tab1_configs(SimDriver &driver, bool fast);
void tab2_kernels(SimDriver &driver, bool fast);
void fig10_op_mix(SimDriver &driver, bool fast);
void fig11_seq_length(SimDriver &driver, bool fast);
void fig12_tag_mispred(SimDriver &driver, bool fast);
void fig13_speedup(SimDriver &driver, bool fast);
void fig14_fu_stalls(SimDriver &driver, bool fast);
void fig15_comparison(SimDriver &driver, bool fast);
void tab_width_predictor(SimDriver &driver, bool fast);
void sweep_slack_precision(SimDriver &driver, bool fast);
void sweep_slack_threshold(SimDriver &driver, bool fast);
void sweep_pvt(SimDriver &driver, bool fast);
void ablation_mechanisms(SimDriver &driver, bool fast);
void power_savings(SimDriver &driver, bool fast);
void proc_contention(SimDriver &driver, bool fast);

struct Harness
{
    const char *name;
    void (*run)(SimDriver &driver, bool fast);
};

inline constexpr Harness kHarnesses[] = {
    {"fig01_alu_times", fig01_alu_times},
    {"fig02_ks_adder", fig02_ks_adder},
    {"tab_slack_lut", tab_slack_lut},
    {"tab1_configs", tab1_configs},
    {"tab2_kernels", tab2_kernels},
    {"fig10_op_mix", fig10_op_mix},
    {"fig11_seq_length", fig11_seq_length},
    {"fig12_tag_mispred", fig12_tag_mispred},
    {"fig13_speedup", fig13_speedup},
    {"fig14_fu_stalls", fig14_fu_stalls},
    {"fig15_comparison", fig15_comparison},
    {"tab_width_predictor", tab_width_predictor},
    {"sweep_slack_precision", sweep_slack_precision},
    {"sweep_slack_threshold", sweep_slack_threshold},
    {"sweep_pvt", sweep_pvt},
    {"ablation_mechanisms", ablation_mechanisms},
    {"power_savings", power_savings},
    {"proc_contention", proc_contention},
};

} // namespace bench
} // namespace redsoc

#endif // REDSOC_BENCH_HARNESSES_H
