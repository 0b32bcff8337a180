/**
 * @file
 * Fig.10: benchmark operation-distribution characteristics —
 * high/low-latency memory, SIMD, other multi-cycle, and high/low
 * slack single-cycle ALU fractions, per benchmark and per suite.
 */

#include "bench_common.h"
#include "harnesses.h"
#include "workloads/op_mix.h"

using namespace redsoc;

void
bench::fig10_op_mix(SimDriver &driver, bool fast)
{
    bench::printHeader("benchmark operation characteristics", "Fig.10");

    // No timing simulation here, but the functional traces are still
    // expensive: build them all in parallel first.
    std::vector<std::string> all_names;
    for (Suite suite : bench::allSuites())
        for (const std::string &name : bench::suiteWorkloads(suite, fast))
            all_names.push_back(name);
    driver.prefetchTraces(all_names);
    const TimingModel timing;
    Table t({"benchmark", "MEM-HL", "MEM-LL", "SIMD", "OtherMulti",
             "ALU-LS", "ALU-HS"});

    auto add_row = [&](const std::string &label, const OpMix &mix) {
        t.addRow({label, Table::pct(mix.mem_hl), Table::pct(mix.mem_ll),
                  Table::pct(mix.simd), Table::pct(mix.other_multi),
                  Table::pct(mix.alu_ls), Table::pct(mix.alu_hs)});
    };

    for (Suite suite : bench::allSuites()) {
        OpMix mean{};
        const auto names = bench::suiteWorkloads(suite, fast);
        const double n = asDouble(names.size());
        for (const std::string &name : names) {
            const OpMix mix = computeOpMix(driver.trace(name), timing);
            add_row(name, mix);
            mean.mem_hl += mix.mem_hl / n;
            mean.mem_ll += mix.mem_ll / n;
            mean.simd += mix.simd / n;
            mean.other_multi += mix.other_multi / n;
            mean.alu_ls += mix.alu_ls / n;
            mean.alu_hs += mix.alu_hs / n;
        }
        add_row(std::string(suiteName(suite)) + "-MEAN", mean);
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("paper shape: MiBench averages ~60%% high-slack ALU "
                "ops vs ~30%%\nfor SPEC; ML kernels carry large SIMD "
                "fractions; bitcnt has <5%%\nmemory ops.\n");
}
