/**
 * @file
 * Table II: the machine-learning kernels (plus the rest of the
 * workload suite with dynamic trace sizes).
 */

#include "bench_common.h"
#include "harnesses.h"

using namespace redsoc;

void
bench::tab2_kernels(SimDriver &driver, bool fast)
{
    bench::printHeader("workload suite", "Table II + Sec.V benchmarks");
    auto selected = [&](const Workload &w) {
        return !fast || w.name == "crc" || w.suite == Suite::Ml;
    };
    std::vector<std::string> names;
    for (const Workload &w : allWorkloads())
        if (selected(w))
            names.push_back(w.name);
    driver.prefetchTraces(names);

    Table t({"kernel", "suite", "description", "dynamic ops"});
    for (const Workload &w : allWorkloads()) {
        if (!selected(w))
            continue;
        t.addRow({w.name, suiteName(w.suite), w.description,
                  std::to_string(driver.trace(w.name).size())});
    }
    std::printf("%s", t.render().c_str());
}
