/**
 * @file
 * Table I: the Small / Medium / Big processor baselines.
 */

#include "bench_common.h"
#include "harnesses.h"

using namespace redsoc;

void
bench::tab1_configs(SimDriver &, bool)
{
    bench::printHeader("processor baselines", "Table I");
    Table t({"parameter", "small", "medium", "big"});
    const CoreConfig s = smallCore(), m = mediumCore(), b = bigCore();
    auto row = [&](const char *name, auto get) {
        t.addRow({name, std::to_string(get(s)), std::to_string(get(m)),
                  std::to_string(get(b))});
    };
    t.addRow({"frequency", "2 GHz", "2 GHz", "2 GHz"});
    row("front-end width", [](const CoreConfig &c) {
        return c.frontend_width;
    });
    row("ROB entries", [](const CoreConfig &c) { return c.rob_entries; });
    row("LSQ entries", [](const CoreConfig &c) { return c.lsq_entries; });
    row("RS entries", [](const CoreConfig &c) { return c.rs_entries; });
    row("ALU units", [](const CoreConfig &c) { return c.alu_units; });
    row("SIMD units", [](const CoreConfig &c) { return c.simd_units; });
    row("FP units", [](const CoreConfig &c) { return c.fp_units; });
    row("mem ports", [](const CoreConfig &c) { return c.mem_ports; });
    t.addRow({"L1 / L2", "64kB / 2MB w/ prefetch", "same", "same"});
    std::printf("%s", t.render().c_str());
}
