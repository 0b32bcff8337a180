/**
 * @file
 * Fig.2: Kogge-Stone adder critical path versus effective operand
 * width — the carry-prefix tree shortens by one stage per halving of
 * the active width.
 */

#include "bench_common.h"
#include "harnesses.h"
#include "common/bitutils.h"
#include "timing/kogge_stone.h"

using namespace redsoc;

void
bench::fig02_ks_adder(SimDriver &, bool)
{
    bench::printHeader("Kogge-Stone critical path vs data width",
                       "Fig.2");
    Table t({"effective width (bits)", "prefix stages", "delay (ps)",
             "vs 64-bit"});
    for (unsigned w : {1u, 2u, 4u, 8u, 12u, 16u, 24u, 32u, 48u, 64u}) {
        const unsigned stages = w <= 1 ? 0 : ceilLog2(w);
        t.addRow({std::to_string(w), std::to_string(stages),
                  std::to_string(koggeStoneDelayPs(w)),
                  Table::pct(koggeStoneScale(w))});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("paper shape: the critical carry path grows ~log2 of "
                "the\nactive width; a 4-bit add uses a small fraction "
                "of the\nfull-width critical path.\n");
}
