/**
 * @file
 * Sec.II-B / Fig.3: the slack look-up table — the 5-bit address
 * {SIMD, Arith/Logic, Shift, Width/Type} collapses to exactly 14
 * populated buckets with conservative per-bucket computation times.
 */

#include "bench_common.h"
#include "harnesses.h"
#include "timing/slack_lut.h"

using namespace redsoc;

void
bench::tab_slack_lut(SimDriver &, bool)
{
    bench::printHeader("slack LUT buckets", "Sec.II-B / Fig.3");
    const TimingModel tm;
    const SubCycleClock clock(3, tm.clockPeriodPs());
    const SlackLut lut(tm, clock);

    Table t({"#", "bucket", "worst-case (ps)", "estimate (ticks/8)",
             "estimate (ps)", "recyclable slack"});
    unsigned idx = 0;
    for (const SlackBucket &b : lut.buckets()) {
        const double est_ps = clock.ticksToPs(b.ticks);
        t.addRow({std::to_string(idx++), b.name,
                  std::to_string(b.worst_case_ps),
                  std::to_string(b.ticks), Table::num(est_ps, 1),
                  Table::pct(1.0 - est_ps / tm.clockPeriodPs())});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("%u buckets total (paper: 14). Estimates quantize up "
                "at 3-bit\nCI precision, so recycling is never "
                "timing-speculative.\n",
                SlackLut::kNumBuckets);
}
