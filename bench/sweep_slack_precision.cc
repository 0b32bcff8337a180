/**
 * @file
 * Sec.V "Slack Tracking Precision in the RSE": sweep the CI field
 * precision from 1 bit to the widest field (kMaxCiPrecisionBits, 8) —
 * the paper found performance saturates at 3 bits (1/8th of a cycle).
 */

#include "bench_common.h"
#include "harnesses.h"

using namespace redsoc;

void
bench::sweep_slack_precision(SimDriver &driver, bool fast)
{
    bench::printHeader("CI precision sweep", "Sec.V (3-bit saturation)");

    const std::vector<std::string> names =
        fast ? std::vector<std::string>{"crc"}
             : std::vector<std::string>{"crc", "bitcnt", "gsm",
                                        "softmax", "corners"};

    std::vector<SimDriver::Point> points;
    for (const std::string &name : names) {
        points.push_back({name, configFor("medium", SchedMode::Baseline)});
        for (unsigned bits = 1; bits <= kMaxCiPrecisionBits; ++bits) {
            CoreConfig red = configFor("medium", SchedMode::ReDSOC);
            red.ci_precision_bits = bits;
            red.slack_threshold_ticks = (Tick{1} << bits) * 3 / 4;
            points.push_back({name, red});
        }
    }
    driver.prefetch(points);

    const std::string widest = std::to_string(kMaxCiPrecisionBits);
    Table t({"CI bits", "mean speedup", "vs " + widest + "-bit"});
    std::vector<double> mean_by_bits(kMaxCiPrecisionBits + 1, 0.0);
    for (unsigned bits = 1; bits <= kMaxCiPrecisionBits; ++bits) {
        std::vector<double> speedups;
        for (const std::string &name : names) {
            CoreConfig red = configFor("medium", SchedMode::ReDSOC);
            red.ci_precision_bits = bits;
            red.slack_threshold_ticks = (Tick{1} << bits) * 3 / 4;
            speedups.push_back(driver.speedup(
                name, configFor("medium", SchedMode::Baseline), red));
        }
        mean_by_bits[bits] = SimDriver::mean(speedups);
    }
    const double widest_mean = mean_by_bits[kMaxCiPrecisionBits];
    for (unsigned bits = 1; bits <= kMaxCiPrecisionBits; ++bits) {
        t.addRow({std::to_string(bits),
                  Table::pct(mean_by_bits[bits] - 1.0),
                  Table::num(mean_by_bits[bits] / widest_mean, 4)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("paper shape: performance saturates at 3 bits of CI "
                "precision\n(1/8th of the clock period).\n");
}
