/**
 * @file
 * Circuit-level computation-time model for single-cycle operations.
 * Per-opcode full-width times are calibrated to the paper's Fig.1
 * (ARM-style ALU synthesized at 2 GHz in TSMC 45nm); width-dependent
 * carry-chain scaling follows the Kogge-Stone model of Fig.2; SIMD
 * per-element-type times model sub-word datapaths (Type-Slack).
 *
 * These are the "true" delays the hardware would exhibit. The
 * scheduler never sees them directly: it sees the conservative
 * bucketed estimates of the SlackLut (Sec.II-B), which this model
 * feeds. The true delays are used to validate LUT conservativeness
 * and to compute timing-error rates for the TS baseline.
 */

#ifndef REDSOC_TIMING_TIMING_MODEL_H
#define REDSOC_TIMING_TIMING_MODEL_H

#include "common/fields.h"
#include "isa/inst.h"

namespace redsoc {

/** Operand-width class: the 2-bit Width/Type field of the LUT
 *  address (Fig.3). */
enum class WidthClass : u8 { W8, W16, W32, W64 };

/** Upper-bound bit width of a width class. */
unsigned widthClassBits(WidthClass wc);

/** Classify an effective operand width in bits. */
WidthClass classifyWidth(unsigned eff_width);

const char *widthClassName(WidthClass wc);

struct TimingConfig
{
    /** Clock period at the 2 GHz design point. */
    Picos clock_period_ps = 500;

    /**
     * PVT guard-band derate: <1.0 models nominal (non-worst-case)
     * PVT conditions where all combinational paths run faster. The
     * paper's headline results use the worst-case corner (1.0) to
     * isolate pure data slack (Sec.V).
     */
    double pvt_derate = 1.0;
};

REDSOC_FIELDS(TimingConfig, clock_period_ps, pvt_derate)

/** Legal ranges (common/fields.h RangeCheck). */
inline std::string
configError(const TimingConfig &c)
{
    return RangeCheck(c)
        .require(c.clock_period_ps, c.clock_period_ps >= 1, "at least 1")
        .require(c.pvt_derate, c.pvt_derate > 0.0 && c.pvt_derate <= 1.0,
                 "in (0, 1]")
        .error();
}

class TimingModel
{
  public:
    explicit TimingModel(TimingConfig config = {});

    const TimingConfig &config() const { return config_; }
    Picos clockPeriodPs() const { return config_.clock_period_ps; }

    /**
     * Full-width (64-bit) computation time for a scalar single-cycle
     * opcode with an optional op2 shift stage. Fig.1 reproduction.
     */
    Picos scalarFullWidthPs(Opcode op, ShiftKind shift) const;

    /**
     * True computation time of a dynamic single-cycle operation:
     * width-scales the carry chain for Arith ops, keeps Logic and
     * Move/Shift flat, adds the shifter stage, applies PVT derate.
     * Only valid for slack-eligible ops (isSlackEligible()).
     */
    Picos trueDelayPs(const Inst &inst, unsigned eff_width) const;

    /** SIMD single-cycle op time for an element type. */
    Picos simdDelayPs(Opcode op, VecType vt) const;

    /**
     * True for operations whose execution ReDSOC can recycle slack
     * from: single-cycle scalar integer ALU ops (incl. branches,
     * which resolve through the comparator) and single-cycle SIMD
     * integer ops, plus VMLA accumulate-chain steps (A57-style late
     * accumulator forwarding).
     */
    static bool isSlackEligible(Opcode op);

    /**
     * Data slack of an operation in ps: clock period minus true
     * computation time (never negative).
     */
    Picos trueSlackPs(const Inst &inst, unsigned eff_width) const;

  private:
    Picos shifterPs(ShiftKind kind) const;
    Picos applyDerate(double ps) const;

    TimingConfig config_;
};

} // namespace redsoc

#endif // REDSOC_TIMING_TIMING_MODEL_H
