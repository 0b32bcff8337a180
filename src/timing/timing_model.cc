#include "timing/timing_model.h"

#include <algorithm>

#include "common/logging.h"
#include "timing/kogge_stone.h"

namespace redsoc {

unsigned
widthClassBits(WidthClass wc)
{
    switch (wc) {
      case WidthClass::W8: return 8;
      case WidthClass::W16: return 16;
      case WidthClass::W32: return 32;
      case WidthClass::W64: return 64;
      default: panic("bad width class");
    }
}

WidthClass
classifyWidth(unsigned eff_width)
{
    if (eff_width <= 8)
        return WidthClass::W8;
    if (eff_width <= 16)
        return WidthClass::W16;
    if (eff_width <= 32)
        return WidthClass::W32;
    return WidthClass::W64;
}

const char *
widthClassName(WidthClass wc)
{
    switch (wc) {
      case WidthClass::W8: return "w8";
      case WidthClass::W16: return "w16";
      case WidthClass::W32: return "w32";
      case WidthClass::W64: return "w64";
      default: panic("bad width class");
    }
}

TimingModel::TimingModel(TimingConfig config)
    : config_(checkedConfig(config, "timing"))
{
}

namespace {

/**
 * Full-width (64-bit) computation times in ps, calibrated to Fig.1.
 * Logical ops trigger no carry chain; move/shift ops pay the barrel
 * shifter; arithmetic ops pay the full Kogge-Stone carry path.
 */
Picos
baseOpPs(Opcode op)
{
    switch (op) {
      // Logical
      case Opcode::BIC: return 95;
      case Opcode::MVN: return 100;
      case Opcode::AND: return 105;
      case Opcode::EOR: return 115;
      case Opcode::TST: return 120;
      case Opcode::TEQ: return 125;
      case Opcode::ORR: return 130;
      // Moves / shifts
      case Opcode::MOV: return 140;
      case Opcode::LSR: return 185;
      case Opcode::ASR: return 190;
      case Opcode::LSL: return 200;
      case Opcode::ROR: return 205;
      case Opcode::RRX: return 210;
      // Arithmetic
      case Opcode::RSB: return 305;
      case Opcode::RSC: return 310;
      case Opcode::SUB: return 315;
      case Opcode::CMP: return 320;
      case Opcode::ADD: return 330;
      case Opcode::CMN: return 335;
      case Opcode::ADC: return 340;
      case Opcode::SBC: return 345;
      // Branch condition resolution: comparator against zero plus
      // redirect logic; modeled at the compare time.
      case Opcode::BEQZ: case Opcode::BNEZ: case Opcode::BLTZ:
      case Opcode::BGEZ: case Opcode::BGTZ: case Opcode::BLEZ:
        return 320;
      case Opcode::B: case Opcode::BL: case Opcode::RET:
        return 140; // unconditional: effectively a move of the target
      default:
        panic("baseOpPs: ", opcodeName(op), " is not single-cycle scalar");
    }
}

} // namespace

Picos
TimingModel::shifterPs(ShiftKind kind) const
{
    switch (kind) {
      case ShiftKind::None: return 0;
      case ShiftKind::Lsr: return 120;
      case ShiftKind::Lsl: return 125;
      case ShiftKind::Asr: return 130;
      case ShiftKind::Ror: return 140;
      default: panic("bad shift kind");
    }
}

Picos
TimingModel::applyDerate(double ps) const
{
    return static_cast<Picos>(ps * config_.pvt_derate + 0.5);
}

Picos
TimingModel::scalarFullWidthPs(Opcode op, ShiftKind shift) const
{
    return applyDerate(static_cast<double>(baseOpPs(op)) +
                       shifterPs(shift));
}

bool
TimingModel::isSlackEligible(Opcode op)
{
    if (isIntAlu(op))
        return true;
    // VREDSUM is a multi-stage lane reduction; it executes as a true
    // synchronous single-cycle op and is not recycled.
    if (isSimdAlu(op) && op != Opcode::VREDSUM)
        return true;
    // VMLA accumulate chains behave as single-cycle on the accumulate
    // path (late forwarding); its adder step is slack-eligible.
    return op == Opcode::VMLA;
}

Picos
TimingModel::trueDelayPs(const Inst &inst, unsigned eff_width) const
{
    panic_if(!isSlackEligible(inst.op),
             "trueDelayPs on non-eligible op ", opcodeName(inst.op));
    eff_width = std::clamp(eff_width, 1u, 64u);

    if (isSimd(inst.op))
        return simdDelayPs(inst.op, inst.vtype);

    const AluKind kind = aluKind(inst.op);
    double ps = 0.0;
    switch (kind) {
      case AluKind::Logic:
      case AluKind::MoveShift:
        // No carry chain: delay is width-independent.
        ps = baseOpPs(inst.op);
        break;
      case AluKind::Arith:
        // The carry path shortens with effective operand width
        // (Fig.2); the non-carry portion is width-independent.
        ps = baseOpPs(inst.op) * koggeStoneScale(eff_width);
        break;
      case AluKind::NotAlu:
        // Unconditional branches.
        ps = baseOpPs(inst.op);
        break;
    }
    ps += shifterPs(inst.op2_shift);
    return applyDerate(ps);
}

Picos
TimingModel::simdDelayPs(Opcode op, VecType vt) const
{
    const unsigned elem_bits = vecElemBits(vt);
    double ps = 0.0;
    switch (op) {
      case Opcode::VAND: case Opcode::VORR: case Opcode::VEOR:
      case Opcode::VMOV: case Opcode::VDUP:
        ps = 110; // bitwise lanes: no carry, width-independent
        break;
      case Opcode::VSHL: case Opcode::VSHR:
        ps = 170; // per-lane shifter (narrower than scalar barrel)
        break;
      case Opcode::VADD: case Opcode::VSUB:
        ps = 330.0 * koggeStoneScale(elem_bits);
        break;
      case Opcode::VMAX: case Opcode::VMIN:
        // compare (carry chain at lane width) + select mux
        ps = 320.0 * koggeStoneScale(elem_bits) + 25.0;
        break;
      case Opcode::VREDSUM:
        // log2(lanes) adder tree of lane-width adders; the final
        // stage dominates. Modeled as one full-width-class add plus
        // a tree factor.
        ps = 330.0 * koggeStoneScale(elem_bits) + 90.0;
        break;
      case Opcode::VMLA:
        // Late accumulator forwarding: the chained step seen by a
        // dependent VMLA is the accumulate adder plus the bypass mux
        // (the multiply happens in earlier pipe stages off the
        // non-accumulate operands).
        ps = 330.0 * koggeStoneScale(elem_bits) + 30.0;
        break;
      default:
        panic("simdDelayPs: ", opcodeName(op), " not modeled");
    }
    return applyDerate(ps);
}

Picos
TimingModel::trueSlackPs(const Inst &inst, unsigned eff_width) const
{
    const Picos d = trueDelayPs(inst, eff_width);
    return d >= config_.clock_period_ps ? 0
                                        : config_.clock_period_ps - d;
}

} // namespace redsoc
