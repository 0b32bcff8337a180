#include "isa/opcode.h"

#include "common/logging.h"

namespace redsoc {

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::AND: return "AND";
      case Opcode::BIC: return "BIC";
      case Opcode::ORR: return "ORR";
      case Opcode::EOR: return "EOR";
      case Opcode::MVN: return "MVN";
      case Opcode::TST: return "TST";
      case Opcode::TEQ: return "TEQ";
      case Opcode::MOV: return "MOV";
      case Opcode::LSL: return "LSL";
      case Opcode::LSR: return "LSR";
      case Opcode::ASR: return "ASR";
      case Opcode::ROR: return "ROR";
      case Opcode::RRX: return "RRX";
      case Opcode::ADD: return "ADD";
      case Opcode::ADC: return "ADC";
      case Opcode::SUB: return "SUB";
      case Opcode::SBC: return "SBC";
      case Opcode::RSB: return "RSB";
      case Opcode::RSC: return "RSC";
      case Opcode::CMP: return "CMP";
      case Opcode::CMN: return "CMN";
      case Opcode::MUL: return "MUL";
      case Opcode::MLA: return "MLA";
      case Opcode::SDIV: return "SDIV";
      case Opcode::UDIV: return "UDIV";
      case Opcode::FADD: return "FADD";
      case Opcode::FSUB: return "FSUB";
      case Opcode::FMUL: return "FMUL";
      case Opcode::FDIV: return "FDIV";
      case Opcode::FMIN: return "FMIN";
      case Opcode::FMAX: return "FMAX";
      case Opcode::FCVTZS: return "FCVTZS";
      case Opcode::SCVTF: return "SCVTF";
      case Opcode::LDR: return "LDR";
      case Opcode::LDRW: return "LDRW";
      case Opcode::LDRH: return "LDRH";
      case Opcode::LDRB: return "LDRB";
      case Opcode::STR: return "STR";
      case Opcode::STRW: return "STRW";
      case Opcode::STRH: return "STRH";
      case Opcode::STRB: return "STRB";
      case Opcode::VLDR: return "VLDR";
      case Opcode::VSTR: return "VSTR";
      case Opcode::VADD: return "VADD";
      case Opcode::VSUB: return "VSUB";
      case Opcode::VAND: return "VAND";
      case Opcode::VORR: return "VORR";
      case Opcode::VEOR: return "VEOR";
      case Opcode::VMAX: return "VMAX";
      case Opcode::VMIN: return "VMIN";
      case Opcode::VSHL: return "VSHL";
      case Opcode::VSHR: return "VSHR";
      case Opcode::VDUP: return "VDUP";
      case Opcode::VMOV: return "VMOV";
      case Opcode::VMUL: return "VMUL";
      case Opcode::VMLA: return "VMLA";
      case Opcode::VREDSUM: return "VREDSUM";
      case Opcode::B: return "B";
      case Opcode::BEQZ: return "BEQZ";
      case Opcode::BNEZ: return "BNEZ";
      case Opcode::BLTZ: return "BLTZ";
      case Opcode::BGEZ: return "BGEZ";
      case Opcode::BGTZ: return "BGTZ";
      case Opcode::BLEZ: return "BLEZ";
      case Opcode::BL: return "BL";
      case Opcode::RET: return "RET";
      case Opcode::HALT: return "HALT";
      default: panic("opcodeName: bad opcode ", static_cast<int>(op));
    }
}

const char *
fuClassName(FuClass fc)
{
    switch (fc) {
      case FuClass::IntAlu: return "IntAlu";
      case FuClass::IntMul: return "IntMul";
      case FuClass::IntDiv: return "IntDiv";
      case FuClass::Fp: return "Fp";
      case FuClass::FpDiv: return "FpDiv";
      case FuClass::SimdAlu: return "SimdAlu";
      case FuClass::SimdMul: return "SimdMul";
      case FuClass::MemRead: return "MemRead";
      case FuClass::MemWrite: return "MemWrite";
      case FuClass::None: return "None";
    }
    return "?";
}

const char *
vecTypeName(VecType vt)
{
    switch (vt) {
      case VecType::I8: return "i8";
      case VecType::I16: return "i16";
      case VecType::I32: return "i32";
      case VecType::I64: return "i64";
      default: panic("bad VecType");
    }
}

unsigned
vecLanes(VecType vt)
{
    return 128 / vecElemBits(vt);
}

void
badVecType(VecType vt)
{
    panic("bad VecType ", static_cast<unsigned>(vt));
}

FuClass
fuClass(Opcode op)
{
    switch (op) {
      case Opcode::AND: case Opcode::BIC: case Opcode::ORR:
      case Opcode::EOR: case Opcode::MVN: case Opcode::TST:
      case Opcode::TEQ: case Opcode::MOV: case Opcode::LSL:
      case Opcode::LSR: case Opcode::ASR: case Opcode::ROR:
      case Opcode::RRX: case Opcode::ADD: case Opcode::ADC:
      case Opcode::SUB: case Opcode::SBC: case Opcode::RSB:
      case Opcode::RSC: case Opcode::CMP: case Opcode::CMN:
      case Opcode::B: case Opcode::BEQZ: case Opcode::BNEZ:
      case Opcode::BLTZ: case Opcode::BGEZ: case Opcode::BGTZ:
      case Opcode::BLEZ: case Opcode::BL: case Opcode::RET:
        return FuClass::IntAlu;
      case Opcode::MUL: case Opcode::MLA:
        return FuClass::IntMul;
      case Opcode::SDIV: case Opcode::UDIV:
        return FuClass::IntDiv;
      case Opcode::FADD: case Opcode::FSUB: case Opcode::FMUL:
      case Opcode::FMIN: case Opcode::FMAX: case Opcode::FCVTZS:
      case Opcode::SCVTF:
        return FuClass::Fp;
      case Opcode::FDIV:
        return FuClass::FpDiv;
      case Opcode::LDR: case Opcode::LDRW: case Opcode::LDRH:
      case Opcode::LDRB: case Opcode::VLDR:
        return FuClass::MemRead;
      case Opcode::STR: case Opcode::STRW: case Opcode::STRH:
      case Opcode::STRB: case Opcode::VSTR:
        return FuClass::MemWrite;
      case Opcode::VADD: case Opcode::VSUB: case Opcode::VAND:
      case Opcode::VORR: case Opcode::VEOR: case Opcode::VMAX:
      case Opcode::VMIN: case Opcode::VSHL: case Opcode::VSHR:
      case Opcode::VDUP: case Opcode::VMOV: case Opcode::VREDSUM:
        return FuClass::SimdAlu;
      case Opcode::VMUL: case Opcode::VMLA:
        return FuClass::SimdMul;
      case Opcode::HALT:
        return FuClass::None;
      default: panic("fuClass: bad opcode");
    }
}

AluKind
aluKind(Opcode op)
{
    switch (op) {
      case Opcode::AND: case Opcode::BIC: case Opcode::ORR:
      case Opcode::EOR: case Opcode::MVN: case Opcode::TST:
      case Opcode::TEQ:
        return AluKind::Logic;
      case Opcode::MOV: case Opcode::LSL: case Opcode::LSR:
      case Opcode::ASR: case Opcode::ROR: case Opcode::RRX:
        return AluKind::MoveShift;
      case Opcode::ADD: case Opcode::ADC: case Opcode::SUB:
      case Opcode::SBC: case Opcode::RSB: case Opcode::RSC:
      case Opcode::CMP: case Opcode::CMN:
      // Conditional branches resolve through the adder/comparator.
      case Opcode::BEQZ: case Opcode::BNEZ: case Opcode::BLTZ:
      case Opcode::BGEZ: case Opcode::BGTZ: case Opcode::BLEZ:
        return AluKind::Arith;
      default:
        return AluKind::NotAlu;
    }
}

bool
isIntAlu(Opcode op)
{
    return fuClass(op) == FuClass::IntAlu;
}

bool
isSimdAlu(Opcode op)
{
    return fuClass(op) == FuClass::SimdAlu;
}

bool
isLoad(Opcode op)
{
    return fuClass(op) == FuClass::MemRead;
}

bool
isStore(Opcode op)
{
    return fuClass(op) == FuClass::MemWrite;
}

bool
isMem(Opcode op)
{
    return isLoad(op) || isStore(op);
}

bool
isBranch(Opcode op)
{
    switch (op) {
      case Opcode::B: case Opcode::BEQZ: case Opcode::BNEZ:
      case Opcode::BLTZ: case Opcode::BGEZ: case Opcode::BGTZ:
      case Opcode::BLEZ: case Opcode::BL: case Opcode::RET:
        return true;
      default:
        return false;
    }
}

bool
isCondBranch(Opcode op)
{
    switch (op) {
      case Opcode::BEQZ: case Opcode::BNEZ: case Opcode::BLTZ:
      case Opcode::BGEZ: case Opcode::BGTZ: case Opcode::BLEZ:
        return true;
      default:
        return false;
    }
}

bool
isSimd(Opcode op)
{
    switch (fuClass(op)) {
      case FuClass::SimdAlu: case FuClass::SimdMul:
        return true;
      default:
        return op == Opcode::VLDR || op == Opcode::VSTR;
    }
}

bool
isFp(Opcode op)
{
    FuClass fc = fuClass(op);
    return fc == FuClass::Fp || fc == FuClass::FpDiv;
}

unsigned
memAccessSize(Opcode op)
{
    switch (op) {
      case Opcode::LDR: case Opcode::STR: return 8;
      case Opcode::LDRW: case Opcode::STRW: return 4;
      case Opcode::LDRH: case Opcode::STRH: return 2;
      case Opcode::LDRB: case Opcode::STRB: return 1;
      case Opcode::VLDR: case Opcode::VSTR: return 16;
      default: panic("memAccessSize on non-memory opcode ",
                     opcodeName(op));
    }
}

unsigned
fuLatency(FuClass fc)
{
    switch (fc) {
      case FuClass::IntAlu: return 1;
      case FuClass::IntMul: return 3;
      case FuClass::IntDiv: return 12;
      case FuClass::Fp: return 4;
      case FuClass::FpDiv: return 16;
      case FuClass::SimdAlu: return 1;
      case FuClass::SimdMul: return 4;
      // Memory latency comes from the cache hierarchy, not here;
      // this is the address-generation + pipeline cost.
      case FuClass::MemRead: return 1;
      case FuClass::MemWrite: return 1;
      case FuClass::None: return 1;
      default: panic("fuLatency: bad class");
    }
}

bool
fuPipelined(FuClass fc)
{
    switch (fc) {
      case FuClass::IntDiv: case FuClass::FpDiv:
        return false;
      default:
        return true;
    }
}

} // namespace redsoc
