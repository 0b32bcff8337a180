#include "func/interpreter.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/bitutils.h"
#include "common/logging.h"
#include "isa/disasm.h"
#include "sim/profile.h"

namespace redsoc {

namespace {

/** Trace emission block size (ops resized ahead per chunk). */
constexpr SeqNum kTraceChunk = 4096;

double
bitsToDouble(u64 raw)
{
    double v;
    std::memcpy(&v, &raw, sizeof(v));
    return v;
}

u64
doubleToBits(double v)
{
    u64 raw;
    std::memcpy(&raw, &v, sizeof(raw));
    return raw;
}

/** reg/setReg's failure path. stepInto reads and writes registers
 *  at some twenty sites; kept out of line, the check inlined at each
 *  is a compare and a branch, not a formatted panic that spends the
 *  whole-library inline budget (DESIGN.md §12). */
[[noreturn, gnu::cold, gnu::noinline]] void
badRegIndex(RegIdx r)
{
    panic("scalar reg index ", unsigned{r}, " out of range");
}

} // namespace

Interpreter::Interpreter(std::shared_ptr<const Program> program,
                         MemoryImage &memory)
    : program_(std::move(program)), memory_(memory)
{
    panic_if(!program_, "interpreter without program");
}

u64
Interpreter::reg(RegIdx r) const
{
    if (r >= kNumIntRegs) [[unlikely]]
        badRegIndex(r);
    return r == kZeroReg ? 0 : xregs_[r];
}

void
Interpreter::setReg(RegIdx r, u64 value)
{
    if (r >= kNumIntRegs) [[unlikely]]
        badRegIndex(r);
    if (r != kZeroReg)
        xregs_[r] = value;
}

u64
Interpreter::shiftedValue(u64 value, ShiftKind kind, unsigned amount) const
{
    amount &= 63;
    switch (kind) {
      case ShiftKind::None: return value;
      case ShiftKind::Lsl: return value << amount;
      case ShiftKind::Lsr: return value >> amount;
      case ShiftKind::Asr:
        return static_cast<u64>(static_cast<s64>(value) >> amount);
      case ShiftKind::Ror:
        return amount == 0 ? value
                           : (value >> amount) | (value << (64 - amount));
      default: panic("bad shift kind");
    }
}

u64
Interpreter::readOperand2(const Inst &inst) const
{
    u64 value = 0;
    if (inst.use_imm)
        value = static_cast<u64>(inst.imm);
    else if (inst.src2 != kNoReg)
        value = reg(inst.src2);
    return shiftedValue(value, inst.op2_shift, inst.shamt);
}

Addr
Interpreter::effectiveAddress(const Inst &inst) const
{
    Addr base = reg(inst.src1);
    if (inst.use_imm)
        return base + static_cast<u64>(inst.imm);
    if (inst.src2 != kNoReg)
        return base + (reg(inst.src2) << inst.shamt);
    return base;
}

u16
Interpreter::intAluEffWidth(const Inst &inst, u64 op2) const
{
    // Width-slack analysis: the carry/propagation chain is bounded by
    // the widest participating operand value.
    unsigned width = 1;
    if (inst.src1 != kNoReg)
        width = std::max(width, effectiveWidth(reg(inst.src1)));
    switch (inst.op) {
      case Opcode::MVN: case Opcode::MOV:
        // Single-operand data movement: op2 only matters when used.
        if (inst.use_imm || inst.src2 != kNoReg)
            width = std::max(width, effectiveWidth(op2));
        break;
      default:
        if (inst.use_imm || inst.src2 != kNoReg)
            width = std::max(width, effectiveWidth(op2));
        break;
    }
    return static_cast<u16>(width);
}

void
Interpreter::stepInto(DynOp &dyn)
{
    const Inst &inst = program_->inst(pc_);
    dyn = DynOp{};
    dyn.pc = pc_;
    u32 next = pc_ + 1;

    const Opcode op = inst.op;

    if (isIntAlu(op) && !isBranch(op)) {
        const u64 a = inst.src1 != kNoReg ? reg(inst.src1) : 0;
        const u64 b = readOperand2(inst);
        u64 result = 0;
        switch (op) {
          case Opcode::AND: result = a & b; break;
          case Opcode::BIC: result = a & ~b; break;
          case Opcode::ORR: result = a | b; break;
          case Opcode::EOR: result = a ^ b; break;
          case Opcode::MVN: result = ~(inst.use_imm || inst.src2 != kNoReg
                                           ? b : a); break;
          case Opcode::TST: result = (a & b) != 0; break;
          case Opcode::TEQ: result = (a ^ b) != 0; break;
          case Opcode::MOV: result = (inst.use_imm || inst.src2 != kNoReg)
                                         ? b : a; break;
          case Opcode::LSL: result = a << (b & 63); break;
          case Opcode::LSR: result = a >> (b & 63); break;
          case Opcode::ASR:
            result = static_cast<u64>(static_cast<s64>(a) >> (b & 63));
            break;
          case Opcode::ROR:
            result = shiftedValue(a, ShiftKind::Ror, b & 63);
            break;
          case Opcode::RRX:
            result = shiftedValue(a, ShiftKind::Ror, 1);
            break;
          case Opcode::ADD: result = a + b; break;
          case Opcode::ADC: result = a + b + 1; break;
          case Opcode::SUB: result = a - b; break;
          case Opcode::SBC: result = a - b - 1; break;
          case Opcode::RSB: result = b - a; break;
          case Opcode::RSC: result = b - a - 1; break;
          case Opcode::CMP: {
            const s64 sa = static_cast<s64>(a), sb = static_cast<s64>(b);
            result = sa < sb ? static_cast<u64>(-1) : (sa > sb ? 1 : 0);
            break;
          }
          case Opcode::CMN: {
            const s64 sum = static_cast<s64>(a + b);
            result = sum < 0 ? static_cast<u64>(-1) : (sum > 0 ? 1 : 0);
            break;
          }
          default: panic("unhandled ALU op ", opcodeName(op));
        }
        if (inst.dst != kNoReg)
            setReg(inst.dst, result);
        dyn.eff_width = intAluEffWidth(inst, b);
    } else if (op == Opcode::MUL || op == Opcode::MLA ||
               op == Opcode::SDIV || op == Opcode::UDIV) {
        const u64 a = reg(inst.src1);
        const u64 b = reg(inst.src2);
        u64 result = 0;
        switch (op) {
          case Opcode::MUL: result = a * b; break;
          case Opcode::MLA: result = a * b + reg(inst.src3); break;
          case Opcode::SDIV:
            if (b == 0) {
                result = 0; // ARM semantics: divide by zero gives 0
            } else if (static_cast<s64>(a) ==
                           std::numeric_limits<s64>::min() &&
                       static_cast<s64>(b) == -1) {
                result = a; // overflow wraps (ARM), avoid native trap
            } else {
                result = static_cast<u64>(static_cast<s64>(a) /
                                          static_cast<s64>(b));
            }
            break;
          case Opcode::UDIV: result = b == 0 ? 0 : a / b; break;
          default: panic("unreachable");
        }
        setReg(inst.dst, result);
        dyn.eff_width = static_cast<u16>(
            std::max(effectiveWidth(a), effectiveWidth(b)));
    } else if (isFp(op)) {
        u64 result = 0;
        switch (op) {
          case Opcode::FADD:
            result = doubleToBits(bitsToDouble(reg(inst.src1)) +
                           bitsToDouble(reg(inst.src2)));
            break;
          case Opcode::FSUB:
            result = doubleToBits(bitsToDouble(reg(inst.src1)) -
                           bitsToDouble(reg(inst.src2)));
            break;
          case Opcode::FMUL:
            result = doubleToBits(bitsToDouble(reg(inst.src1)) *
                           bitsToDouble(reg(inst.src2)));
            break;
          case Opcode::FDIV:
            result = doubleToBits(bitsToDouble(reg(inst.src1)) /
                           bitsToDouble(reg(inst.src2)));
            break;
          case Opcode::FMIN:
            result = doubleToBits(std::fmin(bitsToDouble(reg(inst.src1)),
                                     bitsToDouble(reg(inst.src2))));
            break;
          case Opcode::FMAX:
            result = doubleToBits(std::fmax(bitsToDouble(reg(inst.src1)),
                                     bitsToDouble(reg(inst.src2))));
            break;
          case Opcode::FCVTZS:
            result = static_cast<u64>(
                static_cast<s64>(bitsToDouble(reg(inst.src1))));
            break;
          case Opcode::SCVTF:
            result = doubleToBits(
                static_cast<double>(static_cast<s64>(reg(inst.src1))));
            break;
          default: panic("unhandled FP op");
        }
        setReg(inst.dst, result);
    } else if (isMem(op)) {
        const Addr addr = effectiveAddress(inst);
        dyn.mem_addr = addr;
        if (op == Opcode::VLDR) {
            vregs_[inst.dst - kVecRegBase] = memory_.readVec(addr);
        } else if (op == Opcode::VSTR) {
            memory_.writeVec(addr, vregs_[inst.src3 - kVecRegBase]);
        } else if (isLoad(op)) {
            const u64 value = memory_.read(addr, memAccessSize(op));
            setReg(inst.dst, value);
        } else {
            memory_.write(addr, reg(inst.src3), memAccessSize(op));
        }
    } else if (isSimd(op)) {
        const VecType vt = inst.vtype;
        const unsigned lanes = vecLanes(vt);
        Vec128 result;
        auto va = [&] { return vregs_[inst.src1 - kVecRegBase]; };
        auto vb = [&] { return vregs_[inst.src2 - kVecRegBase]; };
        switch (op) {
          case Opcode::VADD:
            for (unsigned l = 0; l < lanes; ++l)
                result.setLane(vt, l, va().lane(vt, l) + vb().lane(vt, l));
            break;
          case Opcode::VSUB:
            for (unsigned l = 0; l < lanes; ++l)
                result.setLane(vt, l, va().lane(vt, l) - vb().lane(vt, l));
            break;
          case Opcode::VAND:
            result = Vec128{va().lo & vb().lo, va().hi & vb().hi};
            break;
          case Opcode::VORR:
            result = Vec128{va().lo | vb().lo, va().hi | vb().hi};
            break;
          case Opcode::VEOR:
            result = Vec128{va().lo ^ vb().lo, va().hi ^ vb().hi};
            break;
          case Opcode::VMAX:
            for (unsigned l = 0; l < lanes; ++l)
                result.setLane(vt, l, static_cast<u64>(
                    std::max(va().laneSigned(vt, l),
                             vb().laneSigned(vt, l))));
            break;
          case Opcode::VMIN:
            for (unsigned l = 0; l < lanes; ++l)
                result.setLane(vt, l, static_cast<u64>(
                    std::min(va().laneSigned(vt, l),
                             vb().laneSigned(vt, l))));
            break;
          case Opcode::VSHL:
            for (unsigned l = 0; l < lanes; ++l)
                result.setLane(vt, l,
                               va().lane(vt, l)
                                   << (inst.imm & (vecElemBits(vt) - 1)));
            break;
          case Opcode::VSHR:
            for (unsigned l = 0; l < lanes; ++l)
                result.setLane(vt, l,
                               va().lane(vt, l) >>
                                   (inst.imm & (vecElemBits(vt) - 1)));
            break;
          case Opcode::VDUP:
            for (unsigned l = 0; l < lanes; ++l)
                result.setLane(vt, l, reg(inst.src1));
            break;
          case Opcode::VMOV:
            result = va();
            break;
          case Opcode::VMUL:
            for (unsigned l = 0; l < lanes; ++l)
                result.setLane(vt, l, va().lane(vt, l) * vb().lane(vt, l));
            break;
          case Opcode::VMLA: {
            const Vec128 acc = vregs_[inst.src3 - kVecRegBase];
            for (unsigned l = 0; l < lanes; ++l)
                result.setLane(vt, l,
                               acc.lane(vt, l) +
                                   va().lane(vt, l) * vb().lane(vt, l));
            break;
          }
          case Opcode::VREDSUM: {
            u64 sum = 0;
            for (unsigned l = 0; l < lanes; ++l)
                sum += va().lane(vt, l);
            setReg(inst.dst, sum);
            dyn.eff_width = static_cast<u16>(vecElemBits(vt));
            pc_ = next;
            return;
          }
          default: panic("unhandled SIMD op ", opcodeName(op));
        }
        if (isVecReg(inst.dst))
            vregs_[inst.dst - kVecRegBase] = result;
        // Type-Slack: the datapath precision comes from the ISA.
        dyn.eff_width = static_cast<u16>(vecElemBits(vt));
    } else if (isBranch(op)) {
        const s64 test =
            inst.src1 != kNoReg ? static_cast<s64>(reg(inst.src1)) : 0;
        bool taken = false;
        switch (op) {
          case Opcode::B: taken = true; break;
          case Opcode::BEQZ: taken = test == 0; break;
          case Opcode::BNEZ: taken = test != 0; break;
          case Opcode::BLTZ: taken = test < 0; break;
          case Opcode::BGEZ: taken = test >= 0; break;
          case Opcode::BGTZ: taken = test > 0; break;
          case Opcode::BLEZ: taken = test <= 0; break;
          case Opcode::BL:
            setReg(kLinkReg, pc_ + 1);
            taken = true;
            break;
          case Opcode::RET: taken = true; break;
          default: panic("unhandled branch");
        }
        dyn.taken = taken;
        dyn.eff_width = static_cast<u16>(
            effectiveWidth(static_cast<u64>(test)));
        if (taken)
            next = op == Opcode::RET
                       ? static_cast<u32>(reg(kLinkReg))
                       : inst.target;
    } else if (op == Opcode::HALT) {
        halted_ = true;
        next = pc_;
    } else {
        panic("unhandled opcode ", opcodeName(op), " in ",
              disassemble(inst));
    }

    pc_ = next;
}

Trace
Interpreter::run(SeqNum max_ops)
{
    prof::ScopedTimer tt(prof::Phase::TraceBuild);
    std::vector<DynOp> ops;
    ops.reserve(std::min<SeqNum>(max_ops, 1 << 20));
    // Chunked emission: grow the trace a block at a time and fill the
    // slots in place, so the decode/execute loop carries no per-op
    // size/capacity bookkeeping or construct-then-move cost.
    const u32 psize = program_->size();
    size_t n = 0;
    while (!halted_ && n < max_ops) {
        const size_t chunk = static_cast<size_t>(
            std::min<SeqNum>(kTraceChunk, max_ops - n));
        ops.resize(n + chunk);
        DynOp *out = ops.data() + n;
        size_t filled = 0;
        while (filled < chunk && !halted_) {
            fatal_if(pc_ >= psize, "pc ", pc_, " fell off program '",
                     program_->name(), "'");
            stepInto(out[filled]);
            ++filled;
        }
        n += filled;
    }
    ops.resize(n); // trim the unfilled tail of the last chunk
    return Trace(program_, std::move(ops), pc_);
}

Trace
traceProgram(std::shared_ptr<const Program> program, MemoryImage &memory,
             SeqNum max_ops)
{
    Interpreter interp(std::move(program), memory);
    return interp.run(max_ops);
}

} // namespace redsoc
