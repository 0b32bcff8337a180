/**
 * @file
 * The µISA opcode set: an ARM-flavoured mix covering every operation
 * class in the paper's Fig.1 (logical, move/shift, arithmetic,
 * arithmetic with shifted second operand), plus multi-cycle integer,
 * floating point, NEON-style SIMD, memory and control flow.
 */

#ifndef REDSOC_ISA_OPCODE_H
#define REDSOC_ISA_OPCODE_H

#include <string_view>

#include "common/types.h"

namespace redsoc {

enum class Opcode : u8 {
    // Logical (single-cycle, width-independent delay)
    AND, BIC, ORR, EOR, MVN, TST, TEQ,
    // Moves and shifts (single-cycle)
    MOV, LSL, LSR, ASR, ROR, RRX,
    // Arithmetic (single-cycle, carry-chain width-dependent delay)
    ADD, ADC, SUB, SBC, RSB, RSC, CMP, CMN,
    // Multi-cycle integer
    MUL, MLA, SDIV, UDIV,
    // Floating point (multi-cycle; operate on the scalar reg file,
    // bits interpreted as IEEE double)
    FADD, FSUB, FMUL, FDIV, FMIN, FMAX, FCVTZS, SCVTF,
    // Memory (scalar)
    LDR, LDRW, LDRH, LDRB, STR, STRW, STRH, STRB,
    // Memory (vector, 128-bit)
    VLDR, VSTR,
    // SIMD integer (NEON-like on 128-bit vector regs; single-cycle
    // ALU-class ops are slack-eligible, per element type)
    VADD, VSUB, VAND, VORR, VEOR, VMAX, VMIN, VSHL, VSHR, VDUP, VMOV,
    // SIMD multiply / multiply-accumulate. VMLA supports late
    // forwarding of the accumulator operand: back-to-back VMLA chains
    // behave as single-cycle on the accumulate path (A57 SWOG).
    VMUL, VMLA,
    // SIMD horizontal reduce (sum of lanes into scalar reg)
    VREDSUM,
    // Control
    B, BEQZ, BNEZ, BLTZ, BGEZ, BGTZ, BLEZ, BL, RET,
    HALT,

    NUM_OPCODES,
};

/** Shift applied to the second operand of a data op (ARM op2). */
enum class ShiftKind : u8 { None, Lsl, Lsr, Asr, Ror };

/** SIMD element type (sub-word parallel precision). */
enum class VecType : u8 { I8, I16, I32, I64 };

/** Lanes in a 128-bit vector for an element type. */
unsigned vecLanes(VecType vt);

/** vecElemBits' failure path: out of line, so the accessor stays a
 *  compare and a shift that inlines into every lane access
 *  (DESIGN.md §12). */
[[noreturn, gnu::cold, gnu::noinline]] void badVecType(VecType vt);

/** Element width in bits: 8 << vt over I8..I64. */
inline unsigned
vecElemBits(VecType vt)
{
    const unsigned v = static_cast<unsigned>(vt);
    if (v > static_cast<unsigned>(VecType::I64)) [[unlikely]]
        badVecType(vt);
    return 8u << v;
}

/** Functional-unit class an opcode executes on. */
enum class FuClass : u8 {
    IntAlu,    ///< single-cycle integer (incl. branches)
    IntMul,    ///< pipelined multi-cycle integer multiply
    IntDiv,    ///< unpipelined integer divide
    Fp,        ///< pipelined floating point add/mul/cvt
    FpDiv,     ///< unpipelined floating-point divide
    SimdAlu,   ///< single-cycle SIMD integer
    SimdMul,   ///< pipelined SIMD multiply / multiply-accumulate
    MemRead,
    MemWrite,
    None,      ///< HALT
};

/** FU classes, None included. */
inline constexpr size_t kNumFuClasses =
    static_cast<size_t>(FuClass::None) + 1;

/** Stable name ("IntAlu") for trace tracks and metric tables. */
const char *fuClassName(FuClass fc);

/** Slack category of a single-cycle operation (Sec.II-B LUT axes). */
enum class AluKind : u8 {
    Logic,     ///< bitwise; no carry chain
    MoveShift, ///< moves, shifts, rotates
    Arith,     ///< carry-chain ops (add/sub/compare family)
    NotAlu,    ///< not a single-cycle scalar integer op
};

const char *opcodeName(Opcode op);
const char *vecTypeName(VecType vt);

FuClass fuClass(Opcode op);
AluKind aluKind(Opcode op);

/** True for single-cycle scalar-integer ops (slack-recycling targets). */
bool isIntAlu(Opcode op);

/** True for SIMD ops that are single-cycle / slack-eligible. */
bool isSimdAlu(Opcode op);

bool isLoad(Opcode op);
bool isStore(Opcode op);
bool isMem(Opcode op);
bool isBranch(Opcode op);
bool isCondBranch(Opcode op);
bool isSimd(Opcode op);
bool isFp(Opcode op);

/** Memory access size in bytes (loads/stores only). */
unsigned memAccessSize(Opcode op);

/** Execution latency in cycles for multi-cycle classes. */
unsigned fuLatency(FuClass fc);

/** True if the FU class is pipelined (can accept an op per cycle). */
bool fuPipelined(FuClass fc);

} // namespace redsoc

#endif // REDSOC_ISA_OPCODE_H
