/**
 * @file
 * Functional-interpreter tests: scalar/SIMD/memory/control semantics,
 * trace contents (effective widths, branch outcomes, addresses), and
 * the memory image.
 */

#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "func/interpreter.h"
#include "isa/builder.h"

namespace redsoc {
namespace {

u64
runAndReadReg(ProgramBuilder &b, RegIdx r, MemoryImage *mem = nullptr)
{
    MemoryImage local;
    MemoryImage &m = mem ? *mem : local;
    auto program = std::make_shared<const Program>(b.build());
    Interpreter interp(program, m);
    interp.run();
    return interp.reg(r);
}

TEST(MemoryImage, ScalarReadWriteLittleEndian)
{
    MemoryImage mem;
    mem.write(0x1000, 0x1122334455667788ull, 8);
    EXPECT_EQ(mem.read(0x1000, 8), 0x1122334455667788ull);
    EXPECT_EQ(mem.read(0x1000, 1), 0x88u);
    EXPECT_EQ(mem.read(0x1001, 2), 0x6677u);
    EXPECT_EQ(mem.read(0x1004, 4), 0x11223344u);
}

TEST(MemoryImage, UntouchedMemoryReadsZero)
{
    MemoryImage mem;
    EXPECT_EQ(mem.read(0xdeadbeef, 8), 0u);
    EXPECT_EQ(mem.residentBlocks(), 0u);
}

TEST(MemoryImage, CrossBlockAccess)
{
    MemoryImage mem;
    const Addr addr = 3 * MemoryImage::kBlockSize - 2; // straddles a block
    mem.write(addr, 0xAABBCCDD, 4);
    EXPECT_EQ(mem.read(addr, 4), 0xAABBCCDDu);
    EXPECT_EQ(mem.read(addr + 2, 2), 0xAABBu); // the second block alone
    EXPECT_EQ(mem.residentBlocks(), 2u);
}

TEST(MemoryImage, FillSpansBlocks)
{
    MemoryImage mem;
    std::vector<u8> data(3 * MemoryImage::kBlockSize);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<u8>(i * 7 + 1);
    const Addr base = 0x5000 + 17; // unaligned: a partial first block
    mem.fill(base, data);
    for (size_t i = 0; i < data.size(); ++i)
        ASSERT_EQ(mem.peek8(base + i), data[i]) << i;
    EXPECT_EQ(mem.read(base - 1, 1), 0u);
    EXPECT_EQ(mem.read(base + data.size(), 1), 0u);
    EXPECT_EQ(mem.residentBlocks(), 4u);
}

TEST(MemoryImage, VectorAndDoubleHelpers)
{
    MemoryImage mem;
    mem.writeVec(0x100, Vec128{0x1111, 0x2222});
    const Vec128 v = mem.readVec(0x100);
    EXPECT_EQ(v.lo, 0x1111u);
    EXPECT_EQ(v.hi, 0x2222u);
    mem.pokeF64(0x200, 2.5);
    EXPECT_DOUBLE_EQ(mem.peekF64(0x200), 2.5);
}

TEST(Vec128, LaneAccessors)
{
    Vec128 v;
    v.setLane(VecType::I16, 0, 0x1234);
    v.setLane(VecType::I16, 7, 0xFFFF);
    EXPECT_EQ(v.lane(VecType::I16, 0), 0x1234u);
    EXPECT_EQ(v.lane(VecType::I16, 7), 0xFFFFu);
    EXPECT_EQ(v.laneSigned(VecType::I16, 7), -1);
    v.setLane(VecType::I8, 15, 0xAB);
    EXPECT_EQ(v.lane(VecType::I8, 15), 0xABu);
}

TEST(Interpreter, LogicalAndMoveSemantics)
{
    ProgramBuilder b("logic");
    b.movImm(x(1), 0xF0F0);
    b.movImm(x(2), 0x0FF0);
    b.alu(Opcode::AND, x(3), x(1), x(2));
    b.alu(Opcode::ORR, x(4), x(1), x(2));
    b.alu(Opcode::EOR, x(5), x(1), x(2));
    b.alu(Opcode::BIC, x(6), x(1), x(2));
    b.mvn(x(7), x(1));
    b.alu(Opcode::TST, x(8), x(1), x(2));
    b.alu(Opcode::TEQ, x(9), x(1), x(2));
    b.halt();

    MemoryImage mem;
    auto program = std::make_shared<const Program>(b.build());
    Interpreter interp(program, mem);
    interp.run();
    EXPECT_EQ(interp.reg(x(3)), 0x00F0u);
    EXPECT_EQ(interp.reg(x(4)), 0xFFF0u);
    EXPECT_EQ(interp.reg(x(5)), 0xFF00u);
    EXPECT_EQ(interp.reg(x(6)), 0xF000u);
    EXPECT_EQ(interp.reg(x(7)), ~u64{0xF0F0});
    EXPECT_EQ(interp.reg(x(8)), 1u);
    EXPECT_EQ(interp.reg(x(9)), 1u);
}

TEST(Interpreter, ShiftsAndRotates)
{
    ProgramBuilder b("shift");
    b.movImm(x(1), 0x80000000000000F1ull);
    b.lslImm(x(2), x(1), 4);
    b.lsrImm(x(3), x(1), 4);
    b.asrImm(x(4), x(1), 4);
    b.rorImm(x(5), x(1), 4);
    b.halt();

    MemoryImage mem;
    auto program = std::make_shared<const Program>(b.build());
    Interpreter interp(program, mem);
    interp.run();
    EXPECT_EQ(interp.reg(x(2)), 0x0000000000000F10ull);
    EXPECT_EQ(interp.reg(x(3)), 0x080000000000000Full);
    EXPECT_EQ(interp.reg(x(4)), 0xF80000000000000Full);
    EXPECT_EQ(interp.reg(x(5)), 0x180000000000000Full);
}

TEST(Interpreter, ArithmeticIncludingCompare)
{
    ProgramBuilder b("arith");
    b.movImm(x(1), 100);
    b.movImm(x(2), 30);
    b.alu(Opcode::ADD, x(3), x(1), x(2));
    b.alu(Opcode::SUB, x(4), x(1), x(2));
    b.alu(Opcode::RSB, x(5), x(1), x(2));
    b.alu(Opcode::CMP, x(6), x(1), x(2));
    b.alu(Opcode::CMP, x(7), x(2), x(1));
    b.alu(Opcode::CMP, x(8), x(1), x(1));
    b.halt();

    MemoryImage mem;
    auto program = std::make_shared<const Program>(b.build());
    Interpreter interp(program, mem);
    interp.run();
    EXPECT_EQ(interp.reg(x(3)), 130u);
    EXPECT_EQ(interp.reg(x(4)), 70u);
    EXPECT_EQ(interp.reg(x(5)), static_cast<u64>(-70));
    EXPECT_EQ(interp.reg(x(6)), 1u);
    EXPECT_EQ(interp.reg(x(7)), static_cast<u64>(-1));
    EXPECT_EQ(interp.reg(x(8)), 0u);
}

TEST(Interpreter, ShiftedOperandForm)
{
    ProgramBuilder b("shop");
    b.movImm(x(1), 100);
    b.movImm(x(2), 7);
    b.aluShifted(Opcode::ADD, x(3), x(1), x(2), ShiftKind::Lsl, 3);
    b.aluShifted(Opcode::SUB, x(4), x(1), x(2), ShiftKind::Lsl, 2);
    b.halt();
    EXPECT_EQ(runAndReadReg(b, x(3)), 100u + (7u << 3));
}

TEST(Interpreter, MultiplyDivide)
{
    ProgramBuilder b("muldiv");
    b.movImm(x(1), 12);
    b.movImm(x(2), -5);
    b.mul(x(3), x(1), x(2));
    b.movImm(x(4), 7);
    b.mla(x(5), x(1), x(4), x(1)); // 12*7 + 12
    b.sdiv(x(6), x(2), x(1));      // -5 / 12 == 0
    b.movImm(x(7), 100);
    b.movImm(x(8), 7);
    b.udiv(x(9), x(7), x(8));
    b.sdiv(x(10), x(7), kZeroReg); // div by zero -> 0
    b.halt();

    MemoryImage mem;
    auto program = std::make_shared<const Program>(b.build());
    Interpreter interp(program, mem);
    interp.run();
    EXPECT_EQ(interp.reg(x(3)), static_cast<u64>(-60));
    EXPECT_EQ(interp.reg(x(5)), 96u);
    EXPECT_EQ(interp.reg(x(6)), 0u);
    EXPECT_EQ(interp.reg(x(9)), 14u);
    EXPECT_EQ(interp.reg(x(10)), 0u);
}

TEST(Interpreter, FloatingPoint)
{
    ProgramBuilder b("fp");
    b.fmovImm(x(1), 2.5);
    b.fmovImm(x(2), 4.0);
    b.fop(Opcode::FADD, x(3), x(1), x(2));
    b.fop(Opcode::FMUL, x(4), x(1), x(2));
    b.fop(Opcode::FDIV, x(5), x(2), x(1));
    b.fop(Opcode::FMAX, x(6), x(1), x(2));
    b.fcvtzs(x(7), x(4));
    b.movImm(x(8), -3);
    b.scvtf(x(9), x(8));
    b.halt();

    MemoryImage mem;
    auto program = std::make_shared<const Program>(b.build());
    Interpreter interp(program, mem);
    interp.run();
    auto as_double = [&](RegIdx r) {
        double d;
        const u64 raw = interp.reg(r);
        std::memcpy(&d, &raw, sizeof(d));
        return d;
    };
    EXPECT_DOUBLE_EQ(as_double(x(3)), 6.5);
    EXPECT_DOUBLE_EQ(as_double(x(4)), 10.0);
    EXPECT_DOUBLE_EQ(as_double(x(5)), 1.6);
    EXPECT_DOUBLE_EQ(as_double(x(6)), 4.0);
    EXPECT_EQ(interp.reg(x(7)), 10u);
    EXPECT_DOUBLE_EQ(as_double(x(9)), -3.0);
}

TEST(Interpreter, LoadsStoresAndAddressing)
{
    MemoryImage mem;
    mem.poke64(0x1000, 0xCAFEBABEDEADBEEFull);
    ProgramBuilder b("mem");
    b.movImm(x(1), 0x1000);
    b.load(Opcode::LDR, x(2), x(1), 0);
    b.load(Opcode::LDRB, x(3), x(1), 0); // 0xEF
    b.load(Opcode::LDRH, x(4), x(1), 0); // 0xBEEF
    b.load(Opcode::LDRW, x(5), x(1), 4); // 0xCAFEBABE
    b.movImm(x(6), 2);
    b.loadIdx(Opcode::LDRB, x(7), x(1), x(6), 1); // byte at +4: 0xBE
    b.store(Opcode::STRW, x(5), x(1), 8);
    b.load(Opcode::LDRW, x(8), x(1), 8);
    b.halt();

    auto program = std::make_shared<const Program>(b.build());
    Interpreter interp(program, mem);
    interp.run();
    EXPECT_EQ(interp.reg(x(2)), 0xCAFEBABEDEADBEEFull);
    EXPECT_EQ(interp.reg(x(3)), 0xEFu);
    EXPECT_EQ(interp.reg(x(4)), 0xBEEFu);
    EXPECT_EQ(interp.reg(x(5)), 0xCAFEBABEu);
    EXPECT_EQ(interp.reg(x(7)), 0xBEu);
    EXPECT_EQ(interp.reg(x(8)), 0xCAFEBABEu);
}

TEST(Interpreter, SimdLaneOperations)
{
    MemoryImage mem;
    for (unsigned i = 0; i < 8; ++i) {
        mem.poke16(0x100 + 2 * i, static_cast<u16>(i + 1));
        mem.poke16(0x200 + 2 * i, static_cast<u16>(10 * (i + 1)));
    }
    ProgramBuilder b("simd");
    b.movImm(x(1), 0x100);
    b.movImm(x(2), 0x200);
    b.vldr(v(0), x(1), 0);
    b.vldr(v(1), x(2), 0);
    b.vop(Opcode::VADD, v(2), v(0), v(1), VecType::I16);
    b.vmla(v(3), v(0), v(1), VecType::I16); // v3 starts at 0
    b.vop(Opcode::VMAX, v(4), v(0), v(1), VecType::I16);
    b.vshiftImm(Opcode::VSHR, v(5), v(1), 1, VecType::I16);
    b.vredsum(x(3), v(0), VecType::I16); // 1+..+8 = 36
    b.movImm(x(4), 5);
    b.vdup(v(6), x(4), VecType::I16);
    b.movImm(x(5), 0x300);
    b.vstr(v(2), x(5), 0);
    b.halt();

    auto program = std::make_shared<const Program>(b.build());
    Interpreter interp(program, mem);
    interp.run();
    EXPECT_EQ(interp.vecReg(2).lane(VecType::I16, 0), 11u);
    EXPECT_EQ(interp.vecReg(2).lane(VecType::I16, 7), 88u);
    EXPECT_EQ(interp.vecReg(3).lane(VecType::I16, 3), 4u * 40);
    EXPECT_EQ(interp.vecReg(4).lane(VecType::I16, 2), 30u);
    EXPECT_EQ(interp.vecReg(5).lane(VecType::I16, 1), 10u);
    EXPECT_EQ(interp.reg(x(3)), 36u);
    EXPECT_EQ(interp.vecReg(6).lane(VecType::I16, 5), 5u);
    EXPECT_EQ(mem.read(0x300, 2), 11u);
}

TEST(Interpreter, SimdSignedMinMax)
{
    ProgramBuilder b("sminmax");
    b.movImm(x(1), static_cast<s64>(static_cast<u16>(-5)));
    b.vdup(v(0), x(1), VecType::I16); // all lanes -5
    b.movImm(x(2), 3);
    b.vdup(v(1), x(2), VecType::I16);
    b.vop(Opcode::VMAX, v(2), v(0), v(1), VecType::I16);
    b.vop(Opcode::VMIN, v(3), v(0), v(1), VecType::I16);
    b.halt();

    MemoryImage mem;
    auto program = std::make_shared<const Program>(b.build());
    Interpreter interp(program, mem);
    interp.run();
    EXPECT_EQ(interp.vecReg(2).laneSigned(VecType::I16, 0), 3);
    EXPECT_EQ(interp.vecReg(3).laneSigned(VecType::I16, 0), -5);
}

TEST(Interpreter, BranchesAndCalls)
{
    ProgramBuilder b("ctrl");
    auto func = b.newLabel();
    auto after = b.newLabel();
    auto loop = b.newLabel();
    b.movImm(x(1), 3);
    b.movImm(x(2), 0);
    b.bind(loop);
    b.alui(Opcode::ADD, x(2), x(2), 10);
    b.alui(Opcode::SUB, x(1), x(1), 1);
    b.bnez(x(1), loop);
    b.bl(func);
    b.b(after);
    b.bind(func);
    b.alui(Opcode::ADD, x(2), x(2), 100);
    b.ret();
    b.bind(after);
    b.halt();

    MemoryImage mem;
    auto program = std::make_shared<const Program>(b.build());
    Interpreter interp(program, mem);
    Trace trace = interp.run();
    EXPECT_EQ(interp.reg(x(2)), 130u);
    EXPECT_TRUE(interp.halted());

    // The trace records taken/not-taken outcomes.
    unsigned taken = 0, not_taken = 0;
    for (SeqNum s = 0; s < trace.size(); ++s) {
        if (isBranch(trace.inst(s).op))
            (trace.op(s).taken ? taken : not_taken)++;
    }
    EXPECT_EQ(taken, 2u + 1 + 1 + 1); // 2 loop-backs + BL + B + RET
    EXPECT_EQ(not_taken, 1u);         // final loop exit
}

TEST(Interpreter, NextPcIsTheSuccessorsPc)
{
    ProgramBuilder b("succ");
    auto func = b.newLabel();
    auto loop = b.newLabel();
    b.movImm(x(1), 2);
    b.bind(loop);
    b.alui(Opcode::SUB, x(1), x(1), 1);
    b.bnez(x(1), loop);
    b.bl(func);
    b.halt();
    b.bind(func);
    b.ret();

    MemoryImage mem;
    auto program = std::make_shared<const Program>(b.build());
    const Trace trace = Interpreter(program, mem).run();
    for (SeqNum s = 0; s + 1 < trace.size(); ++s)
        EXPECT_EQ(trace.nextPc(s), trace.op(s + 1).pc) << s;
    // The branch outcomes land where the program says: a taken BNEZ
    // at the loop head, the fall-through, the call and the return.
    EXPECT_EQ(trace.nextPc(2), 1u);  // bnez taken
    EXPECT_EQ(trace.nextPc(4), 3u);  // bnez falls through
    EXPECT_EQ(trace.nextPc(5), 5u);  // bl -> func
    EXPECT_EQ(trace.nextPc(6), 4u);  // ret -> halt
    // The last op's successor is the trace's end pc: a HALT's own pc.
    const SeqNum last = trace.size() - 1;
    EXPECT_EQ(trace.inst(last).op, Opcode::HALT);
    EXPECT_EQ(trace.nextPc(last), trace.op(last).pc);
}

TEST(Interpreter, TraceRecordsEffectiveWidths)
{
    ProgramBuilder b("width");
    b.movImm(x(1), 0xFF);        // 8-bit operand
    b.movImm(x(2), 0xFFFF);      // 16-bit operand
    b.alu(Opcode::ADD, x(3), x(1), x(2));
    b.halt();

    MemoryImage mem;
    auto program = std::make_shared<const Program>(b.build());
    Interpreter interp(program, mem);
    Trace trace = interp.run();
    // The ADD at index 2: max(8, 16) == 16.
    EXPECT_EQ(trace.op(2).eff_width, 16u);
}

TEST(Interpreter, TraceRecordsMemoryAddresses)
{
    MemoryImage mem;
    ProgramBuilder b("addrs");
    b.movImm(x(1), 0x4000);
    b.load(Opcode::LDR, x(2), x(1), 24);
    b.halt();
    auto program = std::make_shared<const Program>(b.build());
    Interpreter interp(program, mem);
    Trace trace = interp.run();
    EXPECT_EQ(trace.op(1).mem_addr, 0x4018u);
}

TEST(Interpreter, SignedDivideOverflowWraps)
{
    // INT64_MIN / -1 must not trap the simulator; ARM wraps.
    ProgramBuilder b("sdivmin");
    b.movImm(x(1), std::numeric_limits<s64>::min());
    b.movImm(x(2), -1);
    b.sdiv(x(3), x(1), x(2));
    b.halt();
    MemoryImage mem;
    auto program = std::make_shared<const Program>(b.build());
    Interpreter interp(program, mem);
    interp.run();
    EXPECT_EQ(interp.reg(x(3)),
              static_cast<u64>(std::numeric_limits<s64>::min()));
}

TEST(Interpreter, ShiftAmountsAreModulo64)
{
    ProgramBuilder b("shmod");
    b.movImm(x(1), 0xF0);
    b.movImm(x(2), 68); // 68 & 63 == 4
    b.lsr(x(3), x(1), x(2));
    b.lsl(x(4), x(1), x(2));
    b.halt();
    MemoryImage mem;
    auto program = std::make_shared<const Program>(b.build());
    Interpreter interp(program, mem);
    interp.run();
    EXPECT_EQ(interp.reg(x(3)), 0xFu);
    EXPECT_EQ(interp.reg(x(4)), 0xF00u);
}

TEST(Interpreter, NestedCallsThroughLinkRegister)
{
    // main -> outer -> (manual link save) inner -> back out.
    ProgramBuilder b("nest");
    auto outer = b.newLabel();
    auto inner = b.newLabel();
    auto done = b.newLabel();
    b.movImm(x(1), 0);
    b.bl(outer);
    b.b(done);
    b.bind(outer);
    b.mov(x(9), kLinkReg); // callee-saved link
    b.alui(Opcode::ADD, x(1), x(1), 1);
    b.bl(inner);
    b.mov(kLinkReg, x(9));
    b.ret();
    b.bind(inner);
    b.alui(Opcode::ADD, x(1), x(1), 10);
    b.ret();
    b.bind(done);
    b.halt();
    MemoryImage mem;
    auto program = std::make_shared<const Program>(b.build());
    Interpreter interp(program, mem);
    interp.run();
    EXPECT_EQ(interp.reg(x(1)), 11u);
    EXPECT_TRUE(interp.halted());
}

TEST(Interpreter, VectorLanesDoNotBleed)
{
    // Per-lane adds with values that would carry across lanes if the
    // implementation were a plain 64-bit add.
    ProgramBuilder b("lanes");
    b.movImm(x(1), 0xFFFF);
    b.vdup(v(0), x(1), VecType::I16); // all lanes 0xFFFF
    b.movImm(x(2), 1);
    b.vdup(v(1), x(2), VecType::I16);
    b.vop(Opcode::VADD, v(2), v(0), v(1), VecType::I16);
    b.halt();
    MemoryImage mem;
    auto program = std::make_shared<const Program>(b.build());
    Interpreter interp(program, mem);
    interp.run();
    for (unsigned lane = 0; lane < 8; ++lane)
        EXPECT_EQ(interp.vecReg(2).lane(VecType::I16, lane), 0u)
            << "lane " << lane;
}

TEST(Interpreter, ZeroRegisterIsImmutable)
{
    ProgramBuilder b("xzr");
    b.movImm(x(1), 7);
    b.alu(Opcode::ADD, kZeroReg, x(1), x(1)); // write to xzr: dropped
    b.alu(Opcode::ADD, x(2), kZeroReg, x(1));
    b.halt();
    EXPECT_EQ(runAndReadReg(b, x(2)), 7u);
}

TEST(Interpreter, MaxOpsCapStopsRunawayPrograms)
{
    ProgramBuilder b("spin");
    auto loop = b.newLabel();
    b.bind(loop);
    b.alui(Opcode::ADD, x(1), x(1), 1);
    b.b(loop);
    MemoryImage mem;
    auto program = std::make_shared<const Program>(b.build());
    Interpreter interp(program, mem);
    Trace trace = interp.run(1000);
    EXPECT_EQ(trace.size(), 1000u);
    EXPECT_FALSE(interp.halted());
    // A capped trace holds exactly its ops, and its last op (the B)
    // still names the pc the program would run next.
    EXPECT_EQ(trace.ops().capacity(), trace.size());
    EXPECT_EQ(trace.nextPc(999), 0u);
}

} // namespace
} // namespace redsoc
