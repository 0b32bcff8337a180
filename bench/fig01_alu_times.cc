/**
 * @file
 * Fig.1: computation time (ps) for ALU operations on the synthesized
 * 2 GHz ALU model, in the paper's presentation order — logical ops,
 * moves/shifts, arithmetic, and shifted-operand arithmetic.
 */

#include "bench_common.h"
#include "harnesses.h"
#include "timing/timing_model.h"

using namespace redsoc;

void
bench::fig01_alu_times(SimDriver &, bool)
{
    bench::printHeader("ALU computation times", "Fig.1");
    const TimingModel tm;

    struct Row
    {
        const char *name;
        Opcode op;
        ShiftKind shift;
    };
    const Row rows[] = {
        {"BIC", Opcode::BIC, ShiftKind::None},
        {"MVN", Opcode::MVN, ShiftKind::None},
        {"AND", Opcode::AND, ShiftKind::None},
        {"EOR", Opcode::EOR, ShiftKind::None},
        {"TST", Opcode::TST, ShiftKind::None},
        {"TEQ", Opcode::TEQ, ShiftKind::None},
        {"ORR", Opcode::ORR, ShiftKind::None},
        {"MOV", Opcode::MOV, ShiftKind::None},
        {"LSR", Opcode::LSR, ShiftKind::None},
        {"ASR", Opcode::ASR, ShiftKind::None},
        {"LSL", Opcode::LSL, ShiftKind::None},
        {"ROR", Opcode::ROR, ShiftKind::None},
        {"RRX", Opcode::RRX, ShiftKind::None},
        {"RSB", Opcode::RSB, ShiftKind::None},
        {"RSC", Opcode::RSC, ShiftKind::None},
        {"SUB", Opcode::SUB, ShiftKind::None},
        {"CMP", Opcode::CMP, ShiftKind::None},
        {"ADD", Opcode::ADD, ShiftKind::None},
        {"CMN", Opcode::CMN, ShiftKind::None},
        {"ADDC", Opcode::ADC, ShiftKind::None},
        {"SUBC", Opcode::SBC, ShiftKind::None},
        {"ADD-LSR", Opcode::ADD, ShiftKind::Lsr},
        {"SUB-ROR", Opcode::SUB, ShiftKind::Ror},
    };

    Table t({"operation", "computation time (ps)", "slack @500ps"});
    for (const Row &row : rows) {
        const Picos ps = tm.scalarFullWidthPs(row.op, row.shift);
        t.addRow({row.name, std::to_string(ps),
                  Table::pct(1.0 - double(ps) / tm.clockPeriodPs())});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("paper shape: logical ~95-130ps, moves/shifts "
                "~140-210ps,\narithmetic ~305-345ps, shifted-operand "
                "arithmetic ~450-470ps.\n");
}
