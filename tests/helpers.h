/**
 * @file
 * Shared helpers for core-level tests: build a trace from a program
 * builder and run it through a configured core.
 */

#ifndef REDSOC_TESTS_HELPERS_H
#define REDSOC_TESTS_HELPERS_H

#include <memory>
#include <vector>

#include "core/ooo_core.h"
#include "func/interpreter.h"
#include "isa/builder.h"
#include "sim/driver.h"

namespace redsoc {
namespace test {

inline Trace
makeTrace(ProgramBuilder &b, MemoryImage *mem = nullptr)
{
    MemoryImage local;
    MemoryImage &m = mem ? *mem : local;
    auto program = std::make_shared<const Program>(b.build());
    return traceProgram(program, m);
}

inline CoreStats
runCore(const Trace &trace, CoreConfig config)
{
    OooCore core(std::move(config));
    return core.run(trace);
}

/** A chain of @p n dependent ADDs (narrow operands) after a seed. */
inline void
emitAddChain(ProgramBuilder &b, unsigned n, RegIdx reg = x(1))
{
    b.movImm(reg, 1);
    for (unsigned i = 0; i < n; ++i)
        b.alui(Opcode::ADD, reg, reg, 1);
}

/** A chain of @p n dependent narrow logical ops (maximal slack). */
inline void
emitLogicChain(ProgramBuilder &b, unsigned n, RegIdx reg = x(1))
{
    b.movImm(reg, 0x55);
    for (unsigned i = 0; i < n; ++i)
        b.alui(Opcode::EOR, reg, reg, 0x33);
}

/** The line addresses @p pf prefetches for one observed access. */
inline std::vector<Addr>
prefetches(StridePrefetcher &pf, u32 pc, Addr addr)
{
    std::vector<Addr> fills;
    pf.observe(pc, addr, [&fills](Addr a) { fills.push_back(a); });
    return fills;
}

} // namespace test
} // namespace redsoc

#endif // REDSOC_TESTS_HELPERS_H
