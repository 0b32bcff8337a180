/**
 * @file
 * Dynamic µop traces. The functional interpreter executes a Program
 * and emits one DynOp per retired instruction carrying the dynamic
 * facts the timing models need: resolved memory address, branch
 * outcome, and the effective operand width that drives Width-Slack
 * (Sec.II-A of the paper). All core models replay the same trace, so
 * architectural behaviour is identical across scheduler modes by
 * construction and only timing differs. Operand values stay in the
 * interpreter; an op's dynamic successor is the next op's pc
 * (Trace::nextPc).
 */

#ifndef REDSOC_FUNC_TRACE_H
#define REDSOC_FUNC_TRACE_H

#include <memory>
#include <vector>

#include "isa/program.h"

namespace redsoc {

/** One retired dynamic instruction. */
struct DynOp
{
    u32 pc = 0;        ///< static instruction index
    u16 eff_width = 64; ///< max effective source-operand width, bits
    bool taken = false; ///< branch outcome
    Addr mem_addr = 0; ///< effective address (memory ops)
};

static_assert(sizeof(DynOp) == 16, "trace record must stay 16 bytes");

class Trace
{
  public:
    /** @p end_pc is the last op's dynamic successor (the pc the
     *  program would run next: a HALT's own pc). */
    Trace(std::shared_ptr<const Program> program, std::vector<DynOp> ops,
          u32 end_pc);

    const Program &program() const { return *program_; }
    std::shared_ptr<const Program> programPtr() const { return program_; }
    const std::vector<DynOp> &ops() const { return ops_; }
    const DynOp &op(SeqNum seq) const { return ops_[seq]; }
    const Inst &inst(SeqNum seq) const
    {
        return program_->inst(ops_[seq].pc);
    }
    SeqNum size() const { return ops_.size(); }

    /** The dynamic (branch-resolved) successor pc of op @p seq. */
    u32 nextPc(SeqNum seq) const
    {
        return seq + 1 < ops_.size() ? ops_[seq + 1].pc : end_pc_;
    }

  private:
    std::shared_ptr<const Program> program_;
    std::vector<DynOp> ops_;
    u32 end_pc_;
};

} // namespace redsoc

#endif // REDSOC_FUNC_TRACE_H
