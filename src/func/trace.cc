#include "func/trace.h"

#include "common/logging.h"

namespace redsoc {

Trace::Trace(std::shared_ptr<const Program> program, std::vector<DynOp> ops,
             u32 end_pc)
    : program_(std::move(program)), ops_(std::move(ops)), end_pc_(end_pc)
{
    panic_if(!program_, "trace without a program");
    fatal_if(ops_.empty(), "empty trace for program '",
             program_->name(), "'");
    for (const DynOp &op : ops_)
        panic_if(op.pc >= program_->size(), "trace pc out of range");
    // Keep exactly the ops: drop any capacity the builder reserved.
    ops_.shrink_to_fit();
}

} // namespace redsoc
