#include "predictors/branch_predictor.h"

#include "common/logging.h"

namespace redsoc {

BranchPredictor::BranchPredictor(BranchPredictorConfig config)
    : config_(checkedConfig(config, "branch predictor")),
      counters_(1u << config.table_bits, 1)
{
    ras_.reserve(config.ras_entries);
}

unsigned
BranchPredictor::indexOf(u32 pc) const
{
    const u64 mask = (u64{1} << config_.table_bits) - 1;
    return static_cast<unsigned>((pc ^ history_) & mask);
}

u32
BranchPredictor::predict(u32 pc, const Inst &inst, u32 fallthrough)
{
    ++lookups_;
    switch (inst.op) {
      case Opcode::B:
        return inst.target;
      case Opcode::BL:
        if (ras_.size() == config_.ras_entries)
            ras_.erase(ras_.begin());
        ras_.push_back(fallthrough);
        return inst.target;
      case Opcode::RET: {
        if (ras_.empty())
            return fallthrough; // cold RAS: certain mispredict
        const u32 target = ras_.back();
        ras_.pop_back();
        return target;
      }
      default:
        break;
    }
    panic_if(!isCondBranch(inst.op), "predict() on non-branch");
    const bool taken = counters_[indexOf(pc)] >= 2;
    return taken ? inst.target : fallthrough;
}

bool
BranchPredictor::resolve(u32 pc, const Inst &inst, bool taken,
                         u32 actual_next, u32 predicted_next)
{
    if (isCondBranch(inst.op)) {
        u8 &ctr = counters_[indexOf(pc)];
        if (taken && ctr < 3)
            ++ctr;
        else if (!taken && ctr > 0)
            --ctr;
        history_ = (history_ << 1) | (taken ? 1 : 0);
    }
    const bool wrong = actual_next != predicted_next;
    if (wrong)
        ++mispredicts_;
    return wrong;
}

void
BranchPredictor::resetStats()
{
    lookups_ = 0;
    mispredicts_ = 0;
}

} // namespace redsoc
