#include "predictors/last_arrival_predictor.h"

#include "common/logging.h"

namespace redsoc {

LastArrivalPredictor::LastArrivalPredictor(LastArrivalConfig config)
    : config_(checkedConfig(config, "last-arrival predictor")),
      last_is_slot1_(config.entries, false)
{
}

unsigned
LastArrivalPredictor::indexOf(u64 pc) const
{
    return static_cast<unsigned>(pc & (config_.entries - 1));
}

unsigned
LastArrivalPredictor::predict(u64 pc) const
{
    ++predictions_;
    return last_is_slot1_[indexOf(pc)] ? 1 : 0;
}

void
LastArrivalPredictor::update(u64 pc, unsigned actual_last_slot)
{
    panic_if(actual_last_slot > 1, "bad operand slot");
    last_is_slot1_[indexOf(pc)] = actual_last_slot == 1;
}

void
LastArrivalPredictor::recordOutcome(bool correct)
{
    if (!correct)
        ++mispredictions_;
}

void
LastArrivalPredictor::resetStats()
{
    predictions_ = 0;
    mispredictions_ = 0;
}

} // namespace redsoc
