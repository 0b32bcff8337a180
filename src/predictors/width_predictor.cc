#include "predictors/width_predictor.h"

namespace redsoc {

WidthPredictor::WidthPredictor(WidthPredictorConfig config)
    : config_(checkedConfig(config, "width predictor")),
      max_confidence_(static_cast<u8>((1u << config.confidence_bits) - 1)),
      table_(config.entries)
{
}

unsigned
WidthPredictor::indexOf(u64 pc) const
{
    return static_cast<unsigned>(pc & (config_.entries - 1));
}

WidthClass
WidthPredictor::predict(u64 pc) const
{
    ++predictions_;
    const Entry &e = table_[indexOf(pc)];
    if (e.confidence < max_confidence_)
        return WidthClass::W64; // conservative: assume maximum size
    return e.width;
}

bool
WidthPredictor::update(u64 pc, WidthClass actual)
{
    Entry &e = table_[indexOf(pc)];
    const WidthClass predicted =
        e.confidence < max_confidence_ ? WidthClass::W64 : e.width;

    const bool aggressive_wrong = actual > predicted;
    if (actual > predicted)
        ++aggressive_;
    else if (actual < predicted)
        ++conservative_;

    if (e.width == actual) {
        if (e.confidence < max_confidence_)
            ++e.confidence;
    } else {
        e.width = actual;
        e.confidence = 0;
    }
    return aggressive_wrong;
}

u64
WidthPredictor::stateBytes() const
{
    // 2 bits of width class + confidence bits per entry.
    const u64 bits = u64{config_.entries} * (2 + config_.confidence_bits);
    return (bits + 7) / 8;
}

void
WidthPredictor::resetStats()
{
    predictions_ = aggressive_ = conservative_ = 0;
}

} // namespace redsoc
