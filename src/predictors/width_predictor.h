/**
 * @file
 * Loh-style resetting-counter data-width predictor (Sec.II-B).
 * Width-Slack information is needed at schedule time but operand
 * values only materialize at execute, so the width class is
 * predicted by PC. Below-saturation confidence predicts the maximum
 * width (conservative: never a correctness risk); at saturation the
 * stored width is predicted (aggressive mispredictions require
 * selective reissue, counted here and penalized by the core).
 */

#ifndef REDSOC_PREDICTORS_WIDTH_PREDICTOR_H
#define REDSOC_PREDICTORS_WIDTH_PREDICTOR_H

#include <vector>

#include "common/bitutils.h"
#include "common/fields.h"
#include "common/stats.h"
#include "timing/timing_model.h"

namespace redsoc {

struct WidthPredictorConfig
{
    unsigned entries = 4096;    ///< paper: 4K-entry table
    unsigned confidence_bits = 2;
};

REDSOC_FIELDS(WidthPredictorConfig, entries, confidence_bits)

/** Legal ranges (common/fields.h RangeCheck). */
inline std::string
configError(const WidthPredictorConfig &c)
{
    return RangeCheck(c)
        .require(c.entries, isPowerOfTwo(c.entries), "a power of two")
        .require(c.confidence_bits,
                 c.confidence_bits >= 1 && c.confidence_bits <= 8,
                 "in 1..8")
        .error();
}

class WidthPredictor
{
  public:
    explicit WidthPredictor(WidthPredictorConfig config = {});

    /** Predicted width class for the instruction at @p pc. */
    WidthClass predict(u64 pc) const;

    /**
     * Train with the resolved width class and classify the earlier
     * prediction. @return true if the prediction was aggressive-wrong
     * (predicted narrower than actual: needs reissue).
     */
    bool update(u64 pc, WidthClass actual);

    u64 predictions() const { return predictions_; }
    u64 aggressiveMispredictions() const { return aggressive_; }
    u64 conservativeMispredictions() const { return conservative_; }

    /** Predictor state in bytes (for the overhead discussion). */
    u64 stateBytes() const;

    void resetStats();

  private:
    struct Entry
    {
        WidthClass width = WidthClass::W64;
        u8 confidence = 0;
    };

    unsigned indexOf(u64 pc) const;

    WidthPredictorConfig config_;
    u8 max_confidence_;
    std::vector<Entry> table_;
    mutable u64 predictions_ = 0;
    u64 aggressive_ = 0;
    u64 conservative_ = 0;
};

} // namespace redsoc

#endif // REDSOC_PREDICTORS_WIDTH_PREDICTOR_H
