/**
 * @file
 * Last-arriving-operand predictor for the Operational RSE design
 * (Sec.IV-C). A 1K-entry PC-indexed table stores one bit per entry:
 * which of a two-source instruction's operands arrives last. This
 * lets the RSE carry a single parent tag (and a single grandparent
 * tag) instead of two (and four). Predictions are validated by a
 * register scoreboard at register read; mispredictions replay like
 * latency mispredictions.
 */

#ifndef REDSOC_PREDICTORS_LAST_ARRIVAL_PREDICTOR_H
#define REDSOC_PREDICTORS_LAST_ARRIVAL_PREDICTOR_H

#include <vector>

#include "common/bitutils.h"
#include "common/fields.h"
#include "common/types.h"

namespace redsoc {

struct LastArrivalConfig
{
    unsigned entries = 1024; ///< paper: 1K-entry, 1 bit per entry
};

REDSOC_FIELDS(LastArrivalConfig, entries)

/** Legal ranges (common/fields.h RangeCheck). */
inline std::string
configError(const LastArrivalConfig &c)
{
    return RangeCheck(c)
        .require(c.entries, isPowerOfTwo(c.entries), "a power of two")
        .error();
}

class LastArrivalPredictor
{
  public:
    explicit LastArrivalPredictor(LastArrivalConfig config = {});

    /**
     * Predicted last-arriving source slot (0 or 1) for the
     * two-source instruction at @p pc.
     */
    unsigned predict(u64 pc) const;

    /** Train with the observed last-arriving slot. */
    void update(u64 pc, unsigned actual_last_slot);

    u64 predictions() const { return predictions_; }
    u64 mispredictions() const { return mispredictions_; }

    /** Record a validated outcome (for accuracy statistics). */
    void recordOutcome(bool correct);

    u64 stateBytes() const { return (config_.entries + 7) / 8; }

    void resetStats();

  private:
    unsigned indexOf(u64 pc) const;

    LastArrivalConfig config_;
    std::vector<bool> last_is_slot1_;
    mutable u64 predictions_ = 0;
    u64 mispredictions_ = 0;
};

} // namespace redsoc

#endif // REDSOC_PREDICTORS_LAST_ARRIVAL_PREDICTOR_H
