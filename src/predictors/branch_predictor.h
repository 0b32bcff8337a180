/**
 * @file
 * Front-end branch prediction: gshare direction predictor plus a
 * return-address stack. Direct branch targets come from the static
 * instruction at decode; RET targets come from the RAS. The core
 * charges a full pipeline redirect on any mispredicted direction or
 * target.
 */

#ifndef REDSOC_PREDICTORS_BRANCH_PREDICTOR_H
#define REDSOC_PREDICTORS_BRANCH_PREDICTOR_H

#include <vector>

#include "common/fields.h"
#include "isa/inst.h"

namespace redsoc {

struct BranchPredictorConfig
{
    unsigned table_bits = 12; ///< 4K two-bit counters
    unsigned ras_entries = 16;
};

REDSOC_FIELDS(BranchPredictorConfig, table_bits, ras_entries)

/** Legal ranges (common/fields.h RangeCheck). */
inline std::string
configError(const BranchPredictorConfig &c)
{
    return RangeCheck(c)
        .require(c.table_bits, c.table_bits >= 1 && c.table_bits <= 24,
                 "in 1..24")
        .error();
}

class BranchPredictor
{
  public:
    explicit BranchPredictor(BranchPredictorConfig config = {});

    /**
     * Predict the dynamic successor of the branch at @p pc.
     * @param inst the static branch instruction
     * @param fallthrough pc+1
     * @return predicted next pc
     */
    u32 predict(u32 pc, const Inst &inst, u32 fallthrough);

    /**
     * Resolve the branch: trains the direction table / RAS and
     * reports whether the earlier prediction was wrong.
     * @param actual_next the architecturally correct successor
     * @param predicted_next what predict() returned
     */
    bool resolve(u32 pc, const Inst &inst, bool taken, u32 actual_next,
                 u32 predicted_next);

    u64 lookups() const { return lookups_; }
    u64 mispredictions() const { return mispredicts_; }

    void resetStats();

  private:
    unsigned indexOf(u32 pc) const;

    BranchPredictorConfig config_;
    std::vector<u8> counters_; ///< 2-bit saturating, taken if >= 2
    u64 history_ = 0;
    std::vector<u32> ras_;
    u64 lookups_ = 0;
    u64 mispredicts_ = 0;
};

} // namespace redsoc

#endif // REDSOC_PREDICTORS_BRANCH_PREDICTOR_H
