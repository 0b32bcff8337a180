/**
 * @file
 * Register alias table. Besides the usual youngest-writer mapping
 * used to derive true dependencies, the RAT carries the slack-aware
 * metadata of Sec.IV-C: each rename reads its parents' EX-TIME and
 * (in the Operational design) the parents' own predicted-last-parent,
 * which becomes the child's predicted last *grandparent* tag.
 */

#ifndef REDSOC_CORE_RAT_H
#define REDSOC_CORE_RAT_H

#include <array>

#include "common/logging.h"
#include "isa/inst.h"

namespace redsoc {

class Rat
{
  public:
    Rat() { reset(); }

    /** Youngest in-flight writer of @p reg, or kNoSeq. */
    SeqNum writer(RegIdx reg) const
    {
        panic_if(reg >= kNumRegs, "RAT index out of range");
        return writer_[reg];
    }

    /** Record @p seq as the writer of @p reg (rename). */
    void setWriter(RegIdx reg, SeqNum seq)
    {
        panic_if(reg >= kNumRegs, "RAT index out of range");
        panic_if(reg == kZeroReg, "renaming the zero register");
        writer_[reg] = seq;
    }

    /** Forget writers (used between independent runs). */
    void reset() { writer_.fill(kNoSeq); }

  private:
    std::array<SeqNum, kNumRegs> writer_;
};

} // namespace redsoc

#endif // REDSOC_CORE_RAT_H
