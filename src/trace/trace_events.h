/**
 * @file
 * Pipeline trace event schema (DESIGN.md section 10). Every
 * architecturally meaningful moment in an op's life — frontend,
 * wakeup, select, sub-cycle execute begin, writeback, commit — plus
 * the ReDSOC-specific moments the aggregate CoreStats cannot show
 * (EGPW arm/fire/waste, transparent-latch pass-through, recycle-chain
 * links, MOS fusion, replays) is one fixed-size PipeEvent record.
 *
 * The schema is deliberately kernel-agnostic: every event is emitted
 * at a site both scheduler kernels execute with identical arguments,
 * so a Scan-kernel trace and an Event-kernel trace of the same run
 * are byte-identical (tests/test_trace.cc golden snapshot).
 */

#ifndef REDSOC_TRACE_TRACE_EVENTS_H
#define REDSOC_TRACE_TRACE_EVENTS_H

#include "common/types.h"

namespace redsoc {

/**
 * One kind per pipeline moment. Both trace exporters switch over this
 * enum without a `default:`, so -Werror=switch makes a new kind a
 * build error until each of them handles it.
 */
enum class PipeEventKind : u8 {
    // Frontend. The model's frontend is a single macro-stage (fetch,
    // decode and rename all complete in the dispatch cycle), so these
    // four events share a timestamp; they are kept distinct so
    // pipeline visualizations show the conventional stage ladder.
    Fetch,
    Decode,
    Rename,
    Dispatch,

    // Scheduler & datapath.
    Wakeup,    ///< last tag broadcast that made the entry ready
    Select,    ///< grant cycle (arg bit0: EGPW-speculative grant)
    ExecBegin, ///< execution start; arg = sub-cycle CI of start tick
    Writeback, ///< completion; arg = sub-cycle CI of complete tick
    Commit,    ///< in-order retirement (arg bit0: the op was a
               ///< mispredicted branch that redirected the frontend)
    Squash,    ///< terminal flush (reserved: the replay-based model
               ///< never discards a dispatched op today)

    // ReDSOC-specific.
    EgpwArm,   ///< eager grandparent wakeup requested selection
    EgpwFire,  ///< speculative grant issued with a live recycle window
    EgpwWaste, ///< speculative grant wasted (arg: 0 = no recyclable
               ///< slack this cycle, 1 = FU span unavailable)
    TransparentPass, ///< op latched transparently mid-cycle; arg = CI
    RecycleLink,     ///< link = producer whose slack this op recycled

    // Comparators / recovery.
    Fuse,   ///< MOS: op fused into producer `link`'s cycle
    Replay, ///< arg: 1 = last-arrival mispredict replay, 2 = width
            ///< mispredict conservative re-execution

    NUM,
};

/** Stable lowercase name ("egpw_fire") for exporters and tables. */
const char *pipeEventName(PipeEventKind kind);

/** One recorded pipeline event (fixed size, ring-buffer friendly). */
struct PipeEvent
{
    Tick tick = 0;       ///< absolute tick (sub-cycle) timestamp
    SeqNum seq = kNoSeq; ///< dynamic op the event belongs to
    SeqNum link = kNoSeq; ///< related op (producer for RecycleLink /
                          ///< Fuse / Wakeup), kNoSeq if none
    PipeEventKind kind = PipeEventKind::Fetch;
    u8 arg = 0;          ///< kind-specific payload (CI value, flags)
};

} // namespace redsoc

#endif // REDSOC_TRACE_TRACE_EVENTS_H
