/**
 * @file
 * Trace-derived metrics the aggregate CoreStats cannot express:
 * distributions (slack per op class — the paper Fig. 4 analog —
 * wakeup->issue latency, recycle-chain depth) and EGPW speculation
 * outcome counts. Computed from a finished GraphRecorder run, so the
 * hot simulation loop pays nothing for them.
 */

#ifndef REDSOC_TRACE_METRICS_H
#define REDSOC_TRACE_METRICS_H

#include <array>
#include <string>

#include "common/stats.h"
#include "func/trace.h"
#include "isa/opcode.h"
#include "trace/graph_recorder.h"

namespace redsoc {

struct TraceMetrics
{
    /** Upper bound for tick-valued samples (slack < ticks/cycle). */
    static constexpr u64 kMaxTickSample = 256;

    u64 events = 0; ///< GraphRecorder::eventsSeen()
    Tick ticks_per_cycle = 8;

    /** Completion slack in ticks, per producing op's FU class
     *  (recorded at writeback: slack = (tpc - CI) mod tpc). */
    std::array<Histogram, kNumFuClasses> slack_by_class;

    /** Cycles from the entry's final wakeup to its select grant. */
    Histogram wakeup_to_issue{64};

    /** Depth of each recycle-chain link (a chain of N transparently
     *  linked ops samples 2..N; depth 1 is the non-recycled root). */
    Histogram chain_depth{64};

    // EGPW speculation outcomes.
    u64 egpw_arms = 0;
    u64 egpw_fires = 0;
    u64 egpw_wastes_no_slack = 0;
    u64 egpw_wastes_span = 0;

    u64 transparent_passes = 0;
    u64 recycle_links = 0;
    u64 fuses = 0;
    u64 replays_last_arrival = 0;
    u64 replays_width = 0;
    u64 commits = 0;

    TraceMetrics();
};

/** Aggregate a finished run; @p trace supplies per-op FU classes. */
TraceMetrics computeTraceMetrics(const GraphRecorder &rec,
                                 const Trace &trace);

/** Human-readable report (tables of the distributions above). */
std::string renderTraceMetrics(const TraceMetrics &metrics);

} // namespace redsoc

#endif // REDSOC_TRACE_METRICS_H
