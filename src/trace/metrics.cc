#include "trace/metrics.h"

#include <sstream>
#include <vector>

#include "common/table.h"

namespace redsoc {

TraceMetrics::TraceMetrics()
{
    for (auto &h : slack_by_class)
        h = Histogram(kMaxTickSample);
}

TraceMetrics
computeTraceMetrics(const GraphRecorder &rec, const Trace &trace)
{
    TraceMetrics m;
    m.events = rec.eventsSeen();
    m.ticks_per_cycle = rec.ticksPerCycle();
    m.commits = rec.committed();
    const Tick tpc = m.ticks_per_cycle;

    // Recycle-chain depth per op: 1 for a root, one more than its
    // producer's for a transparent op (producers precede consumers).
    std::vector<u64> depth(rec.dispatched(), 1);
    for (u32 i = 0; i < rec.dispatched(); ++i) {
        const u16 fl = rec.flags(i);
        const OpMoments &om = rec.moments(i);
        // Slack from the completion CI to the cycle boundary.
        const Tick done = rec.tick(Milestone::W, i);
        m.slack_by_class[static_cast<size_t>(fuClass(trace.inst(i).op))]
            .sample((tpc - (done & (tpc - 1))) % tpc);
        if (rec.selected(i))
            m.wakeup_to_issue.sample(rec.tick(Milestone::S, i) / tpc -
                                     om.wake / tpc);
        if (fl & kOpTransparent) {
            depth[i] = (om.last == kNoOp ? 1 : depth[om.last]) + 1;
            m.chain_depth.sample(depth[i]);
            ++m.recycle_links;
            ++m.transparent_passes;
        }
        m.egpw_arms += om.egpw_arms;
        m.egpw_fires += (fl & kOpEgpwSelect) ? 1 : 0;
        m.egpw_wastes_no_slack += om.egpw_wastes[0];
        m.egpw_wastes_span += om.egpw_wastes[1];
        m.fuses += (fl & kOpFused) ? 1 : 0;
        m.replays_last_arrival += om.la_replays;
        m.replays_width += (fl & kOpWidthReplay) ? 1 : 0;
    }
    return m;
}

std::string
renderTraceMetrics(const TraceMetrics &m)
{
    std::ostringstream os;
    os << "trace: " << m.events << " events, " << m.commits
       << " commits, " << m.ticks_per_cycle << " ticks/cycle\n\n";

    Table slack({"fu_class", "ops", "mean_slack", "slack>0"});
    for (size_t fc = 0; fc < kNumFuClasses; ++fc) {
        const Histogram &h = m.slack_by_class[fc];
        if (h.count() == 0)
            continue;
        slack.addRow({fuClassName(static_cast<FuClass>(fc)),
                      std::to_string(h.count()), Table::num(h.mean()),
                      Table::pct(static_cast<double>(h.count() -
                                                     h.bucket(0)) /
                                 static_cast<double>(h.count()))});
    }
    os << "completion slack by FU class (ticks):\n" << slack.render();

    os << "\nwakeup->issue latency: " << m.wakeup_to_issue.count()
       << " grants, mean " << Table::num(m.wakeup_to_issue.mean())
       << " cycles, same-cycle "
       << (m.wakeup_to_issue.count() == 0
               ? std::string("n/a")
               : Table::pct(static_cast<double>(
                                m.wakeup_to_issue.bucket(0)) /
                            static_cast<double>(m.wakeup_to_issue.count())))
       << "\n";

    os << "recycle chains: " << m.recycle_links << " links, "
       << m.transparent_passes << " transparent passes, " << m.fuses
       << " MOS fusions";
    if (m.chain_depth.count() != 0)
        os << ", mean linked depth " << Table::num(m.chain_depth.mean());
    os << "\n";

    os << "EGPW: " << m.egpw_arms << " arms, " << m.egpw_fires
       << " fires, " << m.egpw_wastes_no_slack << " wasted (no slack), "
       << m.egpw_wastes_span << " wasted (span denied)\n";
    os << "replays: " << m.replays_last_arrival << " last-arrival, "
       << m.replays_width << " width\n";
    return os.str();
}

} // namespace redsoc
