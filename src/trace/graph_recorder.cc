#include "trace/graph_recorder.h"

namespace redsoc {

GraphRecorder::GraphRecorder(u64 num_ops)
{
    fatal_if(num_ops > u64{kNoOp} - 1,
             "trace too large for the dependence graph's 32-bit op ids");
    num_ops_ = static_cast<u32>(num_ops);
}

void
GraphRecorder::beginRun(Tick ticks_per_cycle)
{
    const u32 n = num_ops_;
    ticks_per_cycle_ = ticks_per_cycle;
    for (auto *lane : {&obs_d_, &obs_c_}) {
        lane->clear();
        lane->reserve(n);
    }
    // Written in grant order, so sized (and filled) up front.
    for (auto *lane : {&obs_s_, &obs_x_, &obs_w_})
        lane->assign(n, 0);
    links_.assign(n, Links{});
    flags_.clear();
    flags_.reserve(n);
    pool_.clear();
    pool_.reserve(n);
    pool_pos_.clear();
    pool_pos_.reserve(n);
    for (auto &order : pool_order_) {
        order.clear();
        order.reserve(n / 2);
    }
    topo_.clear();
    topo_.reserve(size_t{n} * kNumMilestones);
    rs_issue_order_.clear();
    rs_issue_order_.reserve(n);
    commits_ = 0;
    spec_events_ = 0;
    run_open_ = true;
}

u64
GraphRecorder::eventsSeen() const
{
    // Per dispatched op: fetch, decode, rename and dispatch; then one
    // writeback if resolved in the frontend, else wakeup, select,
    // exec-begin and writeback at its grant; then its commit. The
    // flags add the optional per-op events.
    u64 n = 4 * u64{flags_.size()} + 4 * u64{rs_issue_order_.size()} +
            commits_ + spec_events_;
    for (const u16 fl : flags_) {
        n += (fl & kOpFrontendResolved) ? 1 : 0;
        n += (fl & kOpEgpwSelect) ? 1 : 0;   // egpw_fire
        n += (fl & kOpTransparent) ? 2 : 0;  // pass + recycle link
        n += (fl & kOpWidthReplay) ? 1 : 0;  // replay
        n += (fl & kOpLaReplay) ? 1 : 0;     // replay
        n += (fl & kOpFused) ? 1 : 0;        // fuse
    }
    return n;
}

} // namespace redsoc
