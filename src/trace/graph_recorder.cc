#include "trace/graph_recorder.h"

#include "common/bitutils.h"

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
    moments_.assign(n, OpMoments{});
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
    run_open_ = true;
}

u64
GraphRecorder::eventsSeen() const
{
    u64 n = 4 * u64{dispatched()} + 4 * u64{rs_issue_order_.size()} +
            commits_;
    for (u32 i = 0; i < dispatched(); ++i) {
        const u16 fl = flags_[i];
        const OpMoments &m = moments_[i];
        n += (fl & kOpFrontendResolved) ? 1 : 0; // writeback
        n += (fl & kOpEgpwSelect) ? 1 : 0;       // egpw_fire
        n += (fl & kOpTransparent) ? 2 : 0;      // pass + recycle link
        n += (fl & kOpWidthReplay) ? 1 : 0;
        n += (fl & kOpFused) ? 1 : 0;
        n += m.egpw_arms + m.egpw_wastes[0] + m.egpw_wastes[1] +
             m.la_replays;
    }
    return n;
}

u64
GraphRecorder::digest() const
{
    Fnv1a fold;
    fold(ticks_per_cycle_);
    fold(dispatched());
    fold(commits_);
    for (u32 i = 0; i < dispatched(); ++i) {
        const Links &l = links_[i];
        const OpMoments &m = moments_[i];
        for (const u64 v :
             {u64{obs_d_[i]}, u64{obs_s_[i]}, u64{obs_x_[i]},
              u64{obs_w_[i]}, i < commits_ ? u64{obs_c_[i]} : 0,
              u64{flags_[i]}, u64{pool_[i]}, u64{pool_pos_[i]},
              u64{l.prod[0]}, u64{l.prod[1]}, u64{l.prod[2]},
              u64{l.fuse}, u64{m.wake}, u64{m.last},
              u64{m.grandparent}, u64{m.egpw_arms},
              u64{m.egpw_wastes[0]}, u64{m.egpw_wastes[1]},
              u64{m.la_replays}})
            fold(v);
    }
    const auto foldLane = [&fold](const RegionVector<u32> &lane) {
        fold(lane.size());
        for (const u32 v : lane)
            fold(v);
    };
    for (const auto &order : pool_order_)
        foldLane(order);
    foldLane(rs_issue_order_);
    foldLane(topo_);
    return fold.h;
}

} // namespace redsoc
