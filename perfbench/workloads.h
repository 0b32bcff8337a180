/**
 * @file
 * The benchmark workloads. Each takes its seed and population
 * from the constructor; the simulator only ever sees the generated
 * points. README.md in this directory says why each exists.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "critpath/retimer.h"
#include "harness.h"
#include "sim/driver.h"
#include "sim/run_cache.h"

namespace perfbench {

/** One point of the Sec. VI-C tuning sweep. */
struct GridPoint
{
    std::string workload;
    redsoc::CoreConfig config;
};

extern const std::vector<std::string> kCores; ///< big, medium, small

/** The 15 Table II / Fig. 10 workloads. */
std::vector<std::string> allWorkloadNames();

/** @p workloads x @p cores x {Baseline, MOS, ReDSOC at threshold
 *  2/4/6/8}, in that nesting order (the population order). */
std::vector<GridPoint> sweepGrid(const std::vector<std::string> &workloads,
                                 const std::vector<std::string> &cores);

/** bench_critpath's 64 what-if models (CI x EGPW x FU scale, plus the
 *  ideal-recycle and no-recycle bounds). */
std::vector<redsoc::WhatIfModel> whatIfModels();

/** A cold point's answer as the digest sees it: the serialized stats
 *  with the host-time field cleared. */
std::string stableAnswer(const std::string &key, redsoc::CoreStats stats);

/**
 * Closed loop, shared SimDriver, fresh run cache each round: every op
 * simulates one grid point. A round is one pass over the population in
 * a seeded order, so each round starts from an empty cache. The traced
 * round's probes time the calls SimDriver::run makes inside itself:
 * OooCore::run, and RunCache load (miss), store and load (hit) on a
 * side cache.
 */
class SweepCold : public Workload
{
  public:
    SweepCold(std::string dir, u64 seed, std::vector<GridPoint> grid,
              unsigned clients);

    const char *name() const override { return "sweep-cold"; }
    unsigned clients() const override { return clients_; }
    bool setup(unsigned round) override;
    void teardown() override;
    size_t opsPerRound() const override { return grid_.size(); }
    OpResult op(unsigned round, size_t k) override;
    void probe(unsigned round, size_t k) override;
    const ResultSlots &slots() const override { return slots_; }

    const std::vector<size_t> &order() const { return order_; }
    /** The run cache the current round fills. */
    std::string cacheDir() const { return dir_ + "/cold"; }

  private:
    std::string dir_;
    u64 seed_;
    std::vector<GridPoint> grid_;
    unsigned clients_;
    std::vector<size_t> order_;
    std::optional<redsoc::SimDriver> driver_;
    std::optional<redsoc::RunCache> side_; ///< the probes' cache
    ResultSlots slots_;
};

/**
 * Closed loop, one client: every op answers a 64-model what-if
 * question from scratch for one (workload, core) ReDSOC point —
 * traced run into a DepGraphBuilder, finalize, plan, base retime and
 * one batched retime. A round is one pass in a seeded order.
 */
class Whatif : public Workload
{
  public:
    Whatif(u64 seed, const std::vector<std::string> &workloads,
           const std::vector<std::string> &cores);

    const char *name() const override { return "whatif"; }
    unsigned clients() const override { return 1; }
    bool setup(unsigned round) override;
    void teardown() override;
    size_t opsPerRound() const override { return points_.size(); }
    OpResult op(unsigned round, size_t k) override;
    void probe(unsigned round, size_t k) override;
    const ResultSlots &slots() const override { return slots_; }

  private:
    u64 seed_;
    std::vector<std::string> workloads_;
    std::vector<GridPoint> points_;
    std::vector<redsoc::WhatIfModel> models_;
    std::vector<size_t> order_;
    std::map<std::string, redsoc::Trace> traces_;
    std::vector<redsoc::CoreStats> traced_; ///< per member, for probe()
    ResultSlots slots_;
};

/** What runCensus() did. */
struct CensusResult
{
    u64 attempted = 0;
    u64 failed = 0;
};

/**
 * Traced runs only: both workloads on the six act/small points, so
 * every layer has timed calls in every traced run even when the
 * workload's own ops never reach it. A sweep-cold round fills a cache,
 * a fresh SimDriver answers every point from it, and one what-if op
 * runs. The spans hang under a "census" root.
 */
CensusResult runCensus(const std::string &dir);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
