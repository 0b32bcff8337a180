/**
 * @file
 * Scheduler-kernel differential suite: the event-driven kernel
 * (SchedKernel::Event) must be bit-identical to the legacy full-scan
 * kernel (SchedKernel::Scan) on every statistic and on the committed
 * schedule checksum, across every mode x ablation combination.
 *
 * Three layers of evidence:
 *  1. real-workload differentials over the full config grid,
 *  2. a randomized-trace property test (the scan kernel acts as the
 *     brute-force oracle for the event kernel's ready sets),
 *  3. targeted regressions for the subtle re-arm paths: last-arrival
 *     mispredict replay (retry_cycle re-arms) and loads parked behind
 *     unresolved older stores.
 *
 * Plus unit tests for the two new structures the event kernel leans
 * on, ReadySet and FuPool::freeSpan, and a check that a core reused
 * for a smaller run matches a fresh core (the per-op lanes are never
 * reset between runs).
 */

#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "helpers.h"
#include "sched_grid.h"

namespace redsoc {
namespace {

using test::differentialConfigs;
using test::makeTrace;
using test::randomTrace;
using test::runCore;

// ---------------------------------------------------------------------
// Differential harness
// ---------------------------------------------------------------------

/** Compare every deterministic CoreStats field (sim_seconds is host
 *  wall clock and intentionally excluded). */
void
expectStatsEqual(const CoreStats &scan, const CoreStats &event,
                 const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(scan.cycles, event.cycles);
    EXPECT_EQ(scan.committed, event.committed);
    EXPECT_EQ(scan.fu_stall_cycles, event.fu_stall_cycles);
    EXPECT_EQ(scan.recycled_ops, event.recycled_ops);
    EXPECT_EQ(scan.two_cycle_holds, event.two_cycle_holds);
    EXPECT_EQ(scan.slack_recycled_ticks, event.slack_recycled_ticks);
    EXPECT_EQ(scan.egpw_requests, event.egpw_requests);
    EXPECT_EQ(scan.egpw_grants, event.egpw_grants);
    EXPECT_EQ(scan.egpw_wasted, event.egpw_wasted);
    EXPECT_EQ(scan.fused_ops, event.fused_ops);
    EXPECT_EQ(scan.la_predictions, event.la_predictions);
    EXPECT_EQ(scan.la_mispredictions, event.la_mispredictions);
    EXPECT_EQ(scan.width_predictions, event.width_predictions);
    EXPECT_EQ(scan.width_aggressive, event.width_aggressive);
    EXPECT_EQ(scan.width_conservative, event.width_conservative);
    EXPECT_EQ(scan.branch_lookups, event.branch_lookups);
    EXPECT_EQ(scan.branch_mispredicts, event.branch_mispredicts);
    EXPECT_EQ(scan.loads, event.loads);
    EXPECT_EQ(scan.stores, event.stores);
    EXPECT_EQ(scan.l1_load_misses, event.l1_load_misses);
    EXPECT_EQ(scan.store_forwards, event.store_forwards);
    EXPECT_EQ(scan.threshold_min, event.threshold_min);
    EXPECT_EQ(scan.threshold_max, event.threshold_max);
    EXPECT_EQ(scan.threshold_final, event.threshold_final);
    EXPECT_EQ(scan.commit_checksum, event.commit_checksum);
    EXPECT_DOUBLE_EQ(scan.expected_chain_length,
                     event.expected_chain_length);

    const Histogram &hs = scan.chain_lengths;
    const Histogram &he = event.chain_lengths;
    EXPECT_EQ(hs.maxSample(), he.maxSample());
    EXPECT_EQ(hs.count(), he.count());
    EXPECT_EQ(hs.total(), he.total());
    EXPECT_EQ(hs.sumSquares(), he.sumSquares());
    EXPECT_EQ(hs.rawBuckets(), he.rawBuckets());
}

CoreStats
runKernel(const Trace &trace, CoreConfig cfg, SchedKernel kernel)
{
    cfg.sched_kernel = kernel;
    return runCore(trace, std::move(cfg));
}

/** Run both kernels on the same trace and assert full agreement.
 *  Returns the scan-kernel stats for additional assertions. */
CoreStats
expectKernelsAgree(const Trace &trace, const CoreConfig &cfg,
                   const std::string &what)
{
    CoreStats scan = runKernel(trace, cfg, SchedKernel::Scan);
    CoreStats event = runKernel(trace, cfg, SchedKernel::Event);
    expectStatsEqual(scan, event, what);
    return scan;
}

// The acceptance grid itself (differentialConfigs) and the random
// trace generator live in sched_grid.h, shared with test_critpath.cc.

// ---------------------------------------------------------------------
// Layer 1: real workloads x full config grid
// ---------------------------------------------------------------------

class WorkloadDifferential : public ::testing::TestWithParam<std::string>
{
  protected:
    static SimDriver &sharedDriver()
    {
        static SimDriver driver;
        return driver;
    }
};

TEST_P(WorkloadDifferential, KernelsBitIdentical)
{
    const std::string workload = GetParam();
    const Trace &trace = sharedDriver().trace(workload);
    for (const auto &[tag, cfg] : differentialConfigs("big"))
        expectKernelsAgree(trace, cfg, workload + "/" + tag);
}

TEST_P(WorkloadDifferential, SmallCoreKernelsBitIdentical)
{
    // The small core has tighter structures (more stalls, more RS
    // pressure), hitting the full/park/retry paths harder.
    const std::string workload = GetParam();
    const Trace &trace = sharedDriver().trace(workload);
    for (const std::string tag :
         {"redsoc", "redsoc_dynamic", "mos", "baseline"}) {
        for (const auto &[name, cfg] : differentialConfigs("small")) {
            if (name == tag)
                expectKernelsAgree(trace, cfg,
                                   workload + "/small/" + tag);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, WorkloadDifferential,
                         ::testing::Values("crc", "gsm", "act", "bzip2",
                                           "conv", "xalanc"),
                         [](const auto &pinfo) { return pinfo.param; });

// ---------------------------------------------------------------------
// Layer 2: randomized-trace property test (scan kernel = oracle)
// ---------------------------------------------------------------------

class RandomTraceDifferential
    : public ::testing::TestWithParam<u64>
{
};

TEST_P(RandomTraceDifferential, EventMatchesScanOracle)
{
    const u64 seed = GetParam();
    const Trace trace = randomTrace(seed, 600);
    for (const std::string core : {"big", "small"}) {
        for (const auto &[tag, cfg] : differentialConfigs(core)) {
            expectKernelsAgree(trace, cfg,
                               "seed=" + std::to_string(seed) + "/" +
                                   core + "/" + tag);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTraceDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u, 0xdeadbeefu,
                                           0xfeedfaceu));

// ---------------------------------------------------------------------
// Lane reuse: a core's per-op lanes are allocated uninitialized and
// reused by later runs, so a run must never read a lane entry before
// its own dispatch wrote it.
// ---------------------------------------------------------------------

TEST(LaneReuse, SmallRunAfterLargeMatchesFreshCore)
{
    const Trace large = randomTrace(11, 2000);
    const Trace small = randomTrace(12, 400);
    ASSERT_GT(large.size(), small.size());
    for (const SchedKernel kernel : {SchedKernel::Scan, SchedKernel::Event}) {
        for (const SchedMode mode :
             {SchedMode::Baseline, SchedMode::ReDSOC, SchedMode::MOS}) {
            CoreConfig cfg = coreByName("big");
            cfg.mode = mode;
            cfg.sched_kernel = kernel;
            const CoreStats fresh = runCore(small, cfg);
            OooCore reused(cfg);
            reused.run(large);
            expectStatsEqual(fresh, reused.run(small),
                             std::string(schedKernelName(kernel)) + "/" +
                                 schedModeName(mode));
        }
    }
}

// ---------------------------------------------------------------------
// Layer 3: targeted regressions
// ---------------------------------------------------------------------

/**
 * Last-arrival replay: the Operational RS predicts which parent
 * arrives last; alternating which of two producers (fast ADD vs slow
 * MUL feeding the consumer's two operands) really arrives last forces
 * mispredicts, whose retry_cycle re-arm the event kernel must replay
 * at exactly the legacy cycle.
 */
TEST(SchedEquivRegression, LastArrivalReplayReArm)
{
    ProgramBuilder b("sched_equiv");
    b.movImm(x(1), 7);
    b.movImm(x(2), 9);
    b.movImm(x(5), 3);
    for (unsigned i = 0; i < 200; ++i) {
        if (i % 2 == 0) {
            b.mul(x(3), x(1), x(5));           // slow operand a
            b.alui(Opcode::ADD, x(4), x(2), 1); // fast operand b
        } else {
            b.alui(Opcode::ADD, x(3), x(1), 1); // fast operand a
            b.mul(x(4), x(2), x(5));           // slow operand b
        }
        b.alu(Opcode::EOR, x(1), x(3), x(4));  // 2-source consumer
        b.alu(Opcode::ADD, x(2), x(4), x(3));
    }
    b.halt();
    const Trace trace = makeTrace(b);

    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;
    cfg.rs_design = RsDesign::Operational;
    CoreStats scan = expectKernelsAgree(trace, cfg, "la-replay");
    // The construction must actually hit the replay path, otherwise
    // this regression guards nothing.
    EXPECT_GT(scan.la_mispredictions, 0u);
}

/**
 * Parked-load re-arm: a load blocked on an older store with a slow
 * address/data chain has no wake event of its own — it must be
 * re-evaluated when stores issue, and only then.
 */
TEST(SchedEquivRegression, ParkedLoadWokenByStoreIssue)
{
    ProgramBuilder b("sched_equiv");
    b.movImm(x(11), 0x2000);
    b.movImm(x(5), 3);
    b.movImm(x(1), 40);
    for (unsigned i = 0; i < 120; ++i) {
        b.mul(x(2), x(1), x(5)); // slow chain feeding store data
        b.mul(x(2), x(2), x(5));
        b.store(Opcode::STR, x(2), x(11), 8 * (i % 16));
        b.load(Opcode::LDR, x(3), x(11), 8 * (i % 16)); // same addr
        b.alui(Opcode::ADD, x(1), x(3), 1);
    }
    b.halt();
    const Trace trace = makeTrace(b);

    for (const std::string core : {"big", "small"}) {
        CoreConfig cfg = coreByName(core);
        cfg.mode = SchedMode::ReDSOC;
        CoreStats scan =
            expectKernelsAgree(trace, cfg, "parked-load/" + core);
        EXPECT_GT(scan.store_forwards, 0u);
    }
}

/** MOS fusion differential on a fusion-friendly kernel shape. */
TEST(SchedEquivRegression, MosFusionChains)
{
    ProgramBuilder b("sched_equiv");
    test::emitLogicChain(b, 400);
    b.halt();
    const Trace trace = makeTrace(b);

    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::MOS;
    CoreStats scan = expectKernelsAgree(trace, cfg, "mos-chains");
    EXPECT_GT(scan.fused_ops, 0u);
}

// ---------------------------------------------------------------------
// Structure unit tests: ReadySet and FuPool::freeSpan
// ---------------------------------------------------------------------

TEST(ReadySetTest, InsertEraseIdempotent)
{
    ReadySet rs;
    EXPECT_TRUE(rs.empty());
    rs.insert(5);
    rs.insert(5); // duplicate: no double count
    EXPECT_EQ(rs.size(), 1u);
    EXPECT_TRUE(rs.contains(5));
    rs.erase(5);
    rs.erase(5); // absent: no-op
    EXPECT_TRUE(rs.empty());
    EXPECT_FALSE(rs.contains(5));
    rs.erase(42); // never inserted
    EXPECT_TRUE(rs.empty());
}

TEST(ReadySetTest, GlobalAgeOrder)
{
    ReadySet rs;
    rs.insert(30);
    rs.insert(10);
    rs.insert(20);
    rs.insert(25);

    // A cursor sweep must see the candidates merged oldest-first.
    std::vector<SeqNum> order;
    SeqNum cur = 0;
    for (SeqNum seq; (seq = rs.nextAtOrAfter(cur)) != kNoSeq;
         cur = seq + 1)
        order.push_back(seq);
    EXPECT_EQ(order, (std::vector<SeqNum>{10, 20, 25, 30}));
}

TEST(ReadySetTest, NextAtOrAfterIsInclusive)
{
    ReadySet rs;
    rs.insert(7);
    EXPECT_EQ(rs.nextAtOrAfter(7), 7u);
    EXPECT_EQ(rs.nextAtOrAfter(8), kNoSeq);
}

TEST(ReadySetTest, PopMatchesNextPlusErase)
{
    ReadySet rs;
    for (SeqNum s : {3u, 64u, 65u, 200u})
        rs.insert(s);
    std::vector<SeqNum> popped;
    SeqNum cur = 0;
    for (SeqNum seq; (seq = rs.popAtOrAfter(cur)) != kNoSeq;
         cur = seq + 1)
        popped.push_back(seq);
    EXPECT_EQ(popped, (std::vector<SeqNum>{3, 64, 65, 200}));
    EXPECT_TRUE(rs.empty());
    EXPECT_EQ(rs.popAtOrAfter(0), kNoSeq);
}

TEST(ReadySetTest, RingRecyclesAcrossWindows)
{
    // The drain discipline: the set empties every cycle, so far-apart
    // seq windows reuse ring slots. Interleave a full drain between
    // distant batches and verify age order within each.
    ReadySet rs;
    rs.configure(64);
    for (unsigned round = 0; round < 8; ++round) {
        const SeqNum base = SeqNum{round} * 100000;
        for (SeqNum off : {63u, 0u, 31u, 17u})
            rs.insert(base + off);
        EXPECT_EQ(rs.size(), 4u);
        std::vector<SeqNum> order;
        SeqNum cur = 0;
        for (SeqNum seq; (seq = rs.popAtOrAfter(cur)) != kNoSeq;
             cur = seq + 1)
            order.push_back(seq);
        EXPECT_EQ(order, (std::vector<SeqNum>{base + 0, base + 17,
                                              base + 31, base + 63}));
        EXPECT_TRUE(rs.empty());
    }
}

TEST(ReadySetTest, GrowOnLiveCollision)
{
    // A deliberately undersized ring: live words that alias force a
    // grow, after which every candidate must still be present and in
    // age order.
    ReadySet rs;
    rs.configure(1); // handful of word slots
    std::vector<SeqNum> want;
    for (unsigned i = 0; i < 64; ++i) {
        const SeqNum seq = SeqNum{i} * 4096 + i; // distinct words
        rs.insert(seq);
        want.push_back(seq);
    }
    EXPECT_EQ(rs.size(), want.size());
    for (SeqNum seq : want)
        EXPECT_TRUE(rs.contains(seq));
    std::vector<SeqNum> order;
    SeqNum cur = 0;
    for (SeqNum seq; (seq = rs.nextAtOrAfter(cur)) != kNoSeq;
         cur = seq + 1)
        order.push_back(seq);
    EXPECT_EQ(order, want);
}

TEST(ReadySetTest, ClearResets)
{
    ReadySet rs;
    for (SeqNum s = 0; s < 8; ++s)
        rs.insert(s);
    EXPECT_EQ(rs.size(), 8u);
    rs.clear();
    EXPECT_TRUE(rs.empty());
    EXPECT_EQ(rs.nextAtOrAfter(0), kNoSeq);
}

TEST(FuPoolTest, FreeSpanMatchesFreeUnitsLoop)
{
    CoreConfig cfg = coreByName("small");
    FuPool pool(cfg);
    Rng rng(99);

    // Random bookings, then cross-check freeSpan against the
    // reference freeUnits loop on random probes.
    for (unsigned i = 0; i < 200; ++i) {
        const auto kind = static_cast<FuPoolKind>(rng.below(4));
        const Cycle c = 100 + rng.below(40);
        if (pool.freeUnits(kind, c) > 0 && pool.freeUnits(kind, c + 1) > 0)
            pool.book(kind, c,
                      static_cast<unsigned>(1 + rng.below(2)));
    }
    for (unsigned i = 0; i < 400; ++i) {
        const auto kind = static_cast<FuPoolKind>(rng.below(4));
        const Cycle c = 100 + rng.below(40);
        const unsigned span = static_cast<unsigned>(1 + rng.below(3));
        bool ref = true;
        for (unsigned k = 0; k < span; ++k)
            if (pool.freeUnits(kind, c + k) == 0)
                ref = false;
        EXPECT_EQ(pool.freeSpan(kind, c, span), ref)
            << "kind=" << static_cast<int>(kind) << " c=" << c
            << " span=" << span;
    }
}

TEST(FuPoolTest, FreeSpanZeroSpanAlwaysFree)
{
    CoreConfig cfg = coreByName("small");
    FuPool pool(cfg);
    for (unsigned u = 0; u < cfg.alu_units; ++u)
        pool.book(FuPoolKind::Alu, 5);
    EXPECT_FALSE(pool.freeSpan(FuPoolKind::Alu, 5, 1));
    EXPECT_TRUE(pool.freeSpan(FuPoolKind::Alu, 5, 0)); // MOS fusion span
}

} // namespace
} // namespace redsoc
