/**
 * @file
 * Scheduler-kernel differential suite: the event-driven kernel
 * (SchedKernel::Event) must be bit-identical to the legacy full-scan
 * kernel (SchedKernel::Scan) on every statistic and on the committed
 * schedule checksum, across every mode x ablation combination. Each
 * point goes through the contract checker (checkContracts,
 * tools/fuzz) asking for kScanEqualsEvent.
 *
 * Three layers of evidence:
 *  1. real-workload differentials over the full config grid,
 *  2. a randomized-trace property test (the scan kernel acts as the
 *     brute-force oracle for the event kernel's ready sets),
 *  3. targeted regressions for the subtle re-arm paths: last-arrival
 *     mispredict replay (retry_cycle re-arms) and loads parked behind
 *     unresolved older stores.
 *
 * Plus unit tests for two structures the event kernel leans on,
 * WindowSet (its candidate sets) and FuPool::freeSpan, a check that
 * a core reused for a
 * smaller run matches a fresh core (the per-op lanes are never reset
 * between runs), and pinned schedules for small ROBs whose consumers
 * read producers committed more than a window ring's length earlier
 * (a ring-slot aliasing bug would hit both kernels alike).
 */

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fuzz_lib.h"
#include "helpers.h"
#include "sched_grid.h"
#include "sim/run_cache.h"

namespace redsoc {
namespace {

using fuzz::checkContracts;
using test::differentialConfigs;
using test::makeTrace;
using test::randomTrace;
using test::runCore;

/** Both kernels on one point must agree; returns the point's stats
 *  for further assertions. */
CoreStats
expectScanEqualsEvent(const Trace &trace, const CoreConfig &cfg,
                      const std::string &what)
{
    const fuzz::ContractReport r =
        checkContracts(trace, cfg, {.checks = fuzz::kScanEqualsEvent});
    EXPECT_EQ(r.failure, "") << what;
    return r.stats;
}

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
        expectScanEqualsEvent(trace, cfg, workload + "/" + tag);
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
                expectScanEqualsEvent(trace, cfg,
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
            expectScanEqualsEvent(trace, cfg,
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
            EXPECT_EQ(firstDifference(fresh, reused.run(small)), "")
                << schedKernelName(kernel) << "/" << schedModeName(mode);
        }
    }
}

// ---------------------------------------------------------------------
// Window rings: every lane but st_/sel_/done_ is a ring of
// bit_ceil(rob_entries) slots, so a consumer of a long-committed
// producer must read only the trace-long lanes for it.
// ---------------------------------------------------------------------

/**
 * A loop whose consumers read producers written more than 64 ops
 * earlier: the memory base, a multiplier and a value carried over an
 * 80-op filler burst. The consumers are two-source slack-eligible ops
 * (last-arrival prediction and training, EGPW, fusion), a store and
 * a load off the far base, and a MUL.
 */
Trace
farProducerTrace()
{
    ProgramBuilder b("ring_window");
    b.movImm(x(9), 0x35);
    b.movImm(x(10), 0x1b);
    b.movImm(x(11), 0x2000);
    b.movImm(x(12), 3);
    b.movImm(x(7), 24);
    auto loop = b.newLabel();
    b.bind(loop);
    for (unsigned j = 0; j < 80; ++j)
        b.alui(j % 2 ? Opcode::EOR : Opcode::ADD, x(1 + j % 4),
               x(1 + j % 4), static_cast<s64>(j));
    b.alu(Opcode::ADD, x(5), x(9), x(1));
    b.alu(Opcode::EOR, x(6), x(10), x(5));
    b.store(Opcode::STR, x(6), x(11), 8);
    b.load(Opcode::LDR, x(8), x(11), 8);
    b.mul(x(2), x(8), x(12));
    b.alui(Opcode::ADD, x(9), x(6), 1);
    b.alui(Opcode::SUB, x(7), x(7), 1);
    b.bnez(x(7), loop);
    b.halt();
    return makeTrace(b);
}

/** Sets REDSOC_AUDIT=1 for its lifetime (cores read it when built). */
struct ScopedAudit
{
    ScopedAudit() { ::setenv("REDSOC_AUDIT", "1", 1); }
    ~ScopedAudit() { ::unsetenv("REDSOC_AUDIT"); }
};

TEST(WindowRing, FarProducersPinnedOnSmallRobs)
{
    const Trace trace = farProducerTrace();

    // The construction must read producers more than 64 ops back,
    // past the ring of a 40-entry ROB.
    std::vector<SeqNum> writer(kNumRegs, kNoSeq);
    unsigned far_reads = 0;
    for (SeqNum seq = 0; seq < trace.size(); ++seq) {
        const Inst &inst = trace.inst(seq);
        for (RegIdx r : inst.sources())
            if (r != kNoReg && writer[r] != kNoSeq &&
                seq - writer[r] > 64)
                ++far_reads;
        if (inst.destination() != kNoReg)
            writer[inst.destination()] = seq;
    }
    EXPECT_GT(far_reads, 100u);

    // Commit checksums of the schedules before the lanes became rings.
    struct Pin
    {
        unsigned rob;
        const char *tag;
        u64 checksum;
    };
    const Pin pins[] = {
        {8, "baseline", 0x8fa11d80f6bee8c9ull},
        {8, "mos", 0x784ba6f52d2e418bull},
        {8, "redsoc", 0x1e1ee1e7a92cbcbeull},
        {8, "redsoc_illustrative", 0x1e1ee1e7a92cbcbeull},
        {40, "baseline", 0xfbccca5fd3132d3cull},
        {40, "mos", 0xdcc627f99f9d04c0ull},
        {40, "redsoc", 0xc684fef246c12e6eull},
        {40, "redsoc_illustrative", 0x5beb7bf2435360c0ull},
    };
    const ScopedAudit audit; // ring-owner checks every lane access
    for (const unsigned rob : {8u, 40u}) {
        for (auto [tag, cfg] : differentialConfigs("small")) {
            cfg.rob_entries = rob;
            const std::string what = "rob" + std::to_string(rob) + "/" + tag;
            const CoreStats stats = expectScanEqualsEvent(trace, cfg, what);
            EXPECT_EQ(stats.committed, trace.size()) << what;
            for (const Pin &pin : pins) {
                if (pin.rob != rob || tag != pin.tag)
                    continue;
                EXPECT_EQ(stats.commit_checksum, pin.checksum)
                    << what << std::hex << " got 0x" << stats.commit_checksum;
            }
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
    const CoreStats scan = expectScanEqualsEvent(trace, cfg, "la-replay");
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
            expectScanEqualsEvent(trace, cfg, "parked-load/" + core);
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
    CoreStats scan = expectScanEqualsEvent(trace, cfg, "mos-chains");
    EXPECT_GT(scan.fused_ops, 0u);
}

// ---------------------------------------------------------------------
// Structure unit tests: WindowSet and FuPool::freeSpan
// ---------------------------------------------------------------------

/** Members of @p set at or after @p from, walked oldest first from the
 *  window starting at seq @p base (the core's nextIn). */
std::vector<SeqNum>
walk(const WindowSet &set, SeqNum base, SeqNum from)
{
    const size_t mask = set.slots() - 1;
    std::vector<SeqNum> order;
    for (SeqNum seq = from;; ++seq) {
        const size_t d = set.next(base & mask, seq - base);
        if (d == WindowSet::kNone)
            break;
        seq = base + d;
        order.push_back(seq);
    }
    return order;
}

TEST(WindowSetTest, InsertEraseIdempotent)
{
    WindowSet ws;
    ws.configure(64);
    EXPECT_TRUE(ws.empty());
    ws.insert(5);
    ws.insert(5); // duplicate: no double count
    EXPECT_EQ(ws.size(), 1u);
    EXPECT_TRUE(ws.contains(5));
    ws.erase(5);
    ws.erase(5); // absent: no-op
    EXPECT_TRUE(ws.empty());
    EXPECT_FALSE(ws.contains(5));
    ws.erase(42); // never inserted
    EXPECT_TRUE(ws.empty());
}

TEST(WindowSetTest, OldestFirstAcrossTheRingWrap)
{
    // Windows of a ROB's size at random bases, so most straddle the
    // ring's end: the walk must still come out in age order, from
    // the window's start and from any cursor inside it.
    for (const unsigned rob : {8u, 40u, 192u}) {
        const size_t slots = std::bit_ceil(size_t{rob});
        WindowSet ws;
        ws.configure(slots);
        Rng rng(rob);
        for (unsigned round = 0; round < 200; ++round) {
            const SeqNum base = rng.below(100000);
            std::vector<SeqNum> members;
            for (SeqNum seq = base; seq < base + rob; ++seq)
                if (rng.below(3) == 0)
                    members.push_back(seq);
            std::vector<SeqNum> shuffled = members;
            for (size_t i = shuffled.size(); i > 1; --i)
                std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
            for (SeqNum seq : shuffled)
                ws.insert(seq & (slots - 1));
            ASSERT_EQ(ws.size(), members.size()) << "rob " << rob;
            EXPECT_EQ(walk(ws, base, base), members)
                << "rob " << rob << " base " << base;
            const SeqNum cursor = base + rng.below(rob);
            std::vector<SeqNum> tail;
            for (SeqNum seq : members)
                if (seq >= cursor)
                    tail.push_back(seq);
            EXPECT_EQ(walk(ws, base, cursor), tail)
                << "rob " << rob << " base " << base << " cursor "
                << cursor;
            ws.clear();
            EXPECT_TRUE(ws.empty());
        }
    }
}

TEST(WindowSetTest, NextIsInclusive)
{
    WindowSet ws;
    ws.configure(8);
    const SeqNum base = 13; // slot 5: the window wraps
    ws.insert(17 & 7);
    EXPECT_EQ(walk(ws, base, 17), (std::vector<SeqNum>{17}));
    EXPECT_EQ(walk(ws, base, 18), std::vector<SeqNum>{});
}

TEST(WindowSetTest, WalkVisitsInsertsAheadOfTheCursor)
{
    // Phase A's cascade: granting an op wakes a younger consumer,
    // which the same walk must still reach; erasing behind the cursor
    // changes nothing ahead of it.
    WindowSet ws;
    ws.configure(64);
    const SeqNum base = 50; // window [50, 90) wraps at slot 63
    ws.insert(52 & 63);
    std::vector<SeqNum> order;
    for (SeqNum seq = base;; ++seq) {
        const size_t d = ws.next(base & 63, seq - base);
        if (d == WindowSet::kNone)
            break;
        seq = base + d;
        order.push_back(seq);
        ws.erase(seq & 63);
        if (seq == 52)
            ws.insert(70 & 63);
        if (seq == 70)
            ws.insert(85 & 63);
    }
    EXPECT_EQ(order, (std::vector<SeqNum>{52, 70, 85}));
    EXPECT_TRUE(ws.empty());
}

TEST(WindowSetTest, TakeMergesTheNextCycleSet)
{
    WindowSet ready;
    WindowSet next;
    ready.configure(256);
    next.configure(256);
    for (size_t slot : {3u, 9u, 200u})
        ready.insert(slot);
    for (size_t slot : {5u, 9u, 255u})
        next.insert(slot);
    ready.take(next);
    EXPECT_TRUE(next.empty());
    EXPECT_EQ(next.next(0, 0), WindowSet::kNone);
    EXPECT_EQ(ready.size(), 5u);
    EXPECT_EQ(walk(ready, 0, 0),
              (std::vector<SeqNum>{3, 5, 9, 200, 255}));
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
