/**
 * @file
 * Pipeline-structure tests: the core's ROB window, LSQ ordering/
 * forwarding (including across the ring wrap), reservation-station
 * occupancy, RAT, FU-pool booking (including the 2-cycle
 * transparent holds), and the cache-model property suite (LRU state
 * equality, prefetcher replay determinism, shared-LLC inclusion and
 * MSHR accounting), and the page region behind the critical-path
 * arrays.
 */

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/page_region.h"
#include "common/rng.h"
#include "core/fu_pool.h"
#include "core/lsq.h"
#include "core/rat.h"
#include "core/rs.h"
#include "helpers.h"
#include "isa/builder.h"
#include "mem/cache.h"
#include "mem/prefetcher.h"
#include "proc/llc.h"

namespace redsoc {
namespace {

/** Tracks the core's in-flight window from its Dispatch and Commit
 *  events: commit emits before dispatch within a cycle, so the count
 *  after each dispatch is the ROB occupancy. */
class RobWindowSink : public TraceSink
{
  public:
    void onBeginRun(Tick) override {}
    void onEvent(const PipeEvent &e) override
    {
        if (e.kind == PipeEventKind::Dispatch) {
            EXPECT_EQ(e.seq, dispatched) << "dispatch out of order";
            ++dispatched;
            max_in_flight = std::max(max_in_flight, dispatched - committed);
        } else if (e.kind == PipeEventKind::Commit) {
            EXPECT_EQ(e.seq, committed) << "commit out of order";
            ++committed;
        }
    }
    SeqNum dispatched = 0;
    SeqNum committed = 0;
    SeqNum max_in_flight = 0;
};

TEST(Rob, WindowBoundsInFlightOpsAndCommitsInOrder)
{
    // A divide chain at the head stalls commit while independent ops
    // keep dispatching, so the window fills to exactly its capacity.
    ProgramBuilder b("rob_fill");
    b.movImm(x(1), 1000);
    b.movImm(x(2), 3);
    for (int i = 0; i < 4; ++i)
        b.sdiv(x(1), x(1), x(2));
    for (int i = 0; i < 40; ++i)
        b.alui(Opcode::ADD, x(3 + i % 4), x(8), i);
    b.halt();
    const Trace trace = test::makeTrace(b);

    CoreConfig cfg = coreByName("big");
    cfg.rob_entries = 8;
    PipeTracer tracer;
    RobWindowSink sink;
    tracer.setSink(&sink);
    OooCore core(cfg);
    core.setTracer(&tracer);
    const CoreStats stats = core.run(trace);
    EXPECT_EQ(sink.dispatched, trace.size());
    EXPECT_EQ(sink.committed, stats.committed);
    EXPECT_EQ(sink.max_in_flight, 8u);
}

TEST(Lsq, OlderStoreGatesLoads)
{
    Lsq lsq(8);
    lsq.dispatch(1, true);  // store, address unknown
    lsq.dispatch(2, false); // load
    EXPECT_TRUE(lsq.olderStoreUnresolved(2));
    lsq.resolve(1, 0x100, 8, 50);
    EXPECT_FALSE(lsq.olderStoreUnresolved(2));
}

TEST(Lsq, FullCoverForwarding)
{
    Lsq lsq(8);
    lsq.dispatch(1, true);
    lsq.dispatch(2, false);
    lsq.resolve(1, 0x100, 8, 40);
    const auto fwd = lsq.forwardFrom(2, 0x100, 8);
    ASSERT_TRUE(fwd.has_value());
    EXPECT_TRUE(fwd->full_cover);
    EXPECT_EQ(fwd->store_complete, 40u);
}

TEST(Lsq, PartialOverlapIsFlagged)
{
    Lsq lsq(8);
    lsq.dispatch(1, true);
    lsq.dispatch(2, false);
    lsq.resolve(1, 0x104, 4, 40);
    const auto fwd = lsq.forwardFrom(2, 0x100, 8);
    ASSERT_TRUE(fwd.has_value());
    EXPECT_FALSE(fwd->full_cover);
    EXPECT_TRUE(fwd->partial);
}

TEST(Lsq, YoungestOlderStoreWins)
{
    Lsq lsq(8);
    lsq.dispatch(1, true);
    lsq.dispatch(2, true);
    lsq.dispatch(3, false);
    lsq.resolve(1, 0x100, 8, 10);
    lsq.resolve(2, 0x100, 8, 20);
    const auto fwd = lsq.forwardFrom(3, 0x100, 8);
    ASSERT_TRUE(fwd.has_value());
    EXPECT_EQ(fwd->store_complete, 20u);
}

TEST(Lsq, YoungerStoresDoNotForwardBackwards)
{
    Lsq lsq(8);
    lsq.dispatch(1, false); // load
    lsq.dispatch(2, true);  // younger store
    lsq.resolve(2, 0x100, 8, 20);
    EXPECT_FALSE(lsq.forwardFrom(1, 0x100, 8).has_value());
}

TEST(Lsq, YoungerPartialStoreShadowsOlderFullCover)
{
    // An older store covers the whole load, but a younger store owns
    // four of its bytes: no single store sources every byte, so the
    // load cannot forward and must wait for BOTH stores (the byte
    // sources) before reading the cache. The youngest-first
    // early-return used to report only the younger store's (earlier)
    // completion here.
    Lsq lsq(8);
    lsq.dispatch(1, true);
    lsq.dispatch(2, true);
    lsq.dispatch(3, false);
    lsq.resolve(1, 0x100, 8, 90); // full cover, completes late
    lsq.resolve(2, 0x104, 4, 20); // partial shadow, completes early
    const auto fwd = lsq.forwardFrom(3, 0x100, 8);
    ASSERT_TRUE(fwd.has_value());
    EXPECT_FALSE(fwd->full_cover);
    EXPECT_TRUE(fwd->partial);
    EXPECT_EQ(fwd->store_complete, 90u);
}

TEST(Lsq, TwoPartialStoresJointlyCoverTheLoad)
{
    // Each store owns half the load: jointly covered, but not by a
    // single store, so it is still a stall (not a forward), gated on
    // the later of the two contributors.
    Lsq lsq(8);
    lsq.dispatch(1, true);
    lsq.dispatch(2, true);
    lsq.dispatch(3, false);
    lsq.resolve(1, 0x100, 4, 70);
    lsq.resolve(2, 0x104, 4, 30);
    const auto fwd = lsq.forwardFrom(3, 0x100, 8);
    ASSERT_TRUE(fwd.has_value());
    EXPECT_FALSE(fwd->full_cover);
    EXPECT_TRUE(fwd->partial);
    EXPECT_EQ(fwd->store_complete, 70u);
}

TEST(Lsq, FullyShadowedOlderStoreHasNoTimingEffect)
{
    // The youngest store covers the whole load; an older overlapping
    // store contributes no byte and must not delay (or un-forward)
    // the load no matter how late it completes.
    Lsq lsq(8);
    lsq.dispatch(1, true);
    lsq.dispatch(2, true);
    lsq.dispatch(3, false);
    lsq.resolve(1, 0x100, 8, 500); // fully shadowed, very late
    lsq.resolve(2, 0x100, 8, 20);  // youngest: sources every byte
    const auto fwd = lsq.forwardFrom(3, 0x100, 8);
    ASSERT_TRUE(fwd.has_value());
    EXPECT_TRUE(fwd->full_cover);
    EXPECT_EQ(fwd->store_complete, 20u);
}

TEST(Lsq, DisjointYoungerStoreDoesNotHideOlderFullCover)
{
    // A younger store that does not overlap the load at all leaves an
    // older full-cover store as the single byte source: forwardable.
    Lsq lsq(8);
    lsq.dispatch(1, true);
    lsq.dispatch(2, true);
    lsq.dispatch(3, false);
    lsq.resolve(1, 0x100, 8, 60);
    lsq.resolve(2, 0x200, 8, 10); // disjoint
    const auto fwd = lsq.forwardFrom(3, 0x100, 8);
    ASSERT_TRUE(fwd.has_value());
    EXPECT_TRUE(fwd->full_cover);
    EXPECT_EQ(fwd->store_complete, 60u);
}

TEST(Lsq, UnresolvedStoreDoesNotContribute)
{
    // Only resolved stores enter the byte scan (the conservative
    // olderStoreUnresolved gate keeps the load from issuing anyway).
    Lsq lsq(8);
    lsq.dispatch(1, true);
    lsq.dispatch(2, true);
    lsq.dispatch(3, false);
    lsq.resolve(1, 0x100, 8, 40);
    const auto fwd = lsq.forwardFrom(3, 0x100, 8);
    ASSERT_TRUE(fwd.has_value());
    EXPECT_TRUE(fwd->full_cover);
    EXPECT_EQ(fwd->store_complete, 40u);
}

TEST(Lsq, SeqsReportsProgramOrder)
{
    Lsq lsq(4);
    lsq.dispatch(3, true);
    lsq.dispatch(5, false);
    std::vector<SeqNum> out;
    lsq.seqs(out);
    EXPECT_EQ(out, (std::vector<SeqNum>{3, 5}));
}

TEST(Lsq, CommitInProgramOrder)
{
    Lsq lsq(4);
    lsq.dispatch(1, true);
    lsq.dispatch(2, false);
    EXPECT_THROW(lsq.commit(2), std::logic_error);
    lsq.commit(1);
    lsq.commit(2);
    EXPECT_EQ(lsq.size(), 0u);
}

TEST(Lsq, ForwardingAcrossRingWrap)
{
    // Capacity 3 rounds up to a 4-slot ring: after ten commits the
    // live entries straddle the wrap, and forwarding must still pick
    // the youngest older store.
    Lsq lsq(3);
    SeqNum seq = 0;
    for (; seq < 10; ++seq) {
        lsq.dispatch(seq, true);
        lsq.resolve(seq, 0x100, 8, seq);
        lsq.commit(seq);
    }
    lsq.dispatch(10, true);
    lsq.dispatch(11, true);
    lsq.dispatch(12, false);
    EXPECT_TRUE(lsq.full());
    EXPECT_THROW(lsq.dispatch(13, false), std::logic_error);
    EXPECT_TRUE(lsq.olderStoreUnresolved(12));
    EXPECT_EQ(lsq.youngestUnresolvedStoreBefore(12), 11u);
    lsq.resolve(10, 0x100, 8, 70);
    lsq.resolve(11, 0x100, 8, 30);
    EXPECT_FALSE(lsq.olderStoreUnresolved(12));
    const auto fwd = lsq.forwardFrom(12, 0x100, 8);
    ASSERT_TRUE(fwd.has_value());
    EXPECT_TRUE(fwd->full_cover);
    EXPECT_EQ(fwd->store_complete, 30u); // store 11, not store 10
    std::vector<SeqNum> out;
    lsq.seqs(out);
    EXPECT_EQ(out, (std::vector<SeqNum>{10, 11, 12}));
    EXPECT_THROW(lsq.commit(11), std::logic_error);
    lsq.commit(10);
    lsq.commit(11);
    lsq.commit(12);
    EXPECT_EQ(lsq.size(), 0u);
}

TEST(Rs, InsertWhenFullPanics)
{
    ReservationStations rs(2);
    rs.insert();
    rs.insert();
    EXPECT_TRUE(rs.full());
    EXPECT_THROW(rs.insert(), std::logic_error);
    rs.remove();
    EXPECT_FALSE(rs.full());
    rs.insert();
    EXPECT_EQ(rs.size(), 2u);
}

TEST(Rs, RemoveWhenEmptyPanics)
{
    ReservationStations rs(2);
    EXPECT_THROW(rs.remove(), std::logic_error);
    rs.insert();
    rs.remove();
    EXPECT_TRUE(rs.empty());
    EXPECT_THROW(rs.remove(), std::logic_error);
}

TEST(Rat, TracksYoungestWriter)
{
    Rat rat;
    EXPECT_EQ(rat.writer(x(3)), kNoSeq);
    rat.setWriter(x(3), 7);
    rat.setWriter(x(3), 9);
    EXPECT_EQ(rat.writer(x(3)), 9u);
    rat.reset();
    EXPECT_EQ(rat.writer(x(3)), kNoSeq);
    EXPECT_THROW(rat.setWriter(kZeroReg, 1), std::logic_error);
}

TEST(Rat, VectorRegistersAreSeparate)
{
    Rat rat;
    rat.setWriter(x(3), 1);
    rat.setWriter(v(3), 2);
    EXPECT_EQ(rat.writer(x(3)), 1u);
    EXPECT_EQ(rat.writer(v(3)), 2u);
}

TEST(FuPool, PoolKindMapping)
{
    EXPECT_EQ(fuPoolKind(FuClass::IntAlu), FuPoolKind::Alu);
    EXPECT_EQ(fuPoolKind(FuClass::IntMul), FuPoolKind::Alu);
    EXPECT_EQ(fuPoolKind(FuClass::SimdMul), FuPoolKind::Simd);
    EXPECT_EQ(fuPoolKind(FuClass::FpDiv), FuPoolKind::Fp);
    EXPECT_EQ(fuPoolKind(FuClass::MemWrite), FuPoolKind::Mem);
}

TEST(FuPool, CapacityBoundsBooking)
{
    FuPool fu(smallCore()); // 3 ALUs
    EXPECT_EQ(fu.capacity(FuPoolKind::Alu), 3u);
    EXPECT_EQ(fu.freeUnits(FuPoolKind::Alu, 10), 3u);
    fu.book(FuPoolKind::Alu, 10);
    fu.book(FuPoolKind::Alu, 10);
    fu.book(FuPoolKind::Alu, 10);
    EXPECT_EQ(fu.freeUnits(FuPoolKind::Alu, 10), 0u);
    EXPECT_THROW(fu.book(FuPoolKind::Alu, 10), std::logic_error);
    // Other cycles are unaffected.
    EXPECT_EQ(fu.freeUnits(FuPoolKind::Alu, 11), 3u);
}

TEST(FuPool, TwoCycleHoldSpansBothCycles)
{
    FuPool fu(smallCore());
    fu.book(FuPoolKind::Alu, 5, 2); // IT3: boundary-crossing op
    EXPECT_EQ(fu.busyUnits(FuPoolKind::Alu, 5), 1u);
    EXPECT_EQ(fu.busyUnits(FuPoolKind::Alu, 6), 1u);
    EXPECT_EQ(fu.busyUnits(FuPoolKind::Alu, 7), 0u);
    fu.release(FuPoolKind::Alu, 5, 2);
    EXPECT_EQ(fu.busyUnits(FuPoolKind::Alu, 5), 0u);
}

TEST(FuPool, RingRecyclesOldCycles)
{
    FuPool fu(mediumCore());
    fu.book(FuPoolKind::Simd, 1);
    // 64+ cycles later the same ring slot is reused cleanly.
    EXPECT_EQ(fu.freeUnits(FuPoolKind::Simd, 65),
              fu.capacity(FuPoolKind::Simd));
    fu.book(FuPoolKind::Simd, 65);
    EXPECT_EQ(fu.busyUnits(FuPoolKind::Simd, 65), 1u);
}

TEST(FuPool, ReleaseUnbookedPanics)
{
    FuPool fu(smallCore());
    EXPECT_THROW(fu.release(FuPoolKind::Fp, 3), std::logic_error);
}

// --- Cache-model properties (DESIGN.md §14) --------------------------

/**
 * Inclusion invariant: with L1s attached, every L1-resident line is
 * also LLC-resident at all times. The LLC is deliberately smaller
 * than the combined L1 footprint so capacity evictions must fire
 * back-invalidations to keep the invariant.
 */
TEST(CacheProperties, SharedLlcPreservesInclusionUnderEviction)
{
    SharedLlc llc(CacheConfig{"llc", 4 * 1024, 2, 64},
                  DramConfig{4, 0}, 2, 100);
    Cache l1a(CacheConfig{"l1a", 8 * 1024, 4, 64});
    Cache l1b(CacheConfig{"l1b", 8 * 1024, 4, 64});
    llc.attachL1(0, &l1a);
    llc.attachL1(1, &l1b);

    std::vector<Addr> touched;
    Rng rng(41);
    for (Cycle now = 0; now < 400; ++now) {
        const Addr addr = Addr{rng.range(0, 255)} * 64;
        const bool is_write = rng.chance(0.3);
        const unsigned core = static_cast<unsigned>(rng.range(0, 1));
        Cache &l1 = core == 0 ? l1a : l1b;
        l1.access(addr, is_write);
        llc.access(core, addr, is_write, now);
        touched.push_back(addr);

        for (Addr line : touched) {
            if (l1a.contains(line) || l1b.contains(line)) {
                ASSERT_TRUE(llc.tags().contains(line))
                    << "L1 line 0x" << std::hex << line
                    << " not backed by the LLC";
            }
        }
    }

    const LlcStats stats = llc.collectStats();
    EXPECT_GT(stats.evictions, 0u) << "grid too small to evict";
    u64 back_invals = 0;
    for (const LlcCoreStats &cs : stats.per_core)
        back_invals += cs.back_invalidations;
    EXPECT_GT(back_invals, 0u)
        << "evictions never found an L1 copy to invalidate";
}

/**
 * MSHR accounting: a cross-core access inside another core's fill
 * window rides the in-flight fill (one merge), never a second miss,
 * and per-core accesses always decompose as hits + misses + merges.
 */
TEST(CacheProperties, MshrMergeNeverDoubleCountsAMiss)
{
    SharedLlc llc(CacheConfig{"llc", 64 * 1024, 4, 64},
                  DramConfig{1, 0}, 2, 100);
    const Addr line = 0x4000;

    auto first = llc.access(0, line, false, 0);
    EXPECT_EQ(first.level, SharedLlc::Level::Miss);
    EXPECT_EQ(first.wait, 0u); // no cross-core bank conflict yet

    // Core 1 arrives mid-fill: merge, paying only the remainder.
    auto merged = llc.access(1, line, false, 10);
    EXPECT_EQ(merged.level, SharedLlc::Level::Merge);
    EXPECT_EQ(merged.wait, 90u);

    // Core 0 re-touches its own in-flight fill: free (infinite
    // same-core MLP, the seed model's rule).
    auto own = llc.access(0, line, false, 20);
    EXPECT_EQ(own.level, SharedLlc::Level::Hit);
    EXPECT_EQ(own.wait, 0u);

    // After completion the line is simply resident.
    auto late = llc.access(1, line, false, 500);
    EXPECT_EQ(late.level, SharedLlc::Level::Hit);
    EXPECT_EQ(late.wait, 0u);

    const LlcStats stats = llc.collectStats();
    ASSERT_EQ(stats.per_core.size(), 2u);
    u64 total_misses = 0;
    for (const LlcCoreStats &cs : stats.per_core) {
        EXPECT_EQ(cs.accesses, cs.hits + cs.misses + cs.mshr_merges);
        total_misses += cs.misses;
    }
    EXPECT_EQ(total_misses, 1u) << "merge was double-counted as a miss";
    EXPECT_EQ(stats.per_core[0].misses, 1u);
    EXPECT_EQ(stats.per_core[1].mshr_merges, 1u);
}

/**
 * Stride-prefetcher training is a pure function of the observed
 * (pc, addr) stream: replaying the identical stream through a fresh
 * instance reproduces the identical prefetch stream.
 */
TEST(CacheProperties, StridePrefetcherTrainingIsReplayDeterministic)
{
    std::vector<std::pair<u32, Addr>> stream;
    Rng rng(43);
    Addr cursors[4] = {0x1000, 0x8000, 0x20000, 0x40000};
    const s64 strides[4] = {64, 128, -64, 192};
    for (int i = 0; i < 500; ++i) {
        const unsigned s = static_cast<unsigned>(rng.range(0, 3));
        stream.emplace_back(0x400 + s * 4, cursors[s]);
        cursors[s] = static_cast<Addr>(
            static_cast<s64>(cursors[s]) + strides[s]);
        if (rng.chance(0.1)) // noise access on a fifth pc
            stream.emplace_back(0x900, Addr{rng.next()} & 0xffffc0);
    }

    StridePrefetcher a;
    StridePrefetcher b;
    for (const auto &[pc, addr] : stream) {
        const std::vector<Addr> pa = a.observe(pc, addr);
        const std::vector<Addr> pb = b.observe(pc, addr);
        ASSERT_EQ(pa, pb);
    }
    EXPECT_EQ(a.issued(), b.issued());
    EXPECT_GT(a.issued(), 0u) << "streams never trained to confidence";
}

/**
 * True-LRU state is fully determined by the access history: two
 * caches fed the identical sequence agree access-for-access on every
 * observable (hit, victim choice, writeback) from then on.
 */
TEST(CacheProperties, LruStateEqualAfterIdenticalAccessSequences)
{
    const CacheConfig cfg{"lru", 1024, 4, 64}; // 4 sets x 4 ways
    Cache a(cfg);
    Cache b(cfg);

    Rng rng(47);
    std::vector<Addr> touched;
    for (int i = 0; i < 2000; ++i) {
        const Addr addr = Addr{rng.range(0, 63)} * 64;
        const bool is_write = rng.chance(0.4);
        touched.push_back(addr);
        const auto ra = a.access(addr, is_write);
        const auto rb = b.access(addr, is_write);
        ASSERT_EQ(ra.hit, rb.hit) << "at access " << i;
        ASSERT_EQ(ra.had_victim, rb.had_victim) << "at access " << i;
        ASSERT_EQ(ra.victim_line, rb.victim_line) << "at access " << i;
        ASSERT_EQ(ra.writeback, rb.writeback) << "at access " << i;
    }
    EXPECT_EQ(a.hits(), b.hits());
    EXPECT_EQ(a.misses(), b.misses());
    for (Addr line : touched)
        ASSERT_EQ(a.contains(line), b.contains(line));
}

TEST(PageRegion, FreedRangesCoalesceSoLayoutIgnoresHistory)
{
    if (!page_region::kEnabled)
        GTEST_SKIP() << "AddressSanitizer build: arrays use operator new";
    // Where a set of arrays lands, given what else the region holds.
    const auto layout = [] {
        RegionVector<u32> a(size_t{1} << 18);
        RegionVector<u64> b(size_t{3} << 17);
        RegionVector<u8> c(size_t{5} << 20);
        return std::vector<std::uintptr_t>{
            reinterpret_cast<std::uintptr_t>(a.data()),
            reinterpret_cast<std::uintptr_t>(b.data()),
            reinterpret_cast<std::uintptr_t>(c.data())};
    };
    const std::vector<std::uintptr_t> first = layout();
    for (const std::uintptr_t p : first)
        EXPECT_EQ(p % 4096, 0u);

    // Arrays of other sizes come and go, freed out of allocation order
    // and split into more pieces than the layout above used.
    for (int round = 0; round < 3; ++round) {
        std::vector<RegionVector<u32>> pieces;
        for (int i = 0; i < 9; ++i)
            pieces.emplace_back(size_t{70'000} + size_t{130'000} * i);
        for (size_t i = 0; i < pieces.size(); i += 2)
            pieces[i] = RegionVector<u32>();
        RegionVector<u32> grown;
        for (u32 i = 0; i < 600'000; ++i)
            grown.push_back(i);
    }
    EXPECT_EQ(layout(), first);
}

TEST(PageRegion, ConcurrentArraysNeverOverlap)
{
    // Each thread fills its arrays with its own id and checks them
    // after every other thread had the chance to allocate and write.
    std::vector<std::thread> threads;
    std::vector<int> bad(4, 0);
    for (u32 t = 0; t < 4; ++t)
        threads.emplace_back([t, &bad] {
            for (u32 round = 0; round < 40; ++round) {
                RegionVector<u32> a(size_t{20'000} + 7'000 * round, t);
                RegionVector<u32> b(size_t{90'000} - 1'000 * round, t);
                std::this_thread::yield();
                bad[t] += std::count(a.begin(), a.end(), t) !=
                              static_cast<long>(a.size()) ||
                          std::count(b.begin(), b.end(), t) !=
                              static_cast<long>(b.size());
            }
        });
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(bad, std::vector<int>(4, 0));
}

} // namespace
} // namespace redsoc
