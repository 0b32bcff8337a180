/**
 * @file
 * Multi-core differential verification suite (DESIGN.md §14). The
 * N-core Processor must not perturb the single-core model it wraps:
 *
 *  1. a 1-core Processor in shared-LLC mode is bit-identical to a
 *     plain OooCore run on every CoreStats field and the commit
 *     checksum, across the full sched_grid.h acceptance matrix under
 *     both scheduler kernels (the contract checker's kProcSolo);
 *  2. an N-core run is a pure function of (config, traces): racing
 *     several identical Processors on different host threads yields
 *     byte-identical serialized ProcStats;
 *  3. with interference structurally eliminated (LLC far larger than
 *     the combined footprint, DRAM bank queueing off, disjoint
 *     address spaces) each core of a mix commits exactly the schedule
 *     of its solo run — co-runners change nothing;
 *  4. the ProcStats text codec round-trips exactly and rejects
 *     tampered/truncated entries;
 *  5. invalid ProcConfig/HierarchyConfig values are rejected at
 *     construction (fatal() throws std::logic_error).
 */

#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz_lib.h"
#include "helpers.h"
#include "proc/processor.h"
#include "sched_grid.h"
#include "sim/run_cache.h"

namespace redsoc {
namespace {

using test::differentialConfigs;
using test::randomTrace;

// ---------------------------------------------------------------------
// 1. Single-core bit-identity across the acceptance grid
// ---------------------------------------------------------------------

class SharedLlcBitIdentity : public ::testing::TestWithParam<u64>
{
};

TEST_P(SharedLlcBitIdentity, OneCoreSharedLlcEqualsSeedAcrossGrid)
{
    // Both kernels; the contract also holds every contention charge
    // at zero (the cross-core-only rule). randomTrace's window stays
    // in L1 once warm; l1OverflowTrace's footprint sends L1 misses to
    // the shared LLC, whose hit path must equal the private L2's.
    const u64 seed = GetParam();
    const Trace traces[] = {randomTrace(seed, 600),
                            test::l1OverflowTrace(seed, 600)};
    for (const std::string core : {"big", "small"}) {
        for (const Trace &trace : traces) {
            for (const auto &[tag, cfg] : differentialConfigs(core)) {
                EXPECT_EQ(fuzz::checkContracts(trace, cfg,
                                               {.checks = fuzz::kProcSolo})
                              .failure,
                          "")
                    << "seed=" << seed << "/" << trace.program().name() << "/"
                    << core << "/" << tag;
            }
        }
        Processor proc(fuzz::soloConfig(coreByName(core)));
        EXPECT_GT(proc.run(traces[1]).llc.per_core.at(0).hits, 100u)
            << core;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedLlcBitIdentity,
                         ::testing::Values(11u, 12u, 0xabcdefu));

// ---------------------------------------------------------------------
// 2. Host-thread-count determinism
// ---------------------------------------------------------------------

TEST(ProcDeterminism, RacedProcessorsSerializeIdentically)
{
    // Small LLC + slow banks: contention machinery fully engaged.
    ProcConfig cfg;
    cfg.num_cores = 3;
    cfg.core = configFor("big", SchedMode::ReDSOC);
    cfg.llc = CacheConfig{"llc", 64 * 1024, 4, 64};
    cfg.dram.banks = 2;
    cfg.dram.bank_occupancy = 32;

    const Trace t0 = randomTrace(21, 500);
    const Trace t1 = randomTrace(22, 500);
    const Trace t2 = randomTrace(23, 500);
    const std::vector<const Trace *> mix{&t0, &t1, &t2};

    constexpr unsigned kRacers = 4;
    std::vector<std::string> serialized(kRacers);
    {
        std::vector<std::thread> racers;
        for (unsigned r = 0; r < kRacers; ++r) {
            racers.emplace_back([&, r] {
                Processor proc(cfg);
                ProcStats stats = proc.run(mix);
                // sim_seconds is host wall clock — the one field
                // documented as outside the deterministic result.
                for (CoreStats &core : stats.cores)
                    core.sim_seconds = 0.0;
                serialized[r] = serializeProcStats("race", stats);
            });
        }
        for (std::thread &t : racers)
            t.join();
    }
    for (unsigned r = 1; r < kRacers; ++r)
        EXPECT_EQ(serialized[0], serialized[r]) << "racer " << r;
}

// ---------------------------------------------------------------------
// 3. Interference-free mixes equal solo runs
// ---------------------------------------------------------------------

TEST(ProcInterference, HugeLlcNoBankingMixEqualsSolo)
{
    // 64 MB LLC (footprints are a few KB), bank queueing off,
    // disjoint per-core address spaces: interference is structurally
    // absent, so each core of the mix must commit exactly its solo
    // schedule.
    ProcConfig cfg;
    cfg.num_cores = 2;
    cfg.core = configFor("big", SchedMode::ReDSOC);
    cfg.llc = CacheConfig{"llc", 64 * 1024 * 1024, 16, 64};
    cfg.dram.bank_occupancy = 0;

    const Trace t0 = randomTrace(31, 700);
    const Trace t1 = randomTrace(32, 700);

    std::vector<ProcStats> solo;
    for (const Trace *t : {&t0, &t1}) {
        ProcConfig one = cfg;
        one.num_cores = 1;
        Processor proc(one);
        solo.push_back(proc.run(*t));
    }

    Processor proc(cfg);
    const ProcStats mixed = proc.run({&t0, &t1});
    ASSERT_EQ(mixed.cores.size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(firstDifference(solo[i].cores[0], mixed.cores[i]), "")
            << "mixed core " << i;
        // And the LLC charged no cross-core wait to anyone.
        EXPECT_EQ(mixed.llc.per_core[i].mshr_merges, 0u);
        EXPECT_EQ(mixed.llc.per_core[i].bank_wait_cycles, 0u);
        EXPECT_EQ(mixed.llc.per_core[i].back_invalidations, 0u);
    }
    EXPECT_EQ(mixed.llc.evictions, 0u);
}

TEST(ProcInterference, TinyLlcCreatesContention)
{
    // Sanity in the other direction: an undersized LLC with slow
    // banks must actually charge somebody something, or the whole
    // contention model is a no-op and test 3 proves nothing.
    ProcConfig cfg;
    cfg.num_cores = 2;
    cfg.core = configFor("big", SchedMode::ReDSOC);
    cfg.llc = CacheConfig{"llc", 16 * 1024, 2, 64};
    cfg.dram.banks = 1;
    cfg.dram.bank_occupancy = 64;

    const Trace t0 = randomTrace(41, 700);
    const Trace t1 = randomTrace(42, 700);
    Processor proc(cfg);
    const ProcStats mixed = proc.run({&t0, &t1});

    u64 contended = mixed.llc.evictions;
    for (const LlcCoreStats &cs : mixed.llc.per_core)
        contended += cs.bank_wait_cycles + cs.mshr_merges +
                     cs.back_invalidations;
    EXPECT_GT(contended, 0u);
}

TEST(ProcInterference, SharedAddressSpaceMergesInFlightFills)
{
    // Same trace, shared physical address space, DRAM slow enough
    // that the second core reliably lands inside the first core's
    // fill windows: the MSHR merge path must fire.
    ProcConfig cfg;
    cfg.num_cores = 2;
    cfg.core = configFor("big", SchedMode::ReDSOC);
    cfg.core.memory.mem_latency = 400;
    cfg.llc = CacheConfig{"llc", 2 * 1024 * 1024, 16, 64};
    cfg.dram.bank_occupancy = 0;
    cfg.share_address_space = true;

    const Trace t = randomTrace(51, 700);
    Processor proc(cfg);
    const ProcStats mixed = proc.run(t);

    u64 merges = 0;
    for (const LlcCoreStats &cs : mixed.llc.per_core)
        merges += cs.mshr_merges;
    EXPECT_GT(merges, 0u);
}

// ---------------------------------------------------------------------
// 4. ProcStats codec round-trip
// ---------------------------------------------------------------------

TEST(ProcStatsCodec, RoundTripsExactly)
{
    ProcConfig cfg;
    cfg.num_cores = 2;
    cfg.core = configFor("small", SchedMode::ReDSOC);
    cfg.llc = CacheConfig{"llc", 32 * 1024, 4, 64};
    cfg.dram.banks = 2;
    cfg.dram.bank_occupancy = 24;

    const Trace t0 = randomTrace(61, 400);
    const Trace t1 = randomTrace(62, 400);
    Processor proc(cfg);
    const ProcStats stats = proc.run({&t0, &t1});

    const std::string text = serializeProcStats("k1", stats);
    const auto back = deserializeProcStats(text, "k1");
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(firstDifference(stats, *back), "");
    // Byte-stable: serializing the deserialized value reproduces the
    // entry exactly (the determinism harness relies on this).
    EXPECT_EQ(serializeProcStats("k1", *back), text);
}

TEST(ProcStatsCodec, RejectsTamperedEntries)
{
    ProcStats stats;
    stats.cycles = 123;
    stats.cores.resize(2);
    stats.llc.per_core.resize(2);
    stats.llc.evictions = 7;
    const std::string good = serializeProcStats("key-a", stats);

    EXPECT_TRUE(deserializeProcStats(good, "key-a").has_value());
    // Wrong key (hash collision / stale rename).
    EXPECT_FALSE(deserializeProcStats(good, "key-b").has_value());
    // Truncation anywhere (no trailing "end").
    for (size_t cut : {good.size() - 4, good.size() / 2, size_t{10}})
        EXPECT_FALSE(
            deserializeProcStats(good.substr(0, cut), "key-a")
                .has_value())
            << "cut at " << cut;
    // Single-core entries must not parse as multi-core ones.
    const std::string core_entry = serializeStats("key-a", CoreStats{});
    EXPECT_FALSE(deserializeProcStats(core_entry, "key-a").has_value());
    EXPECT_FALSE(deserializeStats(good, "key-a").has_value());
}

TEST(ProcStatsCodec, DiskRoundTripViaRunCache)
{
    char tmpl[] = "/tmp/redsoc_proc_cache_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;

    ProcStats stats;
    stats.cycles = 99;
    stats.cores.resize(1);
    stats.cores[0].committed = 1234;
    stats.llc.per_core.resize(1);
    stats.llc.per_core[0].accesses = 55;

    RunCache cache(dir);
    const std::string key = "mix@cfg#ops=1";
    EXPECT_FALSE(cache.loadProc(key).has_value());
    cache.storeProc(key, stats);
    const auto back = cache.loadProc(key);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(firstDifference(stats, *back), "");
    // Proc entries live in their own namespace: no crosstalk with
    // single-core entries under the same key.
    EXPECT_FALSE(cache.load(key).has_value());
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// 5. Configuration validation
// ---------------------------------------------------------------------

TEST(ProcConfigValidation, RejectsBadConfigs)
{
    const ProcConfig good;
    EXPECT_NO_THROW(validateProcConfig(good));

    ProcConfig zero_cores = good;
    zero_cores.num_cores = 0;
    EXPECT_THROW(validateProcConfig(zero_cores), std::logic_error);

    ProcConfig too_many = good;
    too_many.num_cores = 65;
    EXPECT_THROW(validateProcConfig(too_many), std::logic_error);

    ProcConfig line_mismatch = good;
    line_mismatch.llc.line_bytes = 128;
    EXPECT_THROW(validateProcConfig(line_mismatch), std::logic_error);

    ProcConfig zero_banks = good;
    zero_banks.dram.banks = 0;
    EXPECT_THROW(validateProcConfig(zero_banks), std::logic_error);

    ProcConfig zero_size = good;
    zero_size.llc.size_bytes = 0;
    EXPECT_THROW(validateProcConfig(zero_size), std::logic_error);

    ProcConfig overflow_size = good;
    overflow_size.llc.size_bytes = u64{1} << 40;
    EXPECT_THROW(validateProcConfig(overflow_size), std::logic_error);

    ProcConfig npot_line = good;
    npot_line.llc.line_bytes = 48;
    npot_line.core.memory.l1.line_bytes = 48;
    EXPECT_THROW(validateProcConfig(npot_line), std::logic_error);
}

TEST(HierarchyConfigValidation, RejectsBadConfigs)
{
    HierarchyConfig good;
    EXPECT_NO_THROW(MemHierarchy{good});

    HierarchyConfig zero_l1 = good;
    zero_l1.l1.size_bytes = 0;
    EXPECT_THROW(MemHierarchy{zero_l1}, std::logic_error);

    HierarchyConfig overflow_l2 = good;
    overflow_l2.l2.size_bytes = u64{1} << 40;
    EXPECT_THROW(MemHierarchy{overflow_l2}, std::logic_error);

    HierarchyConfig npot_line = good;
    npot_line.l1.line_bytes = 48;
    EXPECT_THROW(MemHierarchy{npot_line}, std::logic_error);

    HierarchyConfig zero_latency = good;
    zero_latency.l1_latency = 0;
    EXPECT_THROW(MemHierarchy{zero_latency}, std::logic_error);

    HierarchyConfig shrink_scale = good;
    shrink_scale.offcore_latency_scale = 0.5;
    EXPECT_THROW(MemHierarchy{shrink_scale}, std::logic_error);

    HierarchyConfig nan_scale = good;
    nan_scale.offcore_latency_scale =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(MemHierarchy{nan_scale}, std::logic_error);
}

TEST(ProcConfigValidation, ProcessorRunRejectsBadMixes)
{
    ProcConfig cfg;
    cfg.num_cores = 2;
    cfg.core = configFor("small", SchedMode::Baseline);
    Processor proc(cfg);

    const Trace t = randomTrace(71, 100);
    EXPECT_THROW(proc.run(std::vector<const Trace *>{&t}),
                 std::logic_error); // one trace, two cores
    EXPECT_THROW(proc.run(std::vector<const Trace *>{&t, nullptr}),
                 std::logic_error); // null trace
    EXPECT_THROW(proc.setRecorder(2, nullptr), std::logic_error);
}

} // namespace
} // namespace redsoc
