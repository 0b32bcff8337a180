/**
 * @file
 * Fuzzing regression suite.
 *
 * Three layers, matching DESIGN.md §11:
 *   1. Corpus replay — every minimized fixture under tests/fuzz_corpus/
 *      is parsed and re-run through checkCase, every contract of the
 *      contract checker; a fixture that diverges again means a fixed
 *      bug regressed. A fixed-seed sweep of a few hundred random
 *      single- and multi-core points runs the same oracle.
 *   2. Deadlock-watchdog boundary — both kernels must abort a
 *      no-commit run on exactly the same cycle (the event kernel's
 *      idle fast-forward clamps to the horizon; the scan kernel walks
 *      there cycle by cycle).
 *   3. Invariant audit — every InvariantAudit enumerator has a unit
 *      test that corrupts the checked state and asserts the exact
 *      violation fires (the lint rule audit-complete enforces that
 *      this file mentions every enumerator), plus an end-to-end run
 *      with REDSOC_AUDIT=1.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/invariant_audit.h"
#include "fuzz_lib.h"

namespace redsoc::fuzz {
namespace {

#ifndef REDSOC_FUZZ_CORPUS
#error "REDSOC_FUZZ_CORPUS must point at tests/fuzz_corpus"
#endif

const std::string kCorpus = REDSOC_FUZZ_CORPUS;

std::vector<std::string>
corpusFiles()
{
    std::vector<std::string> out;
    for (const auto &ent :
         std::filesystem::directory_iterator(kCorpus))
        if (ent.path().extension() == ".fuzz")
            out.push_back(ent.path().string());
    std::sort(out.begin(), out.end());
    return out;
}

FuzzCase
loadFixture(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return parseCase(text.str());
}

// ---------------------------------------------------------------------
// 1. Corpus replay
// ---------------------------------------------------------------------

TEST(FuzzCorpus, HasCommittedFixtures)
{
    EXPECT_GE(corpusFiles().size(), 6u);
}

TEST(FuzzCorpus, EveryFixtureAgreesUnderTheFullOracle)
{
    for (const std::string &path : corpusFiles()) {
        const FuzzCase fc = loadFixture(path);
        EXPECT_EQ(checkCase(fc), "") << path;
    }
}

TEST(FuzzCorpus, FixturesRoundTripThroughTheSerializer)
{
    for (const std::string &path : corpusFiles()) {
        const FuzzCase fc = loadFixture(path);
        const FuzzCase again = parseCase(serializeCase(fc));
        // Serialization is canonical: one round trip is a fixpoint.
        EXPECT_EQ(serializeCase(fc), serializeCase(again)) << path;
    }
}

// ---------------------------------------------------------------------
// Harness self-tests: the oracle and generator must be trustworthy
// ---------------------------------------------------------------------

TEST(FuzzHarness, GenerationIsDeterministicPerSeed)
{
    EXPECT_EQ(serializeCase(randomCase(42)),
              serializeCase(randomCase(42)));
    EXPECT_NE(serializeCase(randomCase(42)),
              serializeCase(randomCase(43)));
}

/** Fixed-seed sweeps: random points through every contract. */
TEST(FuzzHarness, EveryGeneratedPointBuildsAndAgrees)
{
    for (u64 seed = 1000; seed < 1200; ++seed) {
        const FuzzCase fc = randomCase(seed);
        EXPECT_FALSE(fc.prog.empty());
        EXPECT_EQ(checkCase(fc), "") << "seed " << seed;
    }
}

/** Every draw lands inside the ranges configError states: the
 *  generator never spends a point on a config the core refuses. */
TEST(FuzzHarness, EveryRandomConfigIsInRange)
{
    for (u64 seed = 0; seed < 5000; ++seed) {
        EXPECT_EQ(caseConfigError(randomCase(seed)), "") << "seed " << seed;
        EXPECT_EQ(caseConfigError(randomProcCase(seed)), "")
            << "proc seed " << seed;
    }
}

TEST(FuzzHarness, DiffOutcomeReportsTheFirstDifferingField)
{
    RunOutcome a;
    a.stats.cycles = 100;
    a.stats.committed = 40;
    RunOutcome b = a;
    EXPECT_EQ(diffOutcome(a, b), "");

    b.stats.commit_checksum ^= 1;
    EXPECT_EQ(diffOutcome(a, b), "commit_checksum");

    b = a;
    b.deadlock = true;
    EXPECT_NE(diffOutcome(a, b).find("deadlock"), std::string::npos);

    a.deadlock = true;
    a.deadlock_cycle = 7;
    b.deadlock_cycle = 9;
    EXPECT_NE(diffOutcome(a, b).find("deadlock_cycle"),
              std::string::npos);
    // Deadlocked runs carry no meaningful stats beyond the cycle.
    b.deadlock_cycle = 7;
    EXPECT_EQ(diffOutcome(a, b), "");
}

TEST(FuzzHarness, MinimizeReturnsACleanCaseUnchanged)
{
    const FuzzCase fc = randomCase(7);
    ASSERT_EQ(checkCase(fc), "");
    EXPECT_EQ(serializeCase(minimizeCase(fc)), serializeCase(fc));
}

/** @p line with @p from replaced by @p to when given. */
std::string
edited(std::string line, const std::string &from, const std::string &to)
{
    if (!from.empty()) {
        const size_t at = line.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        line.replace(at, from.size(), to);
    }
    return line;
}

/** A valid config line (every leaf of the small preset), edited. */
std::string
configLine(const std::string &from = "", const std::string &to = "")
{
    return edited("config " + fieldsText(smallCore()) + "\n", from, to);
}

/** A valid two-core proc line (every ProcConfig leaf), edited. */
std::string
procLine(const std::string &from = "", const std::string &to = "")
{
    ProcConfig pc;
    pc.num_cores = 2;
    pc.core = smallCore();
    return edited("proc " + fieldsText(pc) + "\n", from, to);
}

TEST(FuzzHarness, ParserRejectsMalformedFixtures)
{
    const std::string inst = "inst alu sel=1 d=1 a=1 b=1 imm=0\n";
    EXPECT_NO_THROW(parseCase(configLine() + inst));
    // No config line, no program.
    EXPECT_THROW(parseCase(""), std::runtime_error);
    EXPECT_THROW(parseCase(configLine()), std::runtime_error);
    EXPECT_THROW(parseCase(inst), std::runtime_error);
    // An unknown enum name, an unknown key, an unknown inst kind.
    EXPECT_THROW(parseCase(configLine("mode=baseline", "mode=warp") +
                           inst),
                 std::runtime_error);
    EXPECT_THROW(parseCase(configLine("\n", " bogus=1\n") + inst),
                 std::runtime_error);
    EXPECT_THROW(parseCase(configLine() +
                           "inst warp sel=1 d=1 a=1 b=1 imm=0\n"),
                 std::runtime_error);
    // A bad number, trailing junk, a negative count, a fraction in
    // an integer leaf.
    for (const char *bad : {"rob_entries=x", "rob_entries=40x",
                            "rob_entries=-4", "rob_entries=4.5"})
        EXPECT_THROW(parseCase(configLine("rob_entries=40", bad) + inst),
                     std::runtime_error)
            << bad;
    EXPECT_THROW(parseCase(configLine("timing.pvt_derate=1",
                                      "timing.pvt_derate=1z") +
                           inst),
                 std::runtime_error);
    // A missing leaf, a repeated leaf, a token that is not key=value.
    EXPECT_THROW(parseCase(configLine(" rob_entries=40", "") + inst),
                 std::runtime_error);
    EXPECT_THROW(parseCase(configLine("rob_entries=40",
                                      "rob_entries=40 rob_entries=40") +
                           inst),
                 std::runtime_error);
    EXPECT_THROW(parseCase(configLine("rob_entries=40", "rob_entries") +
                           inst),
                 std::runtime_error);
    // A config configError rejects: an epoch the dynamic threshold
    // would divide by, a threshold beyond one cycle.
    EXPECT_THROW(parseCase(configLine("threshold_epoch=2000",
                                      "threshold_epoch=0") +
                           inst),
                 std::runtime_error);
    EXPECT_THROW(parseCase(configLine("slack_threshold_ticks=6",
                                      "slack_threshold_ticks=9") +
                           inst),
                 std::runtime_error);
}

TEST(FuzzHarness, ConfigLineCarriesDoublesExactly)
{
    FuzzCase fc = randomCase(3);
    fc.config.core.timing.pvt_derate = 0.8500001;
    fc.config.core.memory.offcore_latency_scale = 1.0 / 0.85;
    const FuzzCase back = parseCase(serializeCase(fc));
    EXPECT_EQ(back.config.core.timing.pvt_derate, 0.8500001);
    EXPECT_EQ(back.config.core.memory.offcore_latency_scale, 1.0 / 0.85);
}

// ---------------------------------------------------------------------
// Multi-core points: generator, oracle, and fixture format
// ---------------------------------------------------------------------

TEST(FuzzProc, GenerationIsDeterministicPerSeed)
{
    EXPECT_EQ(serializeCase(randomProcCase(42)),
              serializeCase(randomProcCase(42)));
    EXPECT_NE(serializeCase(randomProcCase(42)),
              serializeCase(randomProcCase(43)));
    // The proc and scalar streams are salted differently.
    EXPECT_NE(serializeCase(randomProcCase(42)),
              serializeCase(randomCase(42)));
}

TEST(FuzzProc, EveryGeneratedPointBuildsAndAgrees)
{
    bool saw_multi = false;
    for (u64 seed = 2000; seed < 2100; ++seed) {
        const FuzzCase fc = randomProcCase(seed);
        EXPECT_FALSE(fc.prog.empty());
        EXPECT_EQ(fc.extra_progs.size(), fc.config.num_cores - 1);
        saw_multi |= fc.config.num_cores > 1;
        EXPECT_EQ(checkCase(fc), "") << "proc seed " << seed;
    }
    EXPECT_TRUE(saw_multi) << "distribution never drew > 1 core";
}

TEST(FuzzProc, FixtureRoundTripsMultiCoreCases)
{
    for (u64 seed = 2000; seed < 2010; ++seed) {
        const FuzzCase fc = randomProcCase(seed);
        const FuzzCase again = parseCase(serializeCase(fc));
        EXPECT_EQ(serializeCase(again), serializeCase(fc))
            << "proc seed " << seed;
        EXPECT_EQ(again.extra_progs.size(), fc.extra_progs.size());
    }
}

TEST(FuzzProc, ParserRejectsMalformedProcFixtures)
{
    const std::string inst = "inst alu sel=1 d=1 a=1 b=1 imm=0\n";
    const std::string core1 = "core 1\n" + inst;
    EXPECT_NO_THROW(parseCase(procLine() + inst + core1));
    // Zero or absurd core counts.
    EXPECT_THROW(parseCase(procLine("num_cores=2", "num_cores=0") + inst),
                 std::runtime_error);
    EXPECT_THROW(parseCase(procLine("num_cores=2", "num_cores=65") + inst),
                 std::runtime_error);
    // A core section with no proc line, or out of sequence.
    EXPECT_THROW(parseCase(configLine() + inst + core1),
                 std::runtime_error);
    EXPECT_THROW(parseCase(procLine("num_cores=2", "num_cores=3") + inst +
                           "core 2\n" + inst),
                 std::runtime_error);
    // Missing or empty extra-core programs.
    EXPECT_THROW(parseCase(procLine() + inst), std::runtime_error);
    EXPECT_THROW(parseCase(procLine() + inst + "core 1\n"),
                 std::runtime_error);
    // An LLC line size that differs from the L1's.
    EXPECT_THROW(parseCase(procLine("llc.line_bytes=64",
                                    "llc.line_bytes=128") +
                           inst + core1),
                 std::runtime_error);
    // An unknown leaf, and a config line next to the proc line.
    EXPECT_THROW(parseCase(procLine("\n", " bogus=1\n") + inst + core1),
                 std::runtime_error);
    EXPECT_THROW(parseCase(configLine() + procLine() + inst + core1),
                 std::runtime_error);
}

TEST(FuzzProc, DiffProcOutcomeWalksEveryLayer)
{
    ProcOutcome a;
    a.stats.cycles = 500;
    a.stats.cores.resize(2);
    a.stats.llc.per_core.resize(2);
    ProcOutcome b = a;
    EXPECT_EQ(diffProcOutcome(a, b), "");

    b.stats.cycles = 501;
    EXPECT_EQ(diffProcOutcome(a, b), "cycles");

    b = a;
    b.stats.cores[1].commit_checksum ^= 1;
    EXPECT_EQ(diffProcOutcome(a, b), "cores.1.commit_checksum");

    b = a;
    b.stats.llc.per_core[0].mshr_merges = 9;
    EXPECT_EQ(diffProcOutcome(a, b), "llc.per_core.0.mshr_merges");

    b = a;
    b.stats.llc.writebacks = 3;
    EXPECT_EQ(diffProcOutcome(a, b), "llc.writebacks");

    b = a;
    b.stats.cores.resize(3);
    EXPECT_EQ(diffProcOutcome(a, b), "cores");

    b = a;
    b.deadlock = true;
    EXPECT_NE(diffProcOutcome(a, b).find("deadlock"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// 2. Deadlock-watchdog boundary
// ---------------------------------------------------------------------

FuzzCase
deadlockingCase(Cycle horizon)
{
    FuzzCase fc;
    fc.name = "deadlock";
    fc.config.core = smallCore();
    fc.config.core.no_commit_horizon = horizon;
    fc.config.core.memory.mem_latency = 3000;
    fc.config.core.memory.prefetch = false;
    FuzzInst load;
    load.kind = FuzzInst::Kind::Load;
    fc.prog.push_back(load);
    return fc;
}

TEST(DeadlockHorizon, BothKernelsAbortOnTheSameCycle)
{
    // The watchdog fires at last_commit + horizon + 1 in both
    // kernels: they abort on the same cycle, and lengthening the
    // horizon by one moves the abort by exactly one cycle (the event
    // kernel's fast-forward clamp cannot overshoot it, a strict >
    // check cannot fire early).
    const Trace trace = buildTrace(deadlockingCase(60));
    Cycle abort_at[2][2]; // [horizon 60, 61][Scan, Event]
    for (const Cycle extra : {0u, 1u}) {
        for (const SchedKernel kernel :
             {SchedKernel::Scan, SchedKernel::Event}) {
            const RunOutcome r = runOne(
                trace, deadlockingCase(60 + extra).config.core, kernel);
            ASSERT_TRUE(r.deadlock);
            abort_at[extra][static_cast<int>(kernel)] = r.deadlock_cycle;
        }
        EXPECT_EQ(abort_at[extra][0], abort_at[extra][1]);
    }
    EXPECT_EQ(abort_at[1][0], abort_at[0][0] + 1);
}

TEST(DeadlockHorizon, DeadlockErrorCarriesTheAbortCycle)
{
    const FuzzCase fc = deadlockingCase(62);
    const Trace trace = buildTrace(fc);
    CoreConfig config = fc.config.core;
    config.sched_kernel = SchedKernel::Scan;
    OooCore core(std::move(config));
    try {
        core.run(trace);
        FAIL() << "expected DeadlockError";
    } catch (const DeadlockError &e) {
        EXPECT_GT(e.cycle(), 62u);
        EXPECT_NE(std::string(e.what()).find("no commit progress"),
                  std::string::npos);
    }
}

TEST(DeadlockHorizon, CheckerFailsADeadlockUnlessAllowed)
{
    // A grid point that deadlocks fails whatever it asks for: a graph
    // contract...
    const Trace trace = buildTrace(deadlockingCase(63));
    EXPECT_EQ(checkContracts(trace, deadlockingCase(63).config.core,
                             {.checks = kGraph})
                  .failure
                  .rfind("completed/scan: recorder run deadlocked", 0),
              0u);
    // ...or only a pinned digest.
    EXPECT_EQ(checkContracts(trace, deadlockingCase(64).config.core,
                             {.checks = 0, .digest = "0123456789abcdef"})
                  .failure
                  .rfind("completed/", 0),
              0u);
    // A fuzz point may deadlock, on the same cycle in every run.
    EXPECT_EQ(checkContracts(trace, deadlockingCase(65).config.core,
                             {.deadlock_ok = true})
                  .failure,
              "");
}

// ---------------------------------------------------------------------
// 3. Invariant audit: every check fires on corrupted state
// ---------------------------------------------------------------------

/** The violation a check returned, or FAIL accessors on nullopt. */
void
expectViolation(const std::optional<AuditViolation> &v,
                InvariantAudit kind, const std::string &substr)
{
    ASSERT_TRUE(v.has_value()) << invariantAuditName(kind);
    EXPECT_EQ(v->kind, kind);
    EXPECT_NE(v->message.find(substr), std::string::npos)
        << v->message;
}

TEST(InvariantAuditChecks, RsOccupancy)
{
    EXPECT_FALSE(InvariantAuditor::checkRsOccupancy(0, 0).has_value());
    EXPECT_FALSE(InvariantAuditor::checkRsOccupancy(5, 5).has_value());
    expectViolation(InvariantAuditor::checkRsOccupancy(4, 3),
                    InvariantAudit::RsOccupancy,
                    "RS counts 4 entries but 3");
}

TEST(InvariantAuditChecks, RsPendingCount)
{
    EXPECT_FALSE(
        InvariantAuditor::checkPendingCount(7, 2, 2).has_value());
    expectViolation(InvariantAuditor::checkPendingCount(7, 2, 1),
                    InvariantAudit::RsPendingCount,
                    "records 2 pending wakeups but 1");
}

TEST(InvariantAuditChecks, LsqProgramOrder)
{
    EXPECT_FALSE(InvariantAuditor::checkLsqOrder({1, 2, 8}).has_value());
    expectViolation(InvariantAuditor::checkLsqOrder({4, 4}),
                    InvariantAudit::LsqProgramOrder,
                    "LSQ violates program order");
}

TEST(InvariantAuditChecks, CiRange)
{
    EXPECT_FALSE(InvariantAuditor::checkCiRange(9, 0, 8).has_value());
    EXPECT_FALSE(InvariantAuditor::checkCiRange(9, 7, 8).has_value());
    expectViolation(InvariantAuditor::checkCiRange(9, 8, 8),
                    InvariantAudit::CiRange, "outside [0, 8)");
}

TEST(InvariantAuditChecks, EgpwLeftoverSlot)
{
    EXPECT_FALSE(
        InvariantAuditor::checkEgpwLeftover(5, 1).has_value());
    expectViolation(InvariantAuditor::checkEgpwLeftover(5, 0),
                    InvariantAudit::EgpwLeftoverSlot,
                    "no leftover FU slot");
}

TEST(InvariantAuditChecks, TransparentLink)
{
    // Producer wrote back at tick 33, consumer starts there, CI 1.
    EXPECT_FALSE(InvariantAuditor::checkTransparentLink(6, 2, 33, 33, 1)
                     .has_value());
    expectViolation(
        InvariantAuditor::checkTransparentLink(6, kNoSeq, 0, 33, 1),
        InvariantAudit::TransparentLink, "names no producer");
    expectViolation(
        InvariantAuditor::checkTransparentLink(6, 2, 32, 33, 1),
        InvariantAudit::TransparentLink, "wrote back at tick 32");
    expectViolation(
        InvariantAuditor::checkTransparentLink(6, 2, 32, 32, 0),
        InvariantAudit::TransparentLink, "cycle boundary");
}

TEST(InvariantAuditChecks, ReadyRsAgreement)
{
    constexpr Cycle never = InvariantAuditor::kNeverArmed;
    // Reachable: pending producer, parked, in a ready set, or a
    // live future arm.
    EXPECT_FALSE(InvariantAuditor::checkReadyAgreement(
                     3, 1, never, 50, false, false)
                     .has_value());
    EXPECT_FALSE(InvariantAuditor::checkReadyAgreement(
                     3, 0, never, 50, true, false)
                     .has_value());
    EXPECT_FALSE(InvariantAuditor::checkReadyAgreement(
                     3, 0, 40, 50, false, true)
                     .has_value());
    EXPECT_FALSE(InvariantAuditor::checkReadyAgreement(
                     3, 0, 51, 50, false, false)
                     .has_value());
    expectViolation(InvariantAuditor::checkReadyAgreement(
                        3, 0, never, 50, false, false),
                    InvariantAudit::ReadyRsAgreement, "never armed");
    expectViolation(InvariantAuditor::checkReadyAgreement(
                        3, 0, 50, 50, false, false),
                    InvariantAudit::ReadyRsAgreement,
                    "last armed for past cycle 50");
}

TEST(InvariantAuditChecks, StorePhaseA)
{
    EXPECT_FALSE(InvariantAuditor::checkStorePhaseA(12, true).has_value());
    expectViolation(InvariantAuditor::checkStorePhaseA(12, false),
                    InvariantAudit::StorePhaseA,
                    "store 12 issued outside Phase A");
}

TEST(InvariantAuditChecks, RingOwner)
{
    EXPECT_FALSE(InvariantAuditor::checkRingOwner(10, 10, 12).has_value());
    EXPECT_FALSE(InvariantAuditor::checkRingOwner(11, 10, 12).has_value());
    // Committed (the slot may belong to a younger op now) and not yet
    // dispatched are both outside the window.
    expectViolation(InvariantAuditor::checkRingOwner(9, 10, 12),
                    InvariantAudit::RingOwner,
                    "op 9 outside the in-flight window [10, 12)");
    expectViolation(InvariantAuditor::checkRingOwner(12, 10, 12),
                    InvariantAudit::RingOwner, "op 12 outside");
}

TEST(InvariantAuditNames, EveryEnumeratorHasAUniqueName)
{
    std::vector<std::string> names;
    for (unsigned k = 0;
         k < static_cast<unsigned>(InvariantAudit::NUM); ++k)
        names.push_back(
            invariantAuditName(static_cast<InvariantAudit>(k)));
    std::vector<std::string> uniq = names;
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    EXPECT_EQ(uniq.size(), names.size());
    EXPECT_EQ(std::count(names.begin(), names.end(), "?"), 0);
}

TEST(InvariantAuditEnd2End, AuditedRunsMatchUnauditedRuns)
{
    // The audit must be an observer: REDSOC_AUDIT=1 runs produce
    // bit-identical stats, and every corpus fixture passes with the
    // auditor checking each cycle.
    ASSERT_EQ(setenv("REDSOC_AUDIT", "1", 1), 0);
    ASSERT_TRUE(InvariantAuditor::enabledFromEnv());
    for (const std::string &path : corpusFiles()) {
        const FuzzCase fc = loadFixture(path);
        EXPECT_EQ(checkCase(fc), "") << path << " (REDSOC_AUDIT=1)";
    }
    ASSERT_EQ(unsetenv("REDSOC_AUDIT"), 0);
    EXPECT_FALSE(InvariantAuditor::enabledFromEnv());
}

TEST(InvariantAuditEnd2End, StoresIssueInPhaseAUnderBothKernels)
{
    // Each store's data waits on a divide, so it selects (and resolves
    // its address) late, and the load behind it parks on it until the
    // store's broadcast wakes it. The audit's store-phase-a check
    // watches every store grant, in ReDSOC (EGPW Phase B) and MOS
    // (fusion) mode under both kernels.
    using K = FuzzInst::Kind;
    FuzzCase fc;
    fc.name = "store-heavy";
    for (u8 k = 0; k < 48; ++k) {
        const auto next = static_cast<u8>(k + 1);
        fc.prog.push_back({.kind = K::Sdiv, .dst = k, .a = k});
        fc.prog.push_back({.kind = K::Store, .sel = k, .a = k, .imm = k});
        fc.prog.push_back(
            {.kind = K::Load, .sel = k, .dst = next, .imm = next});
        fc.prog.push_back(
            {.kind = K::AluImm, .dst = next, .a = next, .imm = 3});
    }
    const Trace trace = buildTrace(fc);

    ASSERT_EQ(setenv("REDSOC_AUDIT", "1", 1), 0);
    for (const SchedMode mode : {SchedMode::ReDSOC, SchedMode::MOS}) {
        CoreConfig config = smallCore();
        config.mode = mode;
        RunOutcome runs[2];
        for (const SchedKernel kernel :
             {SchedKernel::Scan, SchedKernel::Event}) {
            RunOutcome &r = runs[static_cast<int>(kernel)];
            r = runOne(trace, config, kernel, Observer::Graph);
            ASSERT_FALSE(r.deadlock) << schedModeName(mode);
            EXPECT_EQ(r.stats.stores, 48u);
            // Loads really waited on a later-resolving store.
            EXPECT_GT(std::count_if(r.graph.edges.begin(),
                                    r.graph.edges.end(),
                                    [](const Edge &e) {
                                        return e.kind ==
                                               EdgeKind::MemOrder;
                                    }),
                      16)
                << schedModeName(mode);
        }
        EXPECT_EQ(diffOutcome(runs[0], runs[1]), "")
            << schedModeName(mode);
    }
    ASSERT_EQ(unsetenv("REDSOC_AUDIT"), 0);
}

} // namespace
} // namespace redsoc::fuzz
