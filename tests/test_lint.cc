/**
 * @file
 * Tests for redsoc_lint (tools/lint): every rule must fire exactly
 * where its fixture says, stay quiet on the clean fixture, honour
 * allow() suppressions, and the real tree must lint clean.
 */

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lint.h"

namespace redsoc::lint {
namespace {

#ifndef REDSOC_LINT_FIXTURES
#error "REDSOC_LINT_FIXTURES must point at tests/lint_fixtures"
#endif
#ifndef REDSOC_SOURCE_ROOT
#error "REDSOC_SOURCE_ROOT must point at the repository root"
#endif

const std::string kFixtures = REDSOC_LINT_FIXTURES;
const std::string kRoot = REDSOC_SOURCE_ROOT;

SourceFile
fixture(const std::string &name)
{
    return lexFile(kFixtures + "/" + name, name);
}

/** (line, rule) pairs for one fixture under the default options. */
std::vector<std::pair<int, std::string>>
sites(const std::string &name)
{
    const std::vector<Finding> fs = lintFile(fixture(name), Options{});
    std::vector<std::pair<int, std::string>> out;
    out.reserve(fs.size());
    for (const Finding &f : fs)
        out.emplace_back(f.line, f.rule);
    std::sort(out.begin(), out.end());
    return out;
}

using Sites = std::vector<std::pair<int, std::string>>;

TEST(LintRules, InitFieldFiresPerUninitializedConfigStatsField)
{
    EXPECT_EQ(sites("init_field.h"),
              (Sites{{20, "init-field"},
                     {21, "init-field"},
                     {28, "init-field"},
                     {45, "init-field"},
                     {46, "init-field"}}));
}

TEST(LintRules, NondetApiFiresOnBannedCalls)
{
    EXPECT_EQ(sites("nondet_api.cc"),
              (Sites{{12, "nondet-api"},
                     {13, "nondet-api"},
                     {14, "nondet-api"},
                     {15, "nondet-api"},
                     {16, "nondet-api"}}));
}

TEST(LintRules, NondetIterFiresOnUnorderedRangeFor)
{
    EXPECT_EQ(sites("nondet_iter.cc"),
              (Sites{{14, "nondet-iter"}, {17, "nondet-iter"}}));
}

TEST(LintRules, PtrKeyOrderFiresOnPointerKeyedContainers)
{
    EXPECT_EQ(sites("ptr_key_order.cc"),
              (Sites{{13, "ptr-key-order"}, {14, "ptr-key-order"}}));
}

TEST(LintRules, CycleNarrowFiresOnlyOnCasts)
{
    EXPECT_EQ(sites("cycle_narrow.cc"), (Sites{{11, "cycle-narrow"}}));
}

TEST(LintRules, FloatAccumFiresOnlyInPerCycleLoops)
{
    EXPECT_EQ(sites("float_accum.cc"), (Sites{{13, "float-accum"}}));
}

TEST(LintRules, FloatAccumExemptsConfiguredPaths)
{
    SourceFile sf = fixture("float_accum.cc");
    sf.path = "src/power/float_accum.cc"; // pretend-location
    std::vector<Finding> out;
    ruleFloatAccum(sf, {"src/power"}, out);
    EXPECT_TRUE(out.empty());
}

TEST(LintRules, HotAllocFiresInsidePerCycleFunctionsOnly)
{
    // The fixture lives outside src/core/, so the default path gate
    // must keep it quiet...
    EXPECT_EQ(sites("hot_alloc.cc"), Sites{});

    // ...and under a pretend scheduler path the rule flags 'new',
    // unreserved push_back and std::function, skips the reserved
    // vector and the non-hot function, and honours allow().
    SourceFile sf = fixture("hot_alloc.cc");
    sf.path = "src/core/hot_alloc.cc";
    std::vector<Finding> out;
    const Options opt;
    ruleHotAlloc(sf, opt.hot_alloc_paths, opt.hot_functions, out);
    Sites got;
    for (const Finding &f : out)
        got.emplace_back(f.line, f.rule);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (Sites{{18, "hot-alloc"},
                          {19, "hot-alloc"},
                          {21, "hot-alloc"}}));
}

TEST(LintRules, CleanFixtureStaysQuiet)
{
    EXPECT_EQ(sites("clean.cc"), Sites{});
}

TEST(LintSuppression, AllowCommentsSilenceOnlyTheNamedRule)
{
    // Every violation in suppressed.cc is allow()ed except the
    // std::rand() whose comment names the wrong rule.
    EXPECT_EQ(sites("suppressed.cc"), (Sites{{25, "nondet-api"}}));
}

TEST(LintSuppression, SameLineAndPrecedingLineFormsWork)
{
    const SourceFile sf =
        lex("t.cc", "int a; // redsoc-lint: allow(x)\n"
                    "// redsoc-lint: allow(y, z)\n"
                    "int b;\n");
    EXPECT_TRUE(sf.allowed(1, "x"));
    EXPECT_FALSE(sf.allowed(1, "y"));
    EXPECT_TRUE(sf.allowed(3, "y"));
    EXPECT_TRUE(sf.allowed(3, "z"));
    EXPECT_FALSE(sf.allowed(3, "x"));

    const SourceFile all =
        lex("t.cc", "int c; // redsoc-lint: allow(all)\n");
    EXPECT_TRUE(all.allowed(1, "anything"));
}

TEST(LintEnumParser, ExtractsEnumeratorsAndSkipsInitializers)
{
    const auto enums = parseEnums(fixture("audit_complete_enum.h"));
    ASSERT_EQ(enums.size(), 1u);
    EXPECT_EQ(enums[0].name, "FixInvariant");
    std::vector<std::string> names;
    for (const auto &e : enums[0].enumerators)
        names.push_back(e.name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "AgeOrder", "CiBound", "Leftover", "Sweep",
                         "NUM"}));
}

TEST(LintStructParser, ExtractsFieldsAndSkipsNonFields)
{
    const SourceFile sf = fixture("init_field.h");
    const auto structs = parseStructs(sf);
    std::set<std::string> names;
    for (const auto &s : structs)
        names.insert(s.name);
    EXPECT_TRUE(names.count("GoodConfig"));
    EXPECT_TRUE(names.count("BadStats"));

    for (const auto &s : structs) {
        if (s.name == "AccessStats") {
            ASSERT_EQ(s.fields.size(), 2u);
            EXPECT_EQ(s.fields[0].name, "hits");
            EXPECT_EQ(s.fields[1].name, "lanes");
        }
        if (s.name != "BadStats")
            continue;
        ASSERT_EQ(s.fields.size(), 2u); // ipc() and kLimit excluded
        EXPECT_EQ(s.fields[0].name, "committed");
        EXPECT_TRUE(s.fields[0].initialized);
        EXPECT_EQ(s.fields[1].name, "cycles");
        EXPECT_FALSE(s.fields[1].initialized);
    }
}

/** The acceptance gate: the real tree lints clean. */
TEST(LintTree, RepositoryIsClean)
{
    Options opt;
    opt.root = kRoot;
    std::string pretty;
    for (const Finding &f : lintTree(opt))
        pretty += f.pretty() + "\n";
    EXPECT_EQ(pretty, "");
}

TEST(LintAuditComplete, FiresForEveryUntestedInvariant)
{
    const SourceFile header = fixture("audit_complete_enum.h");
    const SourceFile tst = fixture("audit_complete_tests.cc");

    std::vector<Finding> out;
    ruleAuditComplete(header, "FixInvariant", tst, out);

    Sites got;
    for (const Finding &f : out)
        got.emplace_back(f.line, f.rule);
    std::sort(got.begin(), got.end());
    // Leftover (10): no test mentions it. AgeOrder/CiBound: tested;
    // Sweep: exempted via allow(audit-complete); NUM: sentinel.
    EXPECT_EQ(got, (Sites{{10, "audit-complete"}}));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NE(out[0].message.find("Leftover"), std::string::npos);
    EXPECT_NE(out[0].message.find("audit_complete_tests.cc"),
              std::string::npos);
}

/** R6 is live on the real tree: drop an invariant's mentions from
 *  the regression-suite text and the rule must notice. */
TEST(LintTree, AuditCompleteGuardsTheRealCatalogue)
{
    Options opt;
    opt.root = kRoot;
    SourceFile header = lexFile(kRoot + "/" + opt.audit_header,
                                opt.audit_header);
    SourceFile tst =
        lexFile(kRoot + "/" + opt.audit_tests, opt.audit_tests);

    std::vector<Finding> ok;
    ruleAuditComplete(header, opt.audit_enum, tst, ok);
    EXPECT_TRUE(ok.empty());

    // Simulate "added an invariant, forgot its test": erase every
    // mention of EgpwLeftoverSlot from the suite's tokens.
    SourceFile broken = tst;
    broken.toks.erase(
        std::remove_if(broken.toks.begin(), broken.toks.end(),
                       [](const Token &t) {
                           return t.text == "EgpwLeftoverSlot";
                       }),
        broken.toks.end());
    std::vector<Finding> out;
    ruleAuditComplete(header, opt.audit_enum, broken, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rule, "audit-complete");
    EXPECT_NE(out[0].message.find("EgpwLeftoverSlot"),
              std::string::npos);
}

TEST(LintRules, MutexOwnersMustAnnotateEveryField)
{
    // The fixture lives outside src/ and tools/, so the path gate
    // keeps it quiet...
    EXPECT_EQ(sites("guarded_by.h"), Sites{});

    // ...and under a pretend src/ path the one unannotated field of
    // the mutex owner is flagged: not the mutex, the condition
    // variable, the annotated fields or the allow()ed field.
    SourceFile sf = fixture("guarded_by.h");
    sf.path = "src/sim/guarded_by.h";
    const std::vector<Finding> out = lintFile(sf, Options{});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].line, 22);
    EXPECT_EQ(out[0].rule, "guarded-by");
    EXPECT_NE(out[0].message.find("Queue::closed_"), std::string::npos);
}

/** R10 is live on the real tree: delete one GUARDED_BY annotation
 *  from the thread pool header and the rule must notice. */
TEST(LintTree, GuardedByGuardsTheRealThreadPool)
{
    const std::string rel = "src/sim/thread_pool.h";
    const SourceFile sf = lexFile(kRoot + "/" + rel, rel);
    const Options opt;
    auto run = [&](const SourceFile &f) {
        std::vector<Finding> out;
        ruleGuardedBy(f, opt.guarded_coverage_paths, out);
        return out;
    };
    EXPECT_TRUE(run(sf).empty());

    // Erase the first REDSOC_GUARDED_BY(mu_) group (queue_'s).
    SourceFile broken = sf;
    for (size_t i = 0; i + 3 < broken.toks.size(); ++i) {
        if (broken.toks[i].text == "REDSOC_GUARDED_BY") {
            broken.toks.erase(broken.toks.begin() +
                                  static_cast<long>(i),
                              broken.toks.begin() +
                                  static_cast<long>(i) + 4);
            break;
        }
    }
    const std::vector<Finding> out = run(broken);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rule, "guarded-by");
    EXPECT_NE(out[0].message.find("ThreadPool::queue_"),
              std::string::npos);
}

/** R2 is live on the real core: its wall-clock reads time the host
 *  and carry allow(nondet-api); without those comments every read
 *  is flagged. */
TEST(LintTree, NondetApiFlagsTheRealCoreClock)
{
    const std::string rel = "src/core/ooo_core.cc";
    SourceFile sf = lexFile(kRoot + "/" + rel, rel);
    std::vector<Finding> ok;
    ruleNondetApi(sf, ok);
    EXPECT_TRUE(ok.empty());

    sf.allows.clear();
    std::vector<Finding> out;
    ruleNondetApi(sf, out);
    ASSERT_EQ(out.size(), 2u);
    for (const Finding &f : out)
        EXPECT_NE(f.message.find("steady_clock"), std::string::npos);
}

} // namespace
} // namespace redsoc::lint
