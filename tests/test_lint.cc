/**
 * @file
 * Tests for redsoc_lint (tools/lint): every rule must fire exactly
 * where its fixture says, stay quiet on the clean fixture, honour
 * allow() suppressions, and the real tree must lint clean against
 * the committed baseline.
 */

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lint.h"
#include "symtab.h"

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
                     {28, "init-field"}}));
}

TEST(LintRules, NondetApiFiresOnBannedCalls)
{
    EXPECT_EQ(sites("nondet_api.cc"),
              (Sites{{11, "nondet-api"},
                     {12, "nondet-api"},
                     {13, "nondet-api"},
                     {14, "nondet-api"}}));
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

TEST(LintRules, CycleNarrowFiresOnCastAndImplicitNarrowing)
{
    EXPECT_EQ(sites("cycle_narrow.cc"),
              (Sites{{11, "cycle-narrow"}, {12, "cycle-narrow"}}));
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
        if (s.name != "BadStats")
            continue;
        ASSERT_EQ(s.fields.size(), 2u); // ipc() and kLimit excluded
        EXPECT_EQ(s.fields[0].name, "committed");
        EXPECT_TRUE(s.fields[0].initialized);
        EXPECT_EQ(s.fields[1].name, "cycles");
        EXPECT_FALSE(s.fields[1].initialized);
    }
}

TEST(LintBaseline, GrandfathersExactKeysOnly)
{
    const Finding a{"src/a.cc", 10, "nondet-api", "call to 'rand'"};
    const Finding b{"src/b.cc", 20, "nondet-api", "call to 'rand'"};
    const std::set<std::string> base = {a.key()};
    const auto fresh = newFindings({a, b}, base);
    ASSERT_EQ(fresh.size(), 1u);
    EXPECT_EQ(fresh[0].path, "src/b.cc");
    // Keys are line-free: moving a finding must not invalidate it.
    const Finding moved{"src/a.cc", 99, "nondet-api", "call to 'rand'"};
    EXPECT_TRUE(newFindings({moved}, base).empty());
}

/** The acceptance gate: the real tree lints clean against the
 *  committed baseline (which is expected to stay empty). */
TEST(LintTree, RepositoryIsCleanAgainstBaseline)
{
    Options opt;
    opt.root = kRoot;
    const std::vector<Finding> all = lintTree(opt);
    const std::set<std::string> base =
        loadBaseline(kRoot + "/tools/lint/baseline.txt");
    std::string pretty;
    for (const Finding &f : newFindings(all, base))
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

TEST(LintScopeTree, ClassifiesScopesAndParsesContracts)
{
    const SourceFile sf = lex(
        "t.cc",
        "namespace ns {\n"
        "struct S {\n"
        "    void m() REDSOC_REQUIRES(mu_) { if (x) { } }\n"
        "    std::mutex mu_;\n"
        "};\n"
        "void free_fn() {\n"
        "    auto f = [&] { return 1; };\n"
        "}\n"
        "S make() { return S{}; }\n"
        "} // namespace ns\n");
    const ScopeTree tree = buildScopeTree(sf);

    std::vector<std::pair<ScopeKind, std::string>> got;
    for (const Scope &sc : tree.scopes)
        got.emplace_back(sc.kind, sc.name);
    const std::vector<std::pair<ScopeKind, std::string>> want = {
        {ScopeKind::File, ""},      {ScopeKind::Namespace, "ns"},
        {ScopeKind::Class, "S"},    {ScopeKind::Function, "m"},
        {ScopeKind::Block, ""},     {ScopeKind::Function, "free_fn"},
        {ScopeKind::Lambda, ""},    {ScopeKind::Function, "make"},
        {ScopeKind::Block, ""}};
    EXPECT_EQ(got, want);

    for (const Scope &sc : tree.scopes) {
        if (sc.kind != ScopeKind::Function || sc.name != "m")
            continue;
        EXPECT_EQ(sc.class_name, "S");
        EXPECT_EQ(sc.requires_, std::vector<std::string>{"mu_"});
    }
}

TEST(LintSymtab, ParsesFieldsAnnotationsAndContracts)
{
    const SourceFile sf = lex(
        "t.h",
        "struct Box {\n"
        "  public:\n"
        "    void fill() REDSOC_REQUIRES(mu_);\n"
        "    void drain() REDSOC_EXCLUDES(mu_);\n"
        "    Box &operator=(const Box &) = delete;\n"
        "  private:\n"
        "    std::mutex mu_;\n"
        "    std::condition_variable cv_;\n"
        "    int depth_ REDSOC_GUARDED_BY(mu_) = 0;\n"
        "    int version_ REDSOC_NOT_GUARDED = 0;\n"
        "    static int total_;\n"
        "};\n");
    const SymbolTable tab = buildSymbolTable(sf, buildScopeTree(sf));
    const ClassSym *box = tab.find("Box");
    ASSERT_NE(box, nullptr);
    EXPECT_TRUE(box->ownsMutex());
    ASSERT_EQ(box->fields.size(), 4u); // static + operator= excluded
    ASSERT_NE(box->field("mu_"), nullptr);
    EXPECT_TRUE(box->field("mu_")->is_mutex);
    ASSERT_NE(box->field("cv_"), nullptr);
    EXPECT_TRUE(box->field("cv_")->is_cv);
    ASSERT_NE(box->field("depth_"), nullptr);
    EXPECT_EQ(box->field("depth_")->guarded_by, "mu_");
    ASSERT_NE(box->field("version_"), nullptr);
    EXPECT_TRUE(box->field("version_")->not_guarded);
    const MethodSym *fill = box->method("fill");
    ASSERT_NE(fill, nullptr);
    EXPECT_EQ(fill->requires_, std::vector<std::string>{"mu_"});
    const MethodSym *drain = box->method("drain");
    ASSERT_NE(drain, nullptr);
    EXPECT_EQ(drain->excludes_, std::vector<std::string>{"mu_"});
}

TEST(LintRules, GuardedByFiresOnUnheldAccessAndContracts)
{
    // 17: plain unlocked access; 25: inside a manual unlock window;
    // 37: calling a REQUIRES method unlocked; 40: calling an
    // EXCLUDES method locked. 51 is suppressed via allow().
    EXPECT_EQ(sites("guarded_by.cc"),
              (Sites{{17, "guarded-by"},
                     {25, "guarded-by"},
                     {37, "guarded-by"},
                     {40, "guarded-by"}}));
}

TEST(LintRules, GuardedByCoverageDemandsDisciplineUnderSrc)
{
    SourceFile sf = fixture("guarded_by.cc");
    sf.path = "src/sim/guarded_by.cc"; // pretend-location
    const Options opt;
    auto run = [&](const SourceFile &f) {
        const ScopeTree tree = buildScopeTree(f);
        const SymbolTable tab = buildSymbolTable(f, tree);
        std::vector<Finding> out;
        ruleGuardedBy(f, tree, tab, tab, opt.guarded_coverage_paths,
                      out, nullptr);
        return out;
    };
    // Fully annotated: the coverage arm adds nothing beyond the four
    // enforcement findings.
    EXPECT_EQ(run(sf).size(), 4u);

    // Delete the REDSOC_NOT_GUARDED annotation: its field must now
    // be reported as declaring no discipline.
    SourceFile broken = sf;
    std::erase_if(broken.toks, [](const Token &t) {
        return t.text == "REDSOC_NOT_GUARDED";
    });
    const std::vector<Finding> out = run(broken);
    ASSERT_EQ(out.size(), 5u);
    bool hit = false;
    for (const Finding &f : out)
        hit = hit || (f.line == 56 && f.rule == "guarded-by" &&
                      f.message.find("lossy_") != std::string::npos);
    EXPECT_TRUE(hit);
}

/** R10 is live on the real tree: delete one GUARDED_BY annotation
 *  from the thread pool header and the coverage arm must notice. */
TEST(LintTree, GuardedByGuardsTheRealThreadPool)
{
    const std::string rel = "src/sim/thread_pool.h";
    const SourceFile sf = lexFile(kRoot + "/" + rel, rel);
    const Options opt;
    auto run = [&](const SourceFile &f) {
        const ScopeTree tree = buildScopeTree(f);
        const SymbolTable tab = buildSymbolTable(f, tree);
        std::vector<Finding> out;
        ruleGuardedBy(f, tree, tab, tab, opt.guarded_coverage_paths,
                      out, nullptr);
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

TEST(LintRules, LockOrderFiresOnCycleAndSelfDeadlock)
{
    // 11: anchor of the first_/second_ inversion cycle; 23: the
    // double-acquire self-edge.
    EXPECT_EQ(sites("lock_order_cycle.cc"),
              (Sites{{11, "lock-order"}, {23, "lock-order"}}));
}

/** R11 is live: the consistently-ordered fixture is clean, and
 *  inverting debit()'s nested pair makes the cycle check fire. */
TEST(LintRules, LockOrderNoticesAnInvertedPair)
{
    EXPECT_EQ(sites("lock_order.cc"), Sites{});

    SourceFile sf = fixture("lock_order.cc");
    for (Token &t : sf.toks) {
        if (t.line < 20 || t.line > 24)
            continue;
        if (t.text == "alpha_")
            t.text = "beta_";
        else if (t.text == "beta_")
            t.text = "alpha_";
    }
    const std::vector<Finding> out = lintFile(sf, Options{});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rule, "lock-order");
    EXPECT_NE(out[0].message.find("cycle"), std::string::npos);
    EXPECT_NE(out[0].message.find("Ledger::alpha_"),
              std::string::npos);
    EXPECT_NE(out[0].message.find("Ledger::beta_"),
              std::string::npos);
}

TEST(LintRules, NondetTaintTracksSourcesThroughLocals)
{
    // 22: now() through two locals; 27: wall-clock stat readback;
    // 36: unordered iteration order; 44: pointer-to-integer cast;
    // 56: the same cast into an IssueRecord field.
    // 28 is suppressed via allow(); 24 is killed by an overwrite.
    EXPECT_EQ(sites("nondet_taint.cc"),
              (Sites{{22, "nondet-taint"},
                     {27, "nondet-taint"},
                     {36, "nondet-taint"},
                     {44, "nondet-taint"},
                     {56, "nondet-taint"}}));
}

/** R12 is live on the real core: retarget the one wall-clock write
 *  from the exempt sim_seconds stat to a determinism sink and the
 *  taint rule must notice. */
TEST(LintTree, NondetTaintGuardsTheRealCoreStats)
{
    Options opt;
    opt.root = kRoot;
    const std::string header_rel = "src/core/ooo_core.h";
    const SourceFile header =
        lexFile(kRoot + "/" + header_rel, header_rel);
    const std::string core_rel = "src/core/ooo_core.cc";
    const SourceFile core =
        lexFile(kRoot + "/" + core_rel, core_rel);

    auto run = [&](const SourceFile &cc) {
        SymbolTable tab;
        tab.addFile(header, buildScopeTree(header));
        const ScopeTree tree = buildScopeTree(cc);
        tab.addFile(cc, tree);
        std::vector<Finding> out;
        ruleNondetTaint(cc, tree, tab, opt.taint_sink_suffixes,
                        opt.taint_sink_structs,
                        opt.taint_exempt_fields, out);
        return out;
    };
    EXPECT_TRUE(run(core).empty());

    // Pretend the steady_clock result were stored into 'cycles'
    // instead of the designated wall-clock stat.
    SourceFile broken = core;
    for (size_t i = 0; i + 1 < broken.toks.size(); ++i)
        if (broken.toks[i].text == "sim_seconds" &&
            broken.toks[i + 1].text == "=") {
            broken.toks[i].text = "cycles";
            break;
        }
    const std::vector<Finding> out = run(broken);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rule, "nondet-taint");
    EXPECT_NE(out[0].message.find("CoreStats::cycles"),
              std::string::npos);
}

/** --jobs must not affect the findings, only the wall clock. */
TEST(LintTree, FindingsAreIdenticalAcrossJobCounts)
{
    Options serial;
    serial.root = kRoot;
    Options threaded = serial;
    threaded.jobs = 4;
    const std::vector<Finding> a = lintTree(serial);
    const std::vector<Finding> b = lintTree(threaded);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].pretty(), b[i].pretty());
}

} // namespace
} // namespace redsoc::lint
