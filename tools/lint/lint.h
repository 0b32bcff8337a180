/**
 * @file
 * redsoc_lint — simulator-specific static analysis.
 *
 * The simulator's correctness story (the Scan/Event differential
 * suite, the run-cache checksum, cross-process result reuse) depends
 * on bit-identical reproducibility, so classes of latent
 * nondeterminism and UB that would merely perturb a figure in an
 * ordinary codebase silently invalidate results here. This tool
 * enforces the determinism rules mechanically over src/, tools/ and
 * tests/:
 *
 *   init-field    (R1) every field of a struct named *Config / *Stats
 *                 carries an in-class initializer.
 *   nondet-api    (R2) banned wall-clock / seedless-randomness APIs
 *                 (rand, srand, time(), std::random_device, ...).
 *   nondet-iter   (R2) range-for iteration over a std::unordered_map /
 *                 unordered_set declared in the same file: iteration
 *                 order is unspecified and varies across libstdc++
 *                 versions, ASLR and insertion history.
 *   ptr-key-order (R2) std::map / std::set (or unordered_*) keyed by a
 *                 pointer type: ordering/hashing follows allocation
 *                 addresses.
 *   cycle-narrow  (R3) 64-bit cycle/tick quantities cast to
 *                 32-bit-or-smaller integer types (the implicit form
 *                 is -Wconversion's).
 *   float-accum   (R3) floating-point accumulation (+=) inside a loop
 *                 whose header mentions cycles/ticks, outside
 *                 src/power.
 *   audit-complete (R6) every InvariantAudit enumerator (NUM sentinel
 *                 excluded) appears at least once in the fuzzing
 *                 regression suite, so every runtime invariant check
 *                 keeps a unit test proving it fires on corrupted
 *                 state.
 *   hot-alloc     (R8) heap allocation inside the per-cycle scheduler
 *                 functions (the bodies the simulator executes every
 *                 simulated cycle): 'new', push_back/emplace_back on
 *                 a vector never reserve()d/resize()d in the same
 *                 file, and std::function construction. The SoA
 *                 scheduler pre-sizes every per-op lane at run()
 *                 start precisely so the hot loops stay
 *                 allocation-free; an allocation that sneaks back in
 *                 is a silent throughput regression the differential
 *                 tests cannot catch.
 *   guarded-by    (R10) lock-discipline enforcement over the
 *                 src/common/thread_annotations.h macros: every
 *                 read/write of a REDSOC_GUARDED_BY(mu) field must
 *                 happen in a scope holding mu — a live
 *                 lock_guard/unique_lock/scoped_lock (manual
 *                 .unlock()/.lock() windows modeled), a direct
 *                 mu.lock() region, or a REDSOC_REQUIRES(mu)
 *                 function; calls of REQUIRES methods need the lock
 *                 held, calls of EXCLUDES methods need it free. A
 *                 coverage arm keeps the annotations honest: in a
 *                 mutex-owning class under src/ or tools/, every
 *                 plain field must carry REDSOC_GUARDED_BY or an
 *                 explicit REDSOC_NOT_GUARDED.
 *   lock-order    (R11) the global mutex-acquisition graph (an edge
 *                 A->B per site acquiring B while holding A, merged
 *                 across every linted file) must be acyclic; any
 *                 cycle — including a self-edge, i.e. re-acquiring a
 *                 held non-recursive mutex — is a deadlock the test
 *                 schedule merely hasn't hit yet. Reported
 *                 canonically: one finding per strongly connected
 *                 component, anchored at its lexicographically
 *                 smallest site, edges listed sorted.
 *   nondet-taint  (R12) flow-sensitive generalization of R2:
 *                 values assigned from nondeterministic sources
 *                 (wall clocks, random/pid/thread-id APIs,
 *                 pointer-to-integer casts, range-for over unordered
 *                 containers, reads of the wall-clock-derived
 *                 sim_seconds stat) taint the local they are stored
 *                 in, propagate through further assignments, and
 *                 must never reach a determinism sink: a field of
 *                 any *Stats struct (sim_seconds itself exempt — it
 *                 is the one designated wall-clock stat), of
 *                 IssueRecord (the hook payload the run recorder
 *                 stores), or of Finding. Intra-procedural and
 *                 assignment-based by design; see DESIGN.md for the
 *                 soundness boundary.
 *
 * Findings print as "file:line: [rule-id] message". A finding is
 * suppressed by a comment "// redsoc-lint: allow(rule-id)" (or
 * allow(all), comma-separated ids accepted) on the same or the
 * immediately preceding line. A committed baseline file (line format:
 * "path [rule-id] message", '#' comments allowed) grandfathers known
 * findings; the tool exits nonzero only on findings not in the
 * baseline.
 *
 * Parsing is a deliberate tokenizer, not a full C++ front end (the
 * container ships no libclang development headers): rules are scoped
 * to constructs the lexer classifies reliably, and every rule is
 * suppressible where the heuristic is wrong.
 */

#ifndef REDSOC_TOOLS_LINT_LINT_H
#define REDSOC_TOOLS_LINT_LINT_H

#include <map>
#include <set>
#include <string>
#include <vector>

namespace redsoc::lint {

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

enum class TokKind {
    Ident,  ///< identifier or keyword
    Number, ///< numeric literal
    String, ///< string or char literal (text excludes quotes' content)
    Punct,  ///< operator / punctuation (multi-char only for :: -> +=
            ///< -= == != && ||)
};

struct Token
{
    TokKind kind = TokKind::Punct;
    std::string text;
    int line = 1;
};

/** One lexed source file plus its suppression comments. */
struct SourceFile
{
    std::string path; ///< as reported in findings (root-relative)
    std::vector<Token> toks;
    /** line -> rule-ids allowed there ("all" allows everything). */
    std::map<int, std::set<std::string>> allows;

    bool allowed(int line, const std::string &rule) const;
};

/** Lex @p text (suppression comments recorded, comments dropped). */
SourceFile lex(std::string path, const std::string &text);

/** Load + lex a file from disk; throws std::runtime_error on I/O. */
SourceFile lexFile(const std::string &fs_path,
                   const std::string &report_path);

// ---------------------------------------------------------------------
// Struct-field model (init-field)
// ---------------------------------------------------------------------

struct FieldInfo
{
    std::string name;
    int line = 0;
    bool initialized = false;
};

struct StructInfo
{
    std::string name;
    int line = 0;
    std::vector<FieldInfo> fields;
};

/** Every struct/class definition in the file (nested ones included,
 *  flattened). Instance data members only: functions, static members,
 *  using-declarations and nested types are excluded. */
std::vector<StructInfo> parseStructs(const SourceFile &sf);

// ---------------------------------------------------------------------
// Enum model (audit-complete)
// ---------------------------------------------------------------------

struct EnumeratorInfo
{
    std::string name;
    int line = 0;
};

struct EnumInfo
{
    std::string name;
    int line = 0;
    std::vector<EnumeratorInfo> enumerators;
};

/** Every named enum / enum class definition in the file (forward
 *  declarations skipped; initializer expressions ignored). */
std::vector<EnumInfo> parseEnums(const SourceFile &sf);

// ---------------------------------------------------------------------
// Findings and rules
// ---------------------------------------------------------------------

struct Finding
{
    std::string path;
    int line = 0;
    std::string rule;
    std::string message;

    /** "path:line: [rule] message" (the printed form). */
    std::string pretty() const;
    /** Line-number-free identity used for baseline matching. */
    std::string key() const;
};

void ruleInitField(const SourceFile &sf, std::vector<Finding> &out);
void ruleNondetApi(const SourceFile &sf, std::vector<Finding> &out);
void ruleNondetIter(const SourceFile &sf, std::vector<Finding> &out);
void rulePtrKeyOrder(const SourceFile &sf, std::vector<Finding> &out);
void ruleCycleNarrow(const SourceFile &sf, std::vector<Finding> &out);
/** @p exempt: skip files whose path starts with any of these
 *  prefixes (the power model legitimately integrates energy). */
void ruleFloatAccum(const SourceFile &sf,
                    const std::vector<std::string> &exempt,
                    std::vector<Finding> &out);

/** R6: every enumerator of @p enum_name in @p header — except the
 *  NUM count sentinel — must appear >= 1 time in @p tests (each
 *  runtime invariant check needs a unit test that corrupts the
 *  checked state and proves the violation fires). */
void ruleAuditComplete(const SourceFile &header,
                       const std::string &enum_name,
                       const SourceFile &tests,
                       std::vector<Finding> &out);

// Semantic rules (R10-R12). ScopeTree and SymbolTable are defined in
// scopes.h / symtab.h; the driver builds them once per file and the
// symbol table is additionally merged across the whole tree so .cc
// walks see their header's annotations.
struct ScopeTree;
struct SymbolTable;

/** One observed nested acquisition: @p second was locked while
 *  @p first was held, at @p path:@p line. first == second records a
 *  double-acquire. Mutex names are class-qualified ("C::mu_"). */
struct LockEdge
{
    std::string first;
    std::string second;
    std::string path;
    int line = 0;
};

/**
 * R10: guarded-by enforcement + annotation coverage for one file.
 * @p symtab resolves fields/contracts (tree-merged in tree mode);
 * @p coverage_tab restricts the coverage arm to classes declared in
 * this file; @p coverage_paths gates coverage to real code (path
 * prefixes). When @p edges is non-null the walk also records every
 * nested acquisition for R11.
 */
void ruleGuardedBy(const SourceFile &sf, const ScopeTree &tree,
                   const SymbolTable &symtab,
                   const SymbolTable &coverage_tab,
                   const std::vector<std::string> &coverage_paths,
                   std::vector<Finding> &out,
                   std::vector<LockEdge> *edges);

/** R11: cycle check over the merged acquisition graph. Findings are
 *  deterministic: one per SCC, smallest site first, edges sorted. */
void ruleLockOrder(const std::vector<LockEdge> &edges,
                   std::vector<Finding> &out);

/**
 * R12: nondeterminism taint tracking for one file. Sink fields come
 * from @p symtab: every field of a class whose name ends in one of
 * @p sink_suffixes or equals one of @p sink_structs, minus
 * @p exempt_fields (whose *reads* are instead taint sources).
 */
void ruleNondetTaint(const SourceFile &sf, const ScopeTree &tree,
                     const SymbolTable &symtab,
                     const std::vector<std::string> &sink_suffixes,
                     const std::vector<std::string> &sink_structs,
                     const std::vector<std::string> &exempt_fields,
                     std::vector<Finding> &out);

/** R8: no heap allocation inside the bodies of the per-cycle
 *  scheduler and per-access memory functions. @p hot_paths gates the
 *  rule to the core and memory sources; @p hot_functions names the
 *  function definitions whose bodies run every simulated cycle or
 *  memory access. Flags 'new',
 *  push_back/emplace_back on a container with no reserve()/resize()
 *  call anywhere in the same file, and std::function construction.
 *  Tokenizer heuristics, so allow(hot-alloc) where a flagged site is
 *  genuinely cold (e.g. a once-per-run slow path). */
void ruleHotAlloc(const SourceFile &sf,
                  const std::vector<std::string> &hot_paths,
                  const std::vector<std::string> &hot_functions,
                  std::vector<Finding> &out);

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

struct Options
{
    std::string root = ".";              ///< repo root (paths relative)
    std::vector<std::string> paths = {"src", "tools", "tests"};
    std::vector<std::string> exclude_substrings = {
        "lint_fixtures", "/build", ".git"};
    std::vector<std::string> float_accum_exempt = {"src/power"};

    // R6 wiring (relative to root; rule skipped if header missing).
    std::string audit_enum = "InvariantAudit";
    std::string audit_header = "src/core/invariant_audit.h";
    std::string audit_tests = "tests/test_fuzz_regress.cc";

    // R8 wiring: files (path prefixes) and function definitions the
    // hot-alloc rule scans. The list is the per-cycle call graph of
    // OooCore::run(), the WindowSet walk it leans on, and the
    // per-access memory path (caches, prefetcher, LSQ queries).
    std::vector<std::string> hot_alloc_paths = {"src/core/", "src/mem/"};
    std::vector<std::string> hot_functions = {
        "issuePhase",       "dispatchPhase",    "commitPhase",
        "phaseAEntry",      "evalConventional", "evalEager",
        "broadcastWakeup",  "drainWakeQueue",   "scheduleEval",
        "armAt",            "issueOp",          "nextIn",
        "next",             "take",             "fastForward",
        "memCompleteTick",  "observe",          "access",
        "insert",           "fill",             "findLine",
        "olderStoreUnresolved", "youngestUnresolvedStoreBefore",
        "firstUnresolved",  "lastUnresolved",   "forwardFrom",
        "resolve",          "dispatch",         "commit"};

    // R10 coverage gate: the "every field states its discipline"
    // arm only applies to real code, not fixtures lexed under test
    // paths.
    std::vector<std::string> guarded_coverage_paths = {"src/",
                                                       "tools/"};

    // R12 sink configuration. sim_seconds is the one stat defined as
    // wall-clock time; writing it from a clock is its purpose, and
    // reading it back is itself a taint source.
    std::vector<std::string> taint_sink_suffixes = {"Stats"};
    std::vector<std::string> taint_sink_structs = {"IssueRecord",
                                                   "Finding"};
    std::vector<std::string> taint_exempt_fields = {"sim_seconds"};

    /** Worker threads for the tree scan (1 = serial). Findings are
     *  deterministic regardless: per-file results merge in file
     *  order before the global sort. */
    unsigned jobs = 1;

    std::string baseline_path;           ///< empty = no baseline
};

/** All findings for one lexed file (per-file rules: R1-R3, R8,
 *  R10-R12 with a file-local symbol table, lock-order over the
 *  file's own acquisition graph; suppressions applied). */
std::vector<Finding> lintFile(const SourceFile &sf, const Options &opt);

/** Walk opt.paths under opt.root, run every rule — per-file rules
 *  with the tree-merged symbol table (opt.jobs workers), the global
 *  R11 acquisition graph, and the multi-file completeness rule
 *  (R6) — and return findings sorted by path/line. */
std::vector<Finding> lintTree(const Options &opt);

/** Baseline keys loaded from @p path (empty set if unreadable). */
std::set<std::string> loadBaseline(const std::string &path);

/** Findings whose key is not in @p baseline. */
std::vector<Finding> newFindings(const std::vector<Finding> &all,
                                 const std::set<std::string> &baseline);

} // namespace redsoc::lint

#endif // REDSOC_TOOLS_LINT_LINT_H
