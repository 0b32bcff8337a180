/**
 * @file
 * redsoc_lint driver: file discovery, rule orchestration, baseline
 * load/compare.
 */

#include "symtab.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

namespace fs = std::filesystem;

namespace redsoc::lint {

namespace {

bool
lintableExtension(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".hpp" || ext == ".cc" ||
           ext == ".cpp";
}

bool
excluded(const std::string &rel, const Options &opt)
{
    for (const std::string &s : opt.exclude_substrings)
        if (rel.find(s) != std::string::npos)
            return true;
    return false;
}

std::string
relPath(const fs::path &p, const fs::path &root)
{
    std::error_code ec;
    fs::path rel = fs::relative(p, root, ec);
    return (ec ? p : rel).generic_string();
}

/** Per-file rules against a given (possibly tree-merged) symbol
 *  table. R11 edges accumulate into @p edges for the caller to run
 *  the cycle check at the right granularity. */
std::vector<Finding>
lintFileWith(const SourceFile &sf, const Options &opt,
             const ScopeTree &tree, const SymbolTable &symtab,
             const SymbolTable &local_tab,
             std::vector<LockEdge> &edges)
{
    std::vector<Finding> out;
    ruleInitField(sf, out);
    ruleNondetApi(sf, out);
    ruleNondetIter(sf, out);
    rulePtrKeyOrder(sf, out);
    ruleCycleNarrow(sf, out);
    ruleFloatAccum(sf, opt.float_accum_exempt, out);
    ruleHotAlloc(sf, opt.hot_alloc_paths, opt.hot_functions, out);
    ruleGuardedBy(sf, tree, symtab, local_tab,
                  opt.guarded_coverage_paths, out, &edges);
    ruleNondetTaint(sf, tree, symtab, opt.taint_sink_suffixes,
                    opt.taint_sink_structs, opt.taint_exempt_fields,
                    out);
    return out;
}

} // namespace

std::string
Finding::pretty() const
{
    return path + ":" + std::to_string(line) + ": [" + rule + "] " +
           message;
}

std::string
Finding::key() const
{
    return path + " [" + rule + "] " + message;
}

std::vector<Finding>
lintFile(const SourceFile &sf, const Options &opt)
{
    // Standalone mode: the file's own declarations are all the
    // context there is, and lock-order runs over the file's own
    // acquisition graph.
    const ScopeTree tree = buildScopeTree(sf);
    const SymbolTable tab = buildSymbolTable(sf, tree);
    std::vector<LockEdge> edges;
    std::vector<Finding> out =
        lintFileWith(sf, opt, tree, tab, tab, edges);
    ruleLockOrder(edges, out);
    return out;
}

std::vector<Finding>
lintTree(const Options &opt)
{
    const fs::path root(opt.root);
    std::vector<std::string> files;
    for (const std::string &p : opt.paths) {
        const fs::path base = root / p;
        std::error_code ec;
        if (fs::is_regular_file(base, ec)) {
            files.push_back(relPath(base, root));
            continue;
        }
        for (auto it = fs::recursive_directory_iterator(base, ec);
             !ec && it != fs::recursive_directory_iterator();
             it.increment(ec)) {
            if (!it->is_regular_file() ||
                !lintableExtension(it->path()))
                continue;
            const std::string rel = relPath(it->path(), root);
            if (!excluded(rel, opt))
                files.push_back(rel);
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    // Phase 1: lex everything (parallel, order-independent) and
    // build per-file scope trees + symbol tables.
    const size_t n = files.size();
    std::vector<SourceFile> sources(n);
    std::vector<ScopeTree> trees(n);
    std::vector<SymbolTable> local_tabs(n);
    const unsigned jobs = std::max(1u, opt.jobs);
    auto parallelFor = [&](auto &&body) {
        if (jobs <= 1 || n <= 1) {
            for (size_t i = 0; i < n; ++i)
                body(i);
            return;
        }
        std::atomic<size_t> next{0};
        std::vector<std::thread> pool;
        const unsigned count =
            std::min<unsigned>(jobs, static_cast<unsigned>(n));
        pool.reserve(count);
        for (unsigned w = 0; w < count; ++w)
            pool.emplace_back([&] {
                for (size_t i = next.fetch_add(1); i < n;
                     i = next.fetch_add(1))
                    body(i);
            });
        for (std::thread &th : pool)
            th.join();
    };
    parallelFor([&](size_t i) {
        sources[i] = lexFile((root / files[i]).string(), files[i]);
        trees[i] = buildScopeTree(sources[i]);
        local_tabs[i] = buildSymbolTable(sources[i], trees[i]);
    });

    // Phase 2: merge the symbol tables in sorted file order
    // (deterministic; class bodies live in headers, so collisions —
    // first declaration wins — only arise for same-named local
    // structs), so every file's walk resolves annotations declared
    // elsewhere.
    SymbolTable merged;
    for (size_t i = 0; i < n; ++i)
        merged.addFile(sources[i], trees[i]);

    // Phase 3: per-file rules (parallel), results and lock edges
    // kept per file index and merged in file order — findings are
    // byte-identical for every --jobs value.
    std::vector<std::vector<Finding>> results(n);
    std::vector<std::vector<LockEdge>> edge_slots(n);
    parallelFor([&](size_t i) {
        results[i] = lintFileWith(sources[i], opt, trees[i], merged,
                                  local_tabs[i], edge_slots[i]);
    });

    std::vector<Finding> out;
    std::vector<LockEdge> edges;
    for (size_t i = 0; i < n; ++i) {
        out.insert(out.end(), results[i].begin(), results[i].end());
        edges.insert(edges.end(), edge_slots[i].begin(),
                     edge_slots[i].end());
    }

    // R11 runs once over the merged acquisition graph.
    ruleLockOrder(edges, out);

    // R6 runs once over the invariant catalogue and its test suite.
    std::error_code ec;
    if (fs::exists(root / opt.audit_header, ec) &&
        fs::exists(root / opt.audit_tests, ec)) {
        SourceFile header = lexFile((root / opt.audit_header).string(),
                                    opt.audit_header);
        SourceFile tst = lexFile((root / opt.audit_tests).string(),
                                 opt.audit_tests);
        ruleAuditComplete(header, opt.audit_enum, tst, out);
    }

    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.path != b.path)
                      return a.path < b.path;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.message < b.message;
              });
    return out;
}

std::set<std::string>
loadBaseline(const std::string &path)
{
    std::set<std::string> keys;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        // Trim trailing CR / whitespace.
        while (!line.empty() &&
               (line.back() == '\r' || line.back() == ' ' ||
                line.back() == '\t'))
            line.pop_back();
        if (line.empty() || line[0] == '#')
            continue;
        keys.insert(line);
    }
    return keys;
}

std::vector<Finding>
newFindings(const std::vector<Finding> &all,
            const std::set<std::string> &baseline)
{
    std::vector<Finding> fresh;
    for (const Finding &f : all)
        if (!baseline.count(f.key()))
            fresh.push_back(f);
    return fresh;
}

} // namespace redsoc::lint
