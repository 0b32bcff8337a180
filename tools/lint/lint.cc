/**
 * @file
 * redsoc_lint driver: file discovery and rule orchestration.
 */

#include "lint.h"

#include <algorithm>
#include <filesystem>

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

} // namespace

std::string
Finding::pretty() const
{
    return path + ":" + std::to_string(line) + ": [" + rule + "] " +
           message;
}

std::vector<Finding>
lintFile(const SourceFile &sf, const Options &opt)
{
    std::vector<Finding> out;
    ruleInitField(sf, out);
    ruleNondetApi(sf, out);
    ruleNondetIter(sf, out);
    rulePtrKeyOrder(sf, out);
    ruleCycleNarrow(sf, out);
    ruleFloatAccum(sf, opt.float_accum_exempt, out);
    ruleHotAlloc(sf, opt.hot_alloc_paths, opt.hot_functions, out);
    ruleGuardedBy(sf, opt.guarded_coverage_paths, out);
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

    std::vector<Finding> out;
    for (const std::string &rel : files) {
        const std::vector<Finding> found =
            lintFile(lexFile((root / rel).string(), rel), opt);
        out.insert(out.end(), found.begin(), found.end());
    }

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

} // namespace redsoc::lint
