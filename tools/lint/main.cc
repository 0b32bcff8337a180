/**
 * @file
 * redsoc_lint CLI.
 *
 *   redsoc_lint [--root DIR] [--baseline FILE]
 *               [--write-baseline FILE] [--jobs N] [--list-rules]
 *               [paths...]
 *
 * Paths default to src tools tests (relative to --root, default cwd);
 * tests/lint_fixtures and build trees are always excluded. --jobs
 * parallelizes the per-file scan (the semantic rules lex and walk
 * every file); findings are byte-identical for every N. Exits 0 when
 * no findings outside the baseline remain, 1 otherwise, 2 on
 * usage/I-O errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "lint.h"

namespace {

void
usage()
{
    std::fputs(
        "usage: redsoc_lint [--root DIR] [--baseline FILE]\n"
        "                   [--write-baseline FILE] [--jobs N]\n"
        "                   [--list-rules] [paths...]\n"
        "Simulator determinism lint; see DESIGN.md section 9.\n",
        stderr);
}

void
listRules()
{
    std::fputs(
        "init-field     *Config/*Stats fields need in-class "
        "initializers\n"
        "nondet-api     banned wall-clock / unseeded-randomness APIs\n"
        "nondet-iter    range-for over unordered containers\n"
        "ptr-key-order  associative containers keyed by pointers\n"
        "cycle-narrow   cycle/tick values narrowed below 64 bits\n"
        "float-accum    float accumulation in per-cycle loops\n"
        "audit-complete InvariantAudit enumerators must each have a "
        "corrupting unit test\n"
        "hot-alloc      no heap allocation in per-cycle scheduler and "
        "per-access memory functions\n"
        "guarded-by     REDSOC_GUARDED_BY fields only touched with "
        "their mutex held; mutex-owning classes annotate every field\n"
        "lock-order     global mutex-acquisition graph must be "
        "acyclic\n"
        "nondet-taint   wall-clock/random/pointer-cast/unordered "
        "values must not flow into stats, trace events or findings\n"
        "suppress with: // redsoc-lint: allow(rule-id[,rule-id...])\n",
        stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace redsoc::lint;

    Options opt;
    std::string write_baseline;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "redsoc_lint: %s needs a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--root")
            opt.root = value("--root");
        else if (arg == "--baseline")
            opt.baseline_path = value("--baseline");
        else if (arg == "--write-baseline")
            write_baseline = value("--write-baseline");
        else if (arg == "--jobs") {
            const long n = std::strtol(value("--jobs"), nullptr, 10);
            if (n < 1) {
                std::fprintf(stderr,
                             "redsoc_lint: --jobs needs a positive "
                             "integer\n");
                return 2;
            }
            opt.jobs = static_cast<unsigned>(n);
        } else if (arg == "--list-rules") {
            listRules();
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "redsoc_lint: unknown flag '%s'\n",
                         arg.c_str());
            usage();
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (!paths.empty())
        opt.paths = paths;

    try {
        const std::vector<Finding> all = lintTree(opt);

        if (!write_baseline.empty()) {
            std::ofstream out(write_baseline);
            if (!out) {
                std::fprintf(stderr,
                             "redsoc_lint: cannot write '%s'\n",
                             write_baseline.c_str());
                return 2;
            }
            out << "# redsoc_lint baseline — grandfathered findings."
                   "\n# Every entry must carry a justification "
                   "comment above it.\n";
            for (const Finding &f : all)
                out << f.key() << '\n';
            std::fprintf(stderr, "redsoc_lint: wrote %zu entries to %s\n",
                         all.size(), write_baseline.c_str());
            return 0;
        }

        const std::set<std::string> base =
            opt.baseline_path.empty()
                ? std::set<std::string>{}
                : loadBaseline(opt.baseline_path);
        const std::vector<Finding> fresh = newFindings(all, base);
        for (const Finding &f : fresh)
            std::fprintf(stdout, "%s\n", f.pretty().c_str());
        const size_t grandfathered = all.size() - fresh.size();
        if (grandfathered > 0)
            std::fprintf(stderr,
                         "redsoc_lint: %zu finding(s) matched the "
                         "baseline\n",
                         grandfathered);
        if (!fresh.empty()) {
            std::fprintf(stderr,
                         "redsoc_lint: %zu new finding(s)\n",
                         fresh.size());
            return 1;
        }
        std::fprintf(stderr, "redsoc_lint: clean\n");
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "redsoc_lint: %s\n", e.what());
        return 2;
    }
}
