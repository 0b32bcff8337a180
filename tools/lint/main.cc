/**
 * @file
 * redsoc_lint CLI.
 *
 *   redsoc_lint [--root DIR] [--list-rules] [paths...]
 *
 * Paths default to src tools tests (relative to --root, default cwd);
 * tests/lint_fixtures and build trees are always excluded. Exits 0
 * when there are no findings, 1 otherwise, 2 on usage/I-O errors.
 */

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "lint.h"

namespace {

void
usage()
{
    std::fputs(
        "usage: redsoc_lint [--root DIR] [--list-rules] [paths...]\n"
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
        "cycle-narrow   cycle/tick values cast below 64 bits\n"
        "float-accum    float accumulation in per-cycle loops\n"
        "audit-complete InvariantAudit enumerators must each have a "
        "corrupting unit test\n"
        "hot-alloc      no heap allocation in per-cycle scheduler and "
        "per-access memory functions\n"
        "guarded-by     mutex-owning classes annotate every field with "
        "REDSOC_GUARDED_BY or REDSOC_NOT_GUARDED\n"
        "suppress with: // redsoc-lint: allow(rule-id[,rule-id...])\n",
        stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace redsoc::lint;

    Options opt;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root") {
            if (i + 1 >= argc) {
                std::fputs("redsoc_lint: --root needs a value\n", stderr);
                return 2;
            }
            opt.root = argv[++i];
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
        for (const Finding &f : all)
            std::fprintf(stdout, "%s\n", f.pretty().c_str());
        if (!all.empty()) {
            std::fprintf(stderr, "redsoc_lint: %zu finding(s)\n",
                         all.size());
            return 1;
        }
        std::fprintf(stderr, "redsoc_lint: clean\n");
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "redsoc_lint: %s\n", e.what());
        return 2;
    }
}
