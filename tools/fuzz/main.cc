/**
 * @file
 * redsoc_fuzz CLI — random points through the contract checker.
 *
 *   redsoc_fuzz --seed 1 --budget 60          # 60s smoke sweep
 *   redsoc_fuzz --seed 1 --count 5000         # fixed point count
 *   redsoc_fuzz --seed 1 --count 100 --minimize --out tests/fuzz_corpus
 *   redsoc_fuzz --proc --seed 1 --budget 60   # multi-core mixes
 *   redsoc_fuzz --replay tests/fuzz_corpus/foo.fuzz
 *   redsoc_fuzz --dump-seed 42                # print the fixture text
 *
 * Every point must hold the contracts of checkContracts (fuzz_lib.h).
 * --proc draws multi-core Processor points (1-3 cores, randomized LLC
 * geometry, DRAM banking, shared/split address spaces).
 *
 * Exit status 0 when every point agrees, 1 on any divergence (or a
 * failing replay), 2 on usage errors.
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "../cli.h"
#include "fuzz_lib.h"

namespace {

using namespace redsoc;
using namespace redsoc::fuzz;

struct Options
{
    u64 seed = 1;
    u64 count = 0;       ///< 0 = budget-driven
    double budget_s = 0; ///< 0 = count-driven (default: 60s budget)
    bool minimize = false;
    bool proc = false; ///< sweep multi-core Processor points
    std::string out_dir;
    std::string replay_path;
    bool dump_seed = false;
    u64 dump_seed_value = 0;
};

void
usage(std::ostream &os)
{
    os << "usage: redsoc_fuzz [--seed N] [--count N | --budget SECONDS]\n"
          "                   [--proc] [--minimize] [--out DIR]\n"
          "       redsoc_fuzz --replay FIXTURE\n"
          "       redsoc_fuzz [--proc] --dump-seed N\n";
}

std::optional<Options>
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        // The flag's value; a missing one is a usage error.
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "redsoc_fuzz: " << arg << " needs a value\n";
                usage(std::cerr);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--seed") {
            opt.seed = cli::numArg<u64>("--seed", next());
        } else if (arg == "--count") {
            opt.count = cli::numArg<u64>("--count", next());
        } else if (arg == "--budget") {
            opt.budget_s = cli::numArg<double>("--budget", next());
        } else if (arg == "--minimize") {
            opt.minimize = true;
        } else if (arg == "--proc") {
            opt.proc = true;
        } else if (arg == "--out") {
            opt.out_dir = next();
        } else if (arg == "--replay") {
            opt.replay_path = next();
        } else if (arg == "--dump-seed") {
            opt.dump_seed = true;
            opt.dump_seed_value = cli::numArg<u64>("--dump-seed", next());
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            std::exit(0);
        } else {
            std::cerr << "redsoc_fuzz: unknown flag '" << arg << "'\n";
            return std::nullopt;
        }
    }
    if (opt.count == 0 && opt.budget_s == 0)
        opt.budget_s = 60;
    return opt;
}

int
replay(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "redsoc_fuzz: cannot open " << path << '\n';
        return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const FuzzCase fc = parseCase(text.str());
    const std::string diff = checkCase(fc);
    if (diff.empty()) {
        std::cout << path << ": " << fc.name << " agrees ("
                  << fc.prog.size() << " recipes)\n";
        return 0;
    }
    std::cout << path << ": " << fc.name << " DIVERGES: " << diff
              << '\n';
    return 1;
}

/** Report one divergence, optionally minimizing and writing a
 *  fixture; returns the fixture path message for the summary. */
void
handleDivergence(const Options &opt, const FuzzCase &fc,
                 const std::string &diff)
{
    std::cout << "DIVERGENCE at " << fc.name << ": " << diff << '\n';
    FuzzCase repro = fc;
    if (opt.minimize) {
        repro = minimizeCase(fc);
        std::cout << "  minimized " << fc.prog.size() << " -> "
                  << repro.prog.size()
                  << " recipes; still diverges: " << checkCase(repro)
                  << '\n';
    }
    if (!opt.out_dir.empty()) {
        const std::string path =
            opt.out_dir + "/" + repro.name + ".fuzz";
        std::ofstream out(path);
        out << serializeCase(repro);
        std::cout << "  fixture written to " << path << '\n';
    } else {
        std::cout << serializeCase(repro);
    }
}

int
sweep(const Options &opt)
{
    // The sweep's host-time budget. redsoc-lint: allow(nondet-api)
    using clock = std::chrono::steady_clock;
    const auto start = clock::now();
    auto elapsed_s = [&start] {
        return std::chrono::duration<double>(clock::now() - start)
            .count();
    };

    u64 checked = 0;
    u64 diverged = 0;
    u64 seed = opt.seed;
    while (true) {
        if (opt.count != 0 && checked >= opt.count)
            break;
        if (opt.count == 0 && elapsed_s() >= opt.budget_s)
            break;
        const FuzzCase fc =
            opt.proc ? randomProcCase(seed++) : randomCase(seed++);
        const std::string diff = checkCase(fc);
        ++checked;
        if (!diff.empty()) {
            ++diverged;
            handleDivergence(opt, fc, diff);
        }
        if (checked % 500 == 0)
            std::cout << "  ... " << checked << " points, "
                      << diverged << " divergent, "
                      << static_cast<u64>(static_cast<double>(checked) /
                                          elapsed_s() * 60)
                      << " points/min\n";
    }

    const double secs = elapsed_s();
    std::cout << "redsoc_fuzz: " << checked << " points in " << secs
              << "s ("
              << static_cast<u64>(
                     secs > 0 ? static_cast<double>(checked) / secs * 60
                              : 0)
              << " points/min), " << diverged << " divergent\n";
    return diverged == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = parseArgs(argc, argv);
    if (!opt) {
        usage(std::cerr);
        return 2;
    }
    if (opt->dump_seed) {
        std::cout << serializeCase(
            opt->proc ? randomProcCase(opt->dump_seed_value)
                      : randomCase(opt->dump_seed_value));
        return 0;
    }
    if (!opt->replay_path.empty())
        return replay(opt->replay_path);
    return sweep(*opt);
}
