/**
 * @file
 * Per-leaf properties of the field visitors (common/fields.h). The
 * run-cache key, the stats codec, the fuzz fixture's config line and
 * the equivalence comparator are all derived from the visitors; these
 * tests change one leaf at a time and check that each derived form
 * sees the change:
 *
 *  - every CoreConfig / ProcConfig leaf changes configKey /
 *    procConfigKey, round-trips through the fixture text when the
 *    change stays in range and is refused by the parser when not,
 *    and is reached by redsoc_sim's --set (setLeaf);
 *  - random draws of several ProcConfig leaves, changed together,
 *    get distinct keys whenever their leaf sets differ;
 *  - every config range configError states rejects its leaf by path,
 *    at core construction under both kernels and in a fixture;
 *  - every CoreStats / ProcStats leaf, set to a distinct non-default
 *    value, round-trips through the codec, and firstDifference names
 *    exactly that leaf when only it differs.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fuzz_lib.h"
#include "sim/driver.h"
#include "sim/run_cache.h"

namespace redsoc {
namespace {

/**
 * Walk every leaf of @p obj like forEachLeaf, but step into vectors:
 * each vector is first resized to @p slices elements, whose leaves
 * get paths "path.i". Histograms are leaves.
 */
template <class T, class F>
void
forEachStatLeaf(T &obj, F &f, size_t slices)
{
    forEachLeaf(obj, [&](const std::string &path, auto &leaf) {
        using M = std::remove_cvref_t<decltype(leaf)>;
        if constexpr (kIsVector<M>) {
            leaf.resize(slices);
            for (size_t i = 0; i < slices; ++i) {
                std::string elem = path + "." + std::to_string(i);
                forEachLeaf(leaf[i], [&](const std::string &sub,
                                         auto &inner) {
                    f(elem + "." + sub, inner);
                });
            }
        } else {
            f(path, leaf);
        }
    });
}

/** Change one leaf to a different valid value of its type. A number
 *  takes @p step: 0 the smallest step up, 1 down, 2 doubled. */
template <class M>
void
bump(M &v, int step = 0)
{
    if constexpr (std::is_same_v<M, bool>)
        v = !v;
    else if constexpr (std::is_same_v<M, std::string>)
        v += "x";
    else if constexpr (std::is_enum_v<M>)
        v = static_cast<M>(static_cast<int>(v) == 0 ? 1 : 0);
    else if constexpr (std::is_same_v<M, Histogram>)
        v.sample(1);
    else if (step == 2)
        v = static_cast<M>(v * 2);
    else if constexpr (std::is_floating_point_v<M>)
        v = std::nextafter(v, step == 0 ? v + 1.0 : v - 1.0);
    else if (step == 0)
        ++v;
    else
        --v;
}

/** Paths of every leaf, in visitor order. */
template <class T>
std::vector<std::string>
leafPaths(T obj, size_t slices = 2)
{
    std::vector<std::string> paths;
    auto record = [&paths](const std::string &path, auto &) {
        paths.push_back(path);
    };
    forEachStatLeaf(obj, record, slices);
    return paths;
}

/** @p obj with only leaf number @p k bumped. */
template <class T>
T
withLeafBumped(T obj, size_t k, size_t slices = 2, int step = 0)
{
    size_t i = 0;
    auto change = [&](const std::string &, auto &leaf) {
        if (i++ == k)
            bump(leaf, step);
    };
    forEachStatLeaf(obj, change, slices);
    return obj;
}

/** @p config with leaf @p k changed by the first bump step whose
 *  result configError accepts; nullopt when no step stays in range
 *  (the LLC line size alone, say, which must equal the L1's). */
template <class T>
std::optional<T>
withLeafChangedInRange(const T &config, size_t k)
{
    for (int step = 0; step <= 2; ++step) {
        T changed = withLeafBumped(config, k, 2, step);
        if (fieldsText(changed) != fieldsText(config) &&
            configError(changed).empty())
            return changed;
    }
    return std::nullopt;
}

/** The text of every leaf, in visitor order. */
template <class T>
std::vector<std::string>
leafTexts(const T &obj)
{
    std::vector<std::string> texts;
    forEachLeaf(obj, [&texts](const std::string &, const auto &leaf) {
        appendLeaf(texts.emplace_back(), leaf);
    });
    return texts;
}

/** Stats whose every leaf holds a distinct non-default value. */
template <class T>
T
distinctStats()
{
    T stats;
    u64 n = 0;
    auto fill = [&n](const std::string &, auto &leaf) {
        using M = std::remove_cvref_t<decltype(leaf)>;
        ++n;
        if constexpr (std::is_same_v<M, Histogram>) {
            leaf = Histogram(16);
            for (u64 s = 1; s <= n % 7 + 2; ++s)
                leaf.sample(s, n);
        } else {
            leaf = static_cast<M>(1000 * n) + static_cast<M>(0.375);
        }
    };
    forEachStatLeaf(stats, fill, 2);
    return stats;
}

TEST(ConfigLeaves, EveryLeafChangesTheKey)
{
    for (const char *preset : {"small", "medium", "big"}) {
        const CoreConfig base = coreByName(preset);
        const std::string key = SimDriver::configKey(base);
        const std::vector<std::string> paths = leafPaths(base);
        ASSERT_GE(paths.size(), 40u);
        for (size_t k = 0; k < paths.size(); ++k) {
            const CoreConfig changed = withLeafBumped(base, k);
            EXPECT_NE(SimDriver::configKey(changed), key)
                << preset << " " << paths[k];
        }
    }
}

TEST(ConfigLeaves, EveryProcLeafChangesTheProcKey)
{
    ProcConfig base;
    base.num_cores = 2;
    const std::string key = SimDriver::procConfigKey(base);
    const std::vector<std::string> paths = leafPaths(base);
    for (size_t k = 0; k < paths.size(); ++k)
        EXPECT_NE(SimDriver::procConfigKey(withLeafBumped(base, k)), key)
            << paths[k];
}

TEST(ConfigLeaves, MultiLeafDrawsGetDistinctKeys)
{
    // 200 seeded draws of 2-4 distinct leaves, bumped together; a draw
    // configError refuses is skipped and not counted (more than half
    // are). Two draws that change different leaf sets (the base
    // changes none) must differ in procConfigKey, and in configKey
    // when both change only core leaves.
    ProcConfig base;
    base.num_cores = 2;
    const std::vector<std::string> paths = leafPaths(base);
    using Seen = std::map<std::string, std::set<size_t>>;
    Seen by_proc_key{{SimDriver::procConfigKey(base), {}}};
    Seen by_core_key{{SimDriver::configKey(base.core), {}}};
    auto names = [&paths](const std::set<size_t> &leaves) {
        std::string out = "{";
        for (size_t k : leaves)
            out += (out.size() > 1 ? "," : "") + paths[k];
        return out + "}";
    };
    auto expectOwnKey = [&names](Seen &seen, const std::string &key,
                                 const std::set<size_t> &leaves) {
        const auto [it, fresh] = seen.try_emplace(key, leaves);
        EXPECT_TRUE(fresh || it->second == leaves)
            << names(it->second) << " and " << names(leaves)
            << " share a key";
    };
    Rng rng(28);
    unsigned kept = 0;
    for (unsigned draw = 0; kept < 200; ++draw) {
        ASSERT_LT(draw, 1000u) << "configError refuses most draws";
        std::set<size_t> leaves;
        const u64 count = rng.range(2, 4);
        while (leaves.size() < count)
            leaves.insert(rng.below(paths.size()));
        ProcConfig config = base;
        for (size_t k : leaves)
            config = withLeafBumped(config, k);
        if (!configError(config).empty())
            continue;
        ++kept;
        expectOwnKey(by_proc_key, SimDriver::procConfigKey(config), leaves);
        if (std::ranges::all_of(leaves, [&paths](size_t k) {
                return paths[k].starts_with("core.");
            }))
            expectOwnKey(by_core_key, SimDriver::configKey(config.core),
                         leaves);
    }
}

/** Expect the parser to refuse @p fc, naming @p path. */
void
expectFixtureRejected(const fuzz::FuzzCase &fc, const std::string &path)
{
    try {
        fuzz::parseCase(fuzz::serializeCase(fc));
        ADD_FAILURE() << "fixture with bad " << path << " parsed";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(path + "="),
                  std::string::npos)
            << e.what();
    }
}

TEST(ConfigLeaves, EveryLeafRoundTripsThroughTheFixture)
{
    fuzz::FuzzCase fc;
    fc.prog.resize(1);
    const std::vector<std::string> paths = leafPaths(fc.config.core);
    for (size_t k = 0; k < paths.size(); ++k) {
        fuzz::FuzzCase changed = fc;
        const auto in_range = withLeafChangedInRange(fc.config.core, k);
        if (!in_range) {
            changed.config.core = withLeafBumped(fc.config.core, k);
            expectFixtureRejected(changed, paths[k]);
            continue;
        }
        changed.config.core = *in_range;
        const std::string text = fuzz::serializeCase(changed);
        const fuzz::FuzzCase back = fuzz::parseCase(text);
        EXPECT_EQ(SimDriver::configKey(back.config.core),
                  SimDriver::configKey(changed.config.core))
            << paths[k];
        EXPECT_EQ(fuzz::serializeCase(back), text) << paths[k];
    }
}

TEST(ConfigLeaves, EveryProcLeafRoundTripsThroughTheFixture)
{
    fuzz::FuzzCase fc;
    fc.config.num_cores = 2;
    fc.prog.resize(1);
    const std::vector<std::string> paths = leafPaths(fc.config);
    for (size_t k = 0; k < paths.size(); ++k) {
        fuzz::FuzzCase changed = fc;
        const auto in_range = withLeafChangedInRange(fc.config, k);
        changed.config = in_range ? *in_range : withLeafBumped(fc.config, k);
        changed.extra_progs.assign(changed.config.num_cores - 1, fc.prog);
        if (!in_range) {
            expectFixtureRejected(changed, paths[k]);
            continue;
        }
        const std::string text = fuzz::serializeCase(changed);
        const fuzz::FuzzCase back = fuzz::parseCase(text);
        EXPECT_EQ(SimDriver::procConfigKey(back.config),
                  SimDriver::procConfigKey(changed.config))
            << paths[k];
        EXPECT_EQ(fuzz::serializeCase(back), text) << paths[k];
    }
}

TEST(ConfigLeaves, SetReachesEveryLeaf)
{
    // redsoc_sim's --set, one leaf at a time: a core leaf must change
    // configKey (the single-core run-cache key), any other leaf the
    // processor key.
    ProcConfig base;
    base.num_cores = 2;
    const std::vector<std::string> paths = leafPaths(base);
    for (size_t k = 0; k < paths.size(); ++k) {
        const std::string text = leafTexts(withLeafBumped(base, k))[k];
        ProcConfig set = base;
        ASSERT_EQ(setLeaf(set, paths[k] + "=" + text), "") << paths[k];
        if (paths[k].starts_with("core."))
            EXPECT_NE(SimDriver::configKey(set.core),
                      SimDriver::configKey(base.core))
                << paths[k];
        else
            EXPECT_NE(SimDriver::procConfigKey(set),
                      SimDriver::procConfigKey(base))
                << paths[k];
    }
    for (const char *bad : {"core.bogus=1", "core.egpw", "=1",
                            "core.egpw=2", "core.rs_design=bogus",
                            "core.slack_threshold_ticks=12junk"})
        EXPECT_NE(setLeaf(base, bad), "") << bad;
}

/** One config out of range: the --set tokens that make it, applied to
 *  a preset, and the leaf configError must name. */
struct BadLeaf
{
    std::vector<const char *> sets;
    const char *path;
};

/** Every range configError states for a core, one case or more each.
 *  The first nine crashed or hung the core before the ranges were
 *  checked: a SIGFPE on the epoch modulo, a watchdog "deadlock", a
 *  panic on an overbooked FU pool. */
const BadLeaf kBadCores[] = {
    {{"dynamic_threshold=1", "threshold_epoch=0"}, "threshold_epoch"},
    {{"frontend_width=0"}, "frontend_width"},
    {{"commit_width=0"}, "commit_width"},
    {{"alu_units=0"}, "alu_units"},
    {{"simd_units=0"}, "simd_units"},
    {{"fp_units=0"}, "fp_units"},
    {{"mem_ports=0"}, "mem_ports"},
    {{"rob_entries=0"}, "rob_entries"},
    {{"rs_entries=0"}, "rs_entries"},
    {{"lsq_entries=0"}, "lsq_entries"},
    {{"ci_precision_bits=0"}, "ci_precision_bits"},
    {{"ci_precision_bits=9"}, "ci_precision_bits"},
    {{"ci_precision_bits=2", "slack_threshold_ticks=5"},
     "slack_threshold_ticks"},
    {{"no_commit_horizon=0"}, "no_commit_horizon"},
    {{"memory.l1.size_bytes=0"}, "memory.l1.size_bytes"},
    {{"memory.l2.size_bytes=8589934592"}, "memory.l2.size_bytes"},
    {{"memory.l1.line_bytes=48"}, "memory.l1.line_bytes"},
    {{"memory.l1.assoc=0"}, "memory.l1.assoc"},
    {{"memory.l1.assoc=3"}, "memory.l1.size_bytes"},
    {{"memory.l1_latency=0"}, "memory.l1_latency"},
    {{"memory.offcore_latency_scale=0.5"},
     "memory.offcore_latency_scale"},
    {{"memory.offcore_latency_scale=nan"},
     "memory.offcore_latency_scale"},
    {{"memory.prefetcher.entries=3"}, "memory.prefetcher.entries"},
    {{"timing.clock_period_ps=0"}, "timing.clock_period_ps"},
    {{"timing.pvt_derate=0"}, "timing.pvt_derate"},
    {{"timing.pvt_derate=1.5"}, "timing.pvt_derate"},
    {{"branch_pred.table_bits=0"}, "branch_pred.table_bits"},
    {{"branch_pred.table_bits=25"}, "branch_pred.table_bits"},
    {{"width_pred.entries=3"}, "width_pred.entries"},
    {{"width_pred.confidence_bits=0"}, "width_pred.confidence_bits"},
    {{"width_pred.confidence_bits=9"}, "width_pred.confidence_bits"},
    {{"last_arrival.entries=3"}, "last_arrival.entries"},
};

/** The ranges a ProcConfig adds to its core template's. */
const BadLeaf kBadProcs[] = {
    {{"num_cores=0"}, "num_cores"},
    {{"num_cores=65"}, "num_cores"},
    {{"llc.line_bytes=128"}, "llc.line_bytes"},
    {{"llc.size_bytes=0"}, "llc.size_bytes"},
    {{"llc.assoc=0"}, "llc.assoc"},
    {{"dram.banks=0"}, "dram.banks"},
    {{"core.alu_units=0"}, "core.alu_units"},
};

template <class T>
T
applied(T config, const BadLeaf &bad)
{
    for (const char *token : bad.sets)
        EXPECT_EQ(setLeaf(config, token), "") << token;
    return config;
}

TEST(ConfigRanges, PresetsAreInRange)
{
    for (const char *preset : {"small", "medium", "big"})
        for (const SchedMode mode :
             {SchedMode::Baseline, SchedMode::ReDSOC, SchedMode::MOS})
            EXPECT_EQ(configError(configFor(preset, mode)), "") << preset;
    EXPECT_EQ(configError(ProcConfig{}), "");
}

TEST(ConfigRanges, CoreRefusesEachBadLeafUnderBothKernels)
{
    for (const BadLeaf &bad : kBadCores) {
        for (const SchedKernel kernel :
             {SchedKernel::Scan, SchedKernel::Event}) {
            CoreConfig cfg = applied(mediumCore(), bad);
            cfg.sched_kernel = kernel;
            const std::string want = std::string(bad.path) + "=";
            EXPECT_TRUE(configError(cfg).starts_with(want))
                << configError(cfg);
            try {
                OooCore core(cfg);
                ADD_FAILURE() << "core built with bad " << bad.path;
            } catch (const std::logic_error &e) {
                EXPECT_NE(std::string(e.what()).find(want),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(ConfigRanges, ProcessorRefusesEachBadLeaf)
{
    ProcConfig good;
    good.num_cores = 2;
    for (const BadLeaf &bad : kBadProcs) {
        const ProcConfig cfg = applied(good, bad);
        EXPECT_TRUE(configError(cfg).starts_with(std::string(bad.path) +
                                                 "="))
            << configError(cfg);
        EXPECT_THROW(validateProcConfig(cfg), std::logic_error)
            << bad.path;
    }
}

TEST(ConfigRanges, FixtureParserRefusesEachBadLeaf)
{
    fuzz::FuzzCase fc;
    fc.prog.resize(1);
    for (const BadLeaf &bad : kBadCores) {
        fuzz::FuzzCase changed = fc;
        changed.config.core = applied(fc.config.core, bad);
        expectFixtureRejected(changed, bad.path);
    }
    // Two cores (a proc line); the core-count cases are edited proc
    // lines in test_fuzz_regress.
    fc.config.num_cores = 2;
    fc.extra_progs.assign(1, fc.prog);
    for (const BadLeaf &bad : kBadProcs) {
        fuzz::FuzzCase changed = fc;
        changed.config = applied(fc.config, bad);
        if (changed.config.num_cores == 2)
            expectFixtureRejected(changed, bad.path);
    }
}

TEST(StatsLeaves, DistinctValuesRoundTripThroughTheCodec)
{
    const CoreStats stats = distinctStats<CoreStats>();
    const auto back =
        deserializeStats(serializeStats("key", stats), "key");
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(firstDifference(stats, *back), "");
    EXPECT_EQ(back->sim_seconds, stats.sim_seconds);
    EXPECT_EQ(serializeStats("key", *back), serializeStats("key", stats));

    const ProcStats pstats = distinctStats<ProcStats>();
    const auto pback =
        deserializeProcStats(serializeProcStats("key", pstats), "key");
    ASSERT_TRUE(pback.has_value());
    EXPECT_EQ(firstDifference(pstats, *pback), "");
    for (size_t i = 0; i < pstats.cores.size(); ++i)
        EXPECT_EQ(pback->cores[i].sim_seconds, pstats.cores[i].sim_seconds);
    EXPECT_EQ(serializeProcStats("key", *pback),
              serializeProcStats("key", pstats));
}

/** For every leaf k: the codec carries a change to it, and the
 *  comparator names exactly it (sim_seconds: never compared). */
template <class T, class Serialize>
void
expectEveryLeafNamed(Serialize serialize)
{
    const T base = distinctStats<T>();
    const std::vector<std::string> paths = leafPaths(base);
    for (size_t k = 0; k < paths.size(); ++k) {
        const T changed = withLeafBumped(base, k);
        EXPECT_NE(serialize(changed), serialize(base)) << paths[k];
        const bool wall_clock = paths[k].ends_with("sim_seconds");
        EXPECT_EQ(firstDifference(base, changed),
                  wall_clock ? "" : paths[k]);
    }
}

TEST(StatsLeaves, ComparatorNamesEveryLeaf)
{
    expectEveryLeafNamed<CoreStats>(
        [](const CoreStats &s) { return serializeStats("k", s); });
    expectEveryLeafNamed<ProcStats>(
        [](const ProcStats &s) { return serializeProcStats("k", s); });
}

} // namespace
} // namespace redsoc
