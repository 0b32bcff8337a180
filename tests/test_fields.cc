/**
 * @file
 * Per-leaf properties of the field visitors (common/fields.h). The
 * run-cache key, the stats codec, the fuzz fixture's config line and
 * the equivalence comparator are all derived from the visitors; these
 * tests change one leaf at a time and check that each derived form
 * sees the change:
 *
 *  - every CoreConfig / ProcConfig leaf changes configKey /
 *    procConfigKey and round-trips through the fixture text;
 *  - every CoreStats / ProcStats leaf, set to a distinct non-default
 *    value, round-trips through the codec, and firstDifference names
 *    exactly that leaf when only it differs.
 */

#include <cmath>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

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

/** Change one leaf to a different valid value of its type. */
template <class M>
void
bump(M &v)
{
    if constexpr (std::is_same_v<M, bool>)
        v = !v;
    else if constexpr (std::is_same_v<M, std::string>)
        v += "x";
    else if constexpr (std::is_enum_v<M>)
        v = static_cast<M>(static_cast<int>(v) == 0 ? 1 : 0);
    else if constexpr (std::is_floating_point_v<M>)
        v = std::nextafter(v, v + 1.0); // the smallest possible step
    else if constexpr (std::is_same_v<M, Histogram>)
        v.sample(1);
    else
        ++v;
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
withLeafBumped(T obj, size_t k, size_t slices = 2)
{
    size_t i = 0;
    auto change = [&](const std::string &, auto &leaf) {
        if (i++ == k)
            bump(leaf);
    };
    forEachStatLeaf(obj, change, slices);
    return obj;
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

TEST(ConfigLeaves, EveryLeafRoundTripsThroughTheFixture)
{
    fuzz::FuzzCase fc;
    fc.prog.resize(1);
    const std::vector<std::string> paths = leafPaths(fc.config.core);
    for (size_t k = 0; k < paths.size(); ++k) {
        fuzz::FuzzCase changed = fc;
        changed.config.core = withLeafBumped(fc.config.core, k);
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
        changed.config = withLeafBumped(fc.config, k);
        changed.extra_progs.assign(changed.config.num_cores - 1, fc.prog);
        const std::string text = fuzz::serializeCase(changed);
        const fuzz::FuzzCase back = fuzz::parseCase(text);
        EXPECT_EQ(SimDriver::procConfigKey(back.config),
                  SimDriver::procConfigKey(changed.config))
            << paths[k];
        EXPECT_EQ(fuzz::serializeCase(back), text) << paths[k];
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
