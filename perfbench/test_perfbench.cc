/**
 * @file
 * Tests of the benchmark's own code: the tail-percentile rule, seeded
 * op order and digest, digest independence from the client count, the
 * result checks on small populations, and metric and workload names.
 */

#include <filesystem>
#include <map>
#include <fstream>
#include <regex>
#include <sstream>

#include <gtest/gtest.h>

#include "harness.h"
#include "metrics.h"
#include "workloads.h"

using namespace perfbench;

namespace {

const std::string kWorkDir = "perfbench_test_work";

/** One untraced round; returns the digest and expects no failures. */
u64
digestOf(Workload &w)
{
    const RunSummary run = runRounds(w, 1, 1, false);
    EXPECT_EQ(run.failed, 0u);
    EXPECT_EQ(run.attempted, w.opsPerRound());
    EXPECT_EQ(w.slots().filled(), w.slots().size());
    return w.slots().digest();
}

std::vector<GridPoint>
smallGrid()
{
    return sweepGrid({"act"}, {"small", "medium"});
}

/** The "name" values of one top-level array of BENCHMARK.json, and
 *  the units when the entries have them. */
std::vector<std::pair<std::string, std::string>>
jsonEntries(const std::string &json, const std::string &key)
{
    const size_t at = json.find("\"" + key + "\"");
    EXPECT_NE(at, std::string::npos) << key;
    const size_t open = json.find('[', at);
    const size_t close = json.find(']', open);
    const std::string body = json.substr(open, close - open);
    std::vector<std::pair<std::string, std::string>> out;
    const std::regex entry(
        R"re(\{[^}]*"name":\s*"([^"]*)"(?:[^}]*"unit":\s*"([^"]*)")?[^}]*\})re");
    for (std::sregex_iterator it(body.begin(), body.end(), entry), end;
         it != end; ++it)
        out.emplace_back((*it)[1].str(), (*it)[2].str());
    return out;
}

} // namespace

TEST(TailRule, LeavesAtLeastTenBeyondAndIsTheHighestSuch)
{
    const std::vector<double> ladder = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
    for (size_t n = 20; n <= 30000; n += (n < 2000 ? 1 : 97)) {
        const double p = tailPercentile(n);
        ASSERT_GE(samplesBeyond(n, p), 10u) << n;
        for (double higher : ladder) {
            if (higher > p) {
                ASSERT_LT(samplesBeyond(n, higher), 10u) << n << " " << higher;
            }
        }
    }
    EXPECT_EQ(tailPercentile(45), 75.0);     // whatif's 45 members
    EXPECT_EQ(samplesBeyond(45, 75.0), 11u);
    EXPECT_EQ(tailPercentile(270), 95.0);    // sweep-cold's 270 members
    EXPECT_EQ(samplesBeyond(270, 95.0), 13u);
    EXPECT_EQ(tailPercentile(1350), 99.0);
    EXPECT_EQ(tailPercentile(10000), 99.9);  // exact rounding
    EXPECT_EQ(samplesBeyond(10000, 99.9), 10u);
    EXPECT_EQ(tailPercentile(5), 50.0);
}

TEST(TailRule, NearestRankPercentile)
{
    const std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    EXPECT_EQ(percentile(v, 50.0), 5.0);
    EXPECT_EQ(percentile(v, 90.0), 9.0);
    EXPECT_EQ(percentile(v, 99.9), 10.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(BestOfRounds, KeepsEachMembersFastestOp)
{
    const std::vector<OpSample> ops = {
        {2, 5.0, 20}, {0, 3.0, 10}, {2, 4.0, 20}, {0, 6.0, 10}, {1, 9.0, 30}};
    const std::vector<OpSample> best = bestPerMember(ops);
    ASSERT_EQ(best.size(), 3u);
    EXPECT_EQ(best[0].member, 0u);
    EXPECT_EQ(best[0].ms, 3.0);
    EXPECT_EQ(best[1].ms, 9.0);
    EXPECT_EQ(best[2].ms, 4.0);

    RunSummary run;
    run.ops = ops;
    run.setup_s = {0.3, 0.1, 0.2};
    run.clients = 2;
    run.wall_s = 1.0;
    run.busy_s = 1.5;
    const MetricValues v = endToEnd(run, 64.0);
    // One pass at the best times: 16 ms over two clients = 8 ms.
    EXPECT_DOUBLE_EQ(v.at("ops_per_s"), 3 / 0.008);
    EXPECT_DOUBLE_EQ(v.at("sim_mips"), 60 / 0.008 * 1e-6);
    EXPECT_EQ(v.at("op_p50_ms"), 4.0);
    EXPECT_EQ(v.at("setup_s"), 0.1);
    EXPECT_EQ(v.at("parallel_efficiency"), 0.75);
}

TEST(Seeding, SameSeedSameOrder)
{
    const std::vector<size_t> a = permutation(7, 0, 270);
    EXPECT_EQ(a, permutation(7, 0, 270));
    EXPECT_NE(a, permutation(8, 0, 270));
    EXPECT_NE(a, permutation(7, 1, 270));
    std::vector<size_t> sorted = a;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size(); ++i)
        ASSERT_EQ(sorted[i], i);

    SweepCold x(kWorkDir + "/order-a", 11, smallGrid(), 1);
    SweepCold y(kWorkDir + "/order-b", 11, smallGrid(), 1);
    ASSERT_TRUE(x.setup(0));
    ASSERT_TRUE(y.setup(0));
    EXPECT_EQ(x.order(), y.order());
    x.teardown();
    y.teardown();
}

TEST(Digest, SameSeedSameDigest)
{
    SweepCold a(kWorkDir + "/seed-a", 3, smallGrid(), 1);
    SweepCold b(kWorkDir + "/seed-b", 3, smallGrid(), 1);
    const u64 da = digestOf(a);
    EXPECT_EQ(da, digestOf(b));
    // The digest is taken in population order, so the op order a seed
    // picks cannot change it either.
    SweepCold c(kWorkDir + "/seed-c", 4, smallGrid(), 1);
    EXPECT_EQ(da, digestOf(c));
}

TEST(Digest, SameAtOneAndTwoClients)
{
    SweepCold one(kWorkDir + "/cold-1", 5, smallGrid(), 1);
    SweepCold two(kWorkDir + "/cold-2", 5, smallGrid(), 2);
    EXPECT_EQ(digestOf(one), digestOf(two));
}

TEST(Checks, RepeatedRoundsAnswerIdentically)
{
    SweepCold cold(kWorkDir + "/rounds", 9, sweepGrid({"act"}, {"small"}), 2);
    const RunSummary run = runRounds(cold, 2, 2, false);
    EXPECT_EQ(run.attempted, 12u);
    EXPECT_EQ(run.failed, 0u);

    Whatif whatif(9, {"act"}, {"small"});
    const RunSummary w = runRounds(whatif, 2, 1, false);
    EXPECT_EQ(w.attempted, 2u);
    EXPECT_EQ(w.failed, 0u);
    ASSERT_EQ(w.ops.size(), 2u);
    EXPECT_GT(w.ops[0].committed, 0u);
}

TEST(Checks, TracedRoundsAndCensusPass)
{
    setTracing(true);
    SweepCold cold(kWorkDir + "/traced", 2, sweepGrid({"act"}, {"small"}), 2);
    const RunSummary run = runRounds(cold, 1, 1, true);
    const CensusResult census = runCensus(kWorkDir + "/traced");
    setTracing(false);
    EXPECT_EQ(run.attempted, 6u);
    EXPECT_EQ(run.failed, 0u);
    EXPECT_EQ(census.attempted, 13u); // 6 cold ops, 6 hits, 1 what-if
    EXPECT_EQ(census.failed, 0u);

    // Every layer call the per-layer metrics read was timed.
    std::map<std::string, size_t> calls;
    for (const Span &s : collectSpans())
        ++calls[s.name];
    for (const char *name :
         {"driver.open", "driver.run", "driver.hit", "core.run",
          "core.run_traced", "trace.run", "run_cache.miss", "run_cache.store",
          "run_cache.load", "critpath.plan", "critpath.sweep"})
        EXPECT_GT(calls[name], 0u) << name;
    EXPECT_EQ(calls["op.sweep-cold"], 12u);
    EXPECT_EQ(calls["driver.hit"], 6u);
}

TEST(Checks, SlotsRejectADifferentRepeat)
{
    ResultSlots slots(2);
    EXPECT_TRUE(slots.record(0, "a", 1, 2));
    EXPECT_TRUE(slots.record(0, "a", 1, 2));
    EXPECT_FALSE(slots.record(0, "b", 1, 2));
    EXPECT_EQ(slots.filled(), 1u);
    const u64 partial = slots.digest();
    EXPECT_TRUE(slots.record(1, "c", 3, 4));
    EXPECT_NE(partial, slots.digest());
    EXPECT_EQ(slots.counts(), std::make_pair(u64{4}, u64{6}));
}

TEST(Names, MatchTheAllowedPattern)
{
    const std::regex ok("[A-Za-z0-9_.-]+");
    for (const std::string &w : workloadNames())
        EXPECT_TRUE(std::regex_match(w, ok)) << w;
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricDef &d : *defs) {
            EXPECT_TRUE(std::regex_match(d.name, ok)) << d.name;
            EXPECT_TRUE(std::regex_match(d.unit, std::regex("[A-Za-z0-9_/%.-]+")))
                << d.unit;
        }
    }
}

TEST(Names, AgreeWithBenchmarkJson)
{
    std::ifstream in(PERFBENCH_JSON);
    ASSERT_TRUE(in.good()) << PERFBENCH_JSON;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();

    std::vector<std::string> workloads;
    for (const auto &[name, unit] : jsonEntries(json, "workloads"))
        workloads.push_back(name);
    EXPECT_EQ(workloads, workloadNames());

    auto same = [&json](const std::string &key,
                        const std::vector<MetricDef> &defs) {
        const auto entries = jsonEntries(json, key);
        ASSERT_EQ(entries.size(), defs.size()) << key;
        for (size_t i = 0; i < defs.size(); ++i) {
            EXPECT_EQ(entries[i].first, defs[i].name) << key;
            EXPECT_EQ(entries[i].second, defs[i].unit) << defs[i].name;
        }
    };
    same("end_to_end", endToEndMetrics());
    same("per_layer", perLayerMetrics());
}

TEST(Result, HasExactlyTheContractKeys)
{
    MetricValues values;
    for (const MetricDef &d : endToEndMetrics())
        values[d.name] = 1.25;
    const std::string line =
        resultJson(true, 3, 0, endToEndMetrics(), values);
    EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 3, "
                         "\"failed\": 0, \"metrics\": {",
                         0),
              0u);
    EXPECT_NE(line.find("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"),
              std::string::npos);
    values.erase("setup_s");
    EXPECT_THROW(resultJson(true, 3, 0, endToEndMetrics(), values),
                 std::logic_error);
}
