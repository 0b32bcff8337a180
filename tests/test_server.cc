/**
 * @file
 * Tests for the sweep server (src/server/, DESIGN.md §15) and the
 * run-cache failure-path hardening that ships with it:
 *
 *  1. wire protocol: strict JSON parse/quote round trips;
 *  2. config codec: every grid config survives text round trip with
 *     an identical cache fingerprint;
 *  3. MpscFreeStack: concurrent push / single harvest loses nothing
 *     and never double-queues a node;
 *  4. ShardedResultCache: claim/publish dedup, LRU eviction into the
 *     recycle stack, failure retry;
 *  5. JobQueue: all-or-nothing backpressure, discard, slot recycling;
 *  6. server differential: a real daemon (in-process SweepServer +
 *     SweepClient over AF_UNIX) returns bit-identical stats to a
 *     local SimDriver across the full scheduler acceptance grid,
 *     core and multi-core points alike;
 *  7. offload: REDSOC_SWEEP_SERVER makes SimDriver route cache
 *     misses through the daemon, transparently and bit-identically;
 *  8. run-cache hardening: multi-process store races leave no torn
 *     files and no stale .tmp-* litter, interrupted sweeps leave
 *     every cache entry readable, stale staging files are GC'd.
 *
 * This binary has its own main(): the multi-process tests re-exec
 * /proc/self/exe in child modes selected by REDSOC_TEST_CHILD.
 */

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/shutdown.h"
#include "helpers.h"
#include "sched_grid.h"
#include "server/config_codec.h"
#include "server/job_queue.h"
#include "server/offload.h"
#include "server/recycle_queue.h"
#include "server/shard_cache.h"
#include "server/sweep_client.h"
#include "server/sweep_server.h"
#include "server/wire.h"
#include "sim/driver.h"
#include "sim/run_cache.h"

namespace fs = std::filesystem;

using namespace redsoc;

namespace {

constexpr SeqNum kTestOps = 150'000;

std::string
canon(CoreStats stats)
{
    stats.sim_seconds = 0.0;
    return serializeStats("canon", stats);
}

std::string
canonProc(ProcStats stats)
{
    for (CoreStats &core : stats.cores)
        core.sim_seconds = 0.0;
    return serializeProcStats("canon", stats);
}

std::string
makeTempDir()
{
    std::string tmpl = (fs::temp_directory_path() /
                        "redsoc-server-test-XXXXXX").string();
    char *dir = ::mkdtemp(tmpl.data());
    EXPECT_NE(dir, nullptr);
    return tmpl;
}

class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const std::string &value) : name_(name)
    {
        ::setenv(name, value.c_str(), 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char *name_;
};

/** Short AF_UNIX path (sun_path is ~108 bytes; /tmp keeps it safe). */
std::string
makeSocketPath()
{
    static std::atomic<unsigned> counter{0};
    return (fs::temp_directory_path() /
            ("redsoc-test-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter.fetch_add(1)) + ".sock"))
        .string();
}

/** Deterministic stats that differ per variant (store-race payloads
 *  must be distinguishable byte-for-byte). */
CoreStats
statsVariant(unsigned variant)
{
    ProgramBuilder b("variant");
    test::emitLogicChain(b, 100 + 50 * variant);
    b.halt();
    const Trace trace = test::makeTrace(b);
    return test::runCore(trace, configFor("small", SchedMode::ReDSOC));
}

/** Fork + re-exec this binary in @p mode with extra environment. */
pid_t
spawnChild(const std::string &mode,
           const std::vector<std::pair<std::string, std::string>> &env)
{
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    ::setenv("REDSOC_TEST_CHILD", mode.c_str(), 1);
    for (const auto &kv : env)
        ::setenv(kv.first.c_str(), kv.second.c_str(), 1);
    ::execl("/proc/self/exe", "test_server_child",
            static_cast<char *>(nullptr));
    ::_exit(127);
}

int
waitChild(pid_t pid)
{
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status));
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

unsigned
countTmpFiles(const std::string &dir)
{
    unsigned n = 0;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().filename().string().rfind(".tmp-", 0) == 0)
            ++n;
    return n;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

} // namespace

// ---------------------------------------------------------------------
// 1. Wire protocol
// ---------------------------------------------------------------------

TEST(Wire, ParsesObjectsArraysAndScalars)
{
    const auto v = parseJson(
        "{\"op\":\"submit\",\"n\":42,\"neg\":-1.5,\"b\":true,"
        "\"s\":\"a\\nb\\u0041\",\"arr\":[1,2,3],\"nul\":null}");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->getStr("op", ""), "submit");
    EXPECT_EQ(v->getU64("n", 0), 42u);
    EXPECT_TRUE(v->getBool("b", false));
    EXPECT_EQ(v->getStr("s", ""), "a\nbA");
    const JsonValue *arr = v->get("arr");
    ASSERT_NE(arr, nullptr);
    ASSERT_EQ(arr->arr.size(), 3u);
    EXPECT_EQ(arr->arr[1].uint, 2u);
}

TEST(Wire, RejectsMalformedInput)
{
    EXPECT_FALSE(parseJson("").has_value());
    EXPECT_FALSE(parseJson("{").has_value());
    EXPECT_FALSE(parseJson("{\"a\":1} trailing").has_value());
    EXPECT_FALSE(parseJson("{'a':1}").has_value());
    EXPECT_FALSE(parseJson("{\"a\":01}").has_value() &&
                 parseJson("{\"a\":01}")->get("a") == nullptr);
}

TEST(Wire, QuoteRoundTripsThroughParse)
{
    const std::string nasty =
        "line1\nline2\ttab \"quoted\" back\\slash \x01";
    const auto v = parseJson("{\"s\":" + jsonQuote(nasty) + "}");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->getStr("s", ""), nasty);
}

// ---------------------------------------------------------------------
// 2. Config codec
// ---------------------------------------------------------------------

TEST(ConfigCodec, GridConfigsRoundTripWithIdenticalFingerprint)
{
    for (const std::string core : {"small", "medium", "big"}) {
        for (const auto &[tag, cfg] : test::differentialConfigs(core)) {
            const std::string text = serializeCoreConfig(cfg);
            const auto back = deserializeCoreConfig(text);
            ASSERT_TRUE(back.has_value()) << core << "/" << tag;
            EXPECT_EQ(SimDriver::configKey(*back),
                      SimDriver::configKey(cfg))
                << core << "/" << tag;
        }
    }
}

TEST(ConfigCodec, ProcConfigRoundTrips)
{
    ProcConfig cfg;
    cfg.num_cores = 3;
    cfg.core = configFor("small", SchedMode::ReDSOC);
    cfg.llc.size_bytes = 512 * 1024;
    cfg.dram.banks = 4;
    cfg.share_address_space = true;
    const auto back = deserializeProcConfig(serializeProcConfig(cfg));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(SimDriver::procConfigKey(*back),
              SimDriver::procConfigKey(cfg));
}

TEST(ConfigCodec, RejectsTruncatedAndTrailingText)
{
    const std::string text =
        serializeCoreConfig(configFor("small", SchedMode::ReDSOC));
    EXPECT_FALSE(deserializeCoreConfig("").has_value());
    EXPECT_FALSE(
        deserializeCoreConfig(text.substr(0, text.size() / 2))
            .has_value());
    EXPECT_FALSE(deserializeCoreConfig(text + "extra 1\n").has_value());
    EXPECT_FALSE(deserializeProcConfig(text).has_value());
}

// ---------------------------------------------------------------------
// 3. MpscFreeStack
// ---------------------------------------------------------------------

namespace {

struct TestNode
{
    unsigned id = 0;
    TestNode *recycle_next = nullptr;
    std::atomic<bool> recycle_queued{false};
    std::atomic<unsigned> harvests{0};
};

} // namespace

TEST(MpscFreeStack, ConcurrentPushersSingleHarvester)
{
    constexpr unsigned kThreads = 8;
    constexpr unsigned kPerThread = 500;
    std::vector<std::unique_ptr<TestNode>> nodes;
    for (unsigned i = 0; i < kThreads * kPerThread; ++i) {
        nodes.push_back(std::make_unique<TestNode>());
        nodes.back()->id = i;
    }

    MpscFreeStack<TestNode> stack;
    std::atomic<unsigned> harvested{0};
    std::atomic<unsigned> pushed{0};
    std::atomic<unsigned> repushed_unharvested{0};
    std::atomic<bool> done{0};

    std::vector<std::thread> pushers;
    for (unsigned t = 0; t < kThreads; ++t) {
        pushers.emplace_back([&, t] {
            for (unsigned i = 0; i < kPerThread; ++i) {
                TestNode *n = nodes[t * kPerThread + i].get();
                pushed += stack.push(n) ? 1u : 0u;
                // Double-push must be a no-op while queued. It succeeds
                // only once the consumer has harvested and released
                // the node between the two pushes.
                if (stack.push(n)) {
                    ++pushed;
                    if (n->harvests.load() == 0)
                        ++repushed_unharvested;
                }
            }
        });
    }
    // Single consumer racing the pushers, as the shard lock holder
    // does: harvest chains and count.
    std::thread consumer([&] {
        while (!done.load(std::memory_order_acquire) || !stack.empty()) {
            for (TestNode *n = stack.harvest(); n != nullptr;) {
                TestNode *next = n->recycle_next;
                n->harvests.fetch_add(1);
                n->recycle_queued.store(false,
                                        std::memory_order_release);
                harvested.fetch_add(1);
                n = next;
            }
        }
    });
    for (auto &t : pushers)
        t.join();
    done.store(true, std::memory_order_release);
    consumer.join();

    // Nothing is lost or harvested twice: every node's first push
    // succeeds, and every successful push is harvested exactly once.
    EXPECT_GE(pushed.load(), kThreads * kPerThread);
    EXPECT_EQ(harvested.load(), pushed.load());
    EXPECT_EQ(repushed_unharvested.load(), 0u);
    for (const auto &n : nodes)
        EXPECT_GE(n->harvests.load(), 1u) << "node " << n->id;
    EXPECT_TRUE(stack.empty());
}

// ---------------------------------------------------------------------
// 4. ShardedResultCache
// ---------------------------------------------------------------------

TEST(ShardCache, FirstClaimsLaterWaitersShareTheFuture)
{
    ShardedResultCache cache({4, 16});
    auto first = cache.lookupOrClaim("k");
    ASSERT_TRUE(first.claimed);
    auto second = cache.lookupOrClaim("k");
    EXPECT_FALSE(second.claimed);
    cache.publish("k", "payload");
    EXPECT_EQ(first.future.get(), "payload");
    EXPECT_EQ(second.future.get(), "payload");

    const auto c = cache.counters();
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.entries, 1u);
}

TEST(ShardCache, EvictsLruIntoRecycleStackAndReusesNodes)
{
    // One shard, capacity 2: publishing 5 keys must evict 3 in LRU
    // order, and their nodes must come back through harvest.
    ShardedResultCache cache({1, 2});
    for (int i = 0; i < 5; ++i) {
        const std::string key = "k" + std::to_string(i);
        auto claim = cache.lookupOrClaim(key);
        ASSERT_TRUE(claim.claimed);
        cache.publish(key, "v" + std::to_string(i));
    }
    auto c = cache.counters();
    EXPECT_EQ(c.evictions, 3u);
    EXPECT_EQ(c.recycled, 3u);
    EXPECT_EQ(c.entries, 2u);
    // Nodes 4 and 5 were allocated after the first eviction round
    // began, so at least one allocation must have been served from
    // the harvested free list rather than fresh memory.
    EXPECT_GT(c.harvested, 0u);
    EXPECT_LT(c.allocated, 5u);

    // The survivors are the MRU two.
    EXPECT_FALSE(cache.lookupOrClaim("k4").claimed);
    EXPECT_FALSE(cache.lookupOrClaim("k3").claimed);
    // An evicted key re-claims (recomputes).
    EXPECT_TRUE(cache.lookupOrClaim("k0").claimed);
    cache.publish("k0", "again");
}

TEST(ShardCache, FailedClaimRetriesCleanly)
{
    ShardedResultCache cache({2, 8});
    auto claim = cache.lookupOrClaim("bad");
    ASSERT_TRUE(claim.claimed);
    auto waiter = cache.lookupOrClaim("bad");
    cache.fail("bad", std::make_exception_ptr(
                          std::runtime_error("simulated failure")));
    EXPECT_THROW(claim.future.get(), std::runtime_error);
    EXPECT_THROW(waiter.future.get(), std::runtime_error);

    // The key is gone: the next request claims fresh and can succeed.
    auto retry = cache.lookupOrClaim("bad");
    ASSERT_TRUE(retry.claimed);
    cache.publish("bad", "recovered");
    EXPECT_EQ(retry.future.get(), "recovered");
    EXPECT_EQ(cache.counters().failures, 1u);
}

// ---------------------------------------------------------------------
// 5. JobQueue
// ---------------------------------------------------------------------

TEST(JobQueue, BatchBackpressureIsAllOrNothing)
{
    // One worker parked on a gate so the backlog is controllable.
    JobQueue queue({4, 1});
    std::atomic<bool> gate{false};
    std::atomic<int> ran{0};
    auto job = [&] {
        while (!gate.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++ran;
    };

    std::vector<std::function<void()>> first(4, job);
    EXPECT_TRUE(queue.tryEnqueue(std::move(first)));
    // Backlog is 3 or 4 (the worker may have popped one): a batch of
    // 2 cannot fit under capacity 4 in either case.
    std::vector<std::function<void()>> second(2, job);
    EXPECT_FALSE(queue.tryEnqueue(std::move(second)));
    EXPECT_EQ(queue.counters().rejected_batches, 1u);

    gate.store(true);
    queue.drain();
    EXPECT_EQ(ran.load(), 4);
    // After draining there is room again.
    std::vector<std::function<void()>> third(2, job);
    EXPECT_TRUE(queue.tryEnqueue(std::move(third)));
    queue.drain();
    EXPECT_EQ(ran.load(), 6);
    const auto c = queue.counters();
    EXPECT_EQ(c.executed, 6u);
    EXPECT_EQ(c.queued, 0u);
    // Completed slots went through the lock-free recycle stack and
    // the second submit harvested them.
    EXPECT_EQ(c.slots_recycled, 6u);
    EXPECT_GT(c.slots_harvested, 0u);
    EXPECT_LT(c.slots_allocated, 7u);
}

TEST(JobQueue, DiscardPendingDropsOnlyQueuedJobs)
{
    JobQueue queue({8, 1});
    std::atomic<bool> gate{false};
    std::atomic<int> ran{0};
    // A destroyed-without-running closure must release resources: model
    // a claim guard with a shared_ptr whose deleter counts.
    std::atomic<int> destroyed{0};
    struct Guard
    {
        std::atomic<int> *counter;
        ~Guard() { counter->fetch_add(1); }
    };

    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 5; ++i) {
        auto guard = std::make_shared<Guard>();
        guard->counter = &destroyed;
        jobs.push_back([&, guard] {
            while (!gate.load())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            ++ran;
        });
    }
    ASSERT_TRUE(queue.tryEnqueue(std::move(jobs)));
    jobs.clear();

    // Give the single worker time to start job 0, then drop the rest.
    while (queue.counters().running == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const size_t dropped = queue.discardPending();
    EXPECT_EQ(dropped, 4u);
    EXPECT_EQ(destroyed.load(), 4); // queued closures destroyed now
    gate.store(true);
    queue.drain();
    EXPECT_EQ(ran.load(), 1);
    EXPECT_EQ(destroyed.load(), 5);
    EXPECT_EQ(queue.counters().discarded, 4u);
}

TEST(JobQueue, CloseRejectsNewWorkButDrainsBacklog)
{
    JobQueue queue({8, 2});
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> jobs(3, [&] { ++ran; });
    ASSERT_TRUE(queue.tryEnqueue(std::move(jobs)));
    queue.close();
    std::vector<std::function<void()>> late(1, [&] { ++ran; });
    EXPECT_FALSE(queue.tryEnqueue(std::move(late)));
    queue.drain();
    EXPECT_EQ(ran.load(), 3);
}

// ---------------------------------------------------------------------
// 6. Server differential (the tentpole acceptance test)
// ---------------------------------------------------------------------

namespace {

/** In-process daemon + connected client for one test. */
struct ServerFixture
{
    explicit ServerFixture(SweepServerOptions opts)
    {
        if (opts.socket_path.empty())
            opts.socket_path = makeSocketPath();
        server = std::make_unique<SweepServer>(opts);
        EXPECT_TRUE(server->start());
        client = SweepClient::connect(opts.socket_path);
        EXPECT_NE(client, nullptr);
    }

    ~ServerFixture()
    {
        client.reset();
        if (server) {
            server->closeQueue();
            server->waitQueueIdleFor(30'000);
            server->stop();
        }
    }

    std::unique_ptr<SweepServer> server;
    std::unique_ptr<SweepClient> client;
};

} // namespace

TEST(SweepServer, PingReportsProtocolVersion)
{
    SweepServerOptions opts;
    opts.workers = 1;
    ServerFixture fx(opts);
    ASSERT_NE(fx.client, nullptr);
    EXPECT_TRUE(fx.client->ping());
}

TEST(SweepServer, DifferentialAcrossFullSchedulerGrid)
{
    SweepServerOptions opts;
    opts.workers = 4;
    ServerFixture fx(opts);
    ASSERT_NE(fx.client, nullptr);

    // Submit the whole acceptance grid as one batch...
    const auto grid = test::differentialConfigs("small");
    std::vector<SweepClient::PointRequest> points;
    for (const auto &[tag, cfg] : grid) {
        SweepClient::PointRequest p;
        p.workload = "crc";
        p.config_text = serializeCoreConfig(cfg);
        p.max_ops = kTestOps;
        points.push_back(std::move(p));
    }
    const auto results = fx.client->runBatch(points);
    ASSERT_TRUE(results.has_value());
    ASSERT_EQ(results->size(), grid.size());

    // ...and require every point bit-identical to an in-process run.
    SimDriver local(kTestOps);
    for (size_t i = 0; i < grid.size(); ++i) {
        const auto &[tag, cfg] = grid[i];
        ASSERT_TRUE((*results)[i].ok)
            << tag << ": " << (*results)[i].error;
        const auto remote =
            deserializeStats((*results)[i].payload, (*results)[i].key);
        ASSERT_TRUE(remote.has_value()) << tag;
        EXPECT_EQ(canon(*remote), canon(local.run("crc", cfg))) << tag;
    }

    // Resubmitting the same batch is served from the shard cache.
    const auto again = fx.client->runBatch(points);
    ASSERT_TRUE(again.has_value());
    const std::string stats = fx.client->statsJson();
    const auto parsed = parseJson(stats);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->getU64("cache_hits", 0), grid.size());
    EXPECT_EQ(parsed->getU64("cache_misses", 1), grid.size());
}

TEST(SweepServer, ProcPointMatchesLocalProcessorRun)
{
    SweepServerOptions opts;
    opts.workers = 2;
    ServerFixture fx(opts);
    ASSERT_NE(fx.client, nullptr);

    ProcConfig cfg;
    cfg.num_cores = 2;
    cfg.core = configFor("small", SchedMode::ReDSOC);
    const std::vector<std::string> mix = {"crc", "act"};

    const auto remote = fx.client->runProcPoint(mix, cfg, kTestOps);
    ASSERT_TRUE(remote.has_value());
    SimDriver local(kTestOps);
    EXPECT_EQ(canonProc(*remote), canonProc(local.runProc(mix, cfg)));
}

TEST(SweepServer, BackpressureRejectsThenChunkedRetrySucceeds)
{
    // Capacity 2 with a single worker: a batch of 6 can never fit.
    SweepServerOptions opts;
    opts.queue_capacity = 2;
    opts.workers = 1;
    opts.retry_after_ms = 10;
    ServerFixture fx(opts);
    ASSERT_NE(fx.client, nullptr);

    std::vector<SweepClient::PointRequest> big;
    for (unsigned i = 0; i < 6; ++i) {
        SweepClient::PointRequest p;
        p.workload = "crc";
        CoreConfig cfg = configFor("small", SchedMode::ReDSOC);
        cfg.rob_entries = 32 + 2 * i; // distinct keys
        p.config_text = serializeCoreConfig(cfg);
        p.max_ops = kTestOps;
        big.push_back(std::move(p));
    }
    EXPECT_FALSE(fx.client->submit(big, 2).has_value());
    {
        const auto parsed = parseJson(fx.client->statsJson());
        ASSERT_TRUE(parsed.has_value());
        EXPECT_GE(parsed->getU64("busy_rejections", 0), 1u);
        // Rejected batches leave no half-claimed keys behind.
        EXPECT_EQ(parsed->getU64("cache_entries", 99), 0u);
    }

    // The same work in capacity-sized chunks goes through (submit
    // retries transparently while the backlog drains).
    for (size_t base = 0; base < big.size(); base += 2) {
        const std::vector<SweepClient::PointRequest> chunk(
            big.begin() + static_cast<long>(base),
            big.begin() + static_cast<long>(base + 2));
        const auto results = fx.client->runBatch(chunk);
        ASSERT_TRUE(results.has_value());
        for (const auto &r : *results)
            EXPECT_TRUE(r.ok) << r.error;
    }
}

TEST(SweepServer, DiskCacheReadThroughAndSharedKeys)
{
    const std::string dir = makeTempDir();

    // Seed the disk cache with an in-process run: the daemon must
    // serve the same key without resimulating, byte-identically.
    CoreConfig cfg = configFor("small", SchedMode::ReDSOC);
    std::string key, want;
    {
        ScopedEnv env("REDSOC_CACHE_DIR", dir);
        SimDriver seed(kTestOps);
        const CoreStats &stats = seed.run("crc", cfg);
        key = seed.runKey("crc", cfg);
        want = serializeStats(key, stats);
    }

    SweepServerOptions opts;
    opts.workers = 1;
    opts.cache_dir = dir;
    ServerFixture fx(opts);
    ASSERT_NE(fx.client, nullptr);

    SweepClient::PointRequest p;
    p.workload = "crc";
    p.config_text = serializeCoreConfig(cfg);
    p.max_ops = kTestOps;
    const auto results = fx.client->runBatch({p});
    ASSERT_TRUE(results.has_value());
    ASSERT_EQ(results->size(), 1u);
    ASSERT_TRUE((*results)[0].ok) << (*results)[0].error;
    EXPECT_EQ((*results)[0].key, key);
    // sim_seconds included: byte equality here proves the payload is
    // the seeded disk entry, not a fresh simulation of the point.
    EXPECT_EQ((*results)[0].payload, want);
}

// ---------------------------------------------------------------------
// 7. Transparent offload (bench_all --server path)
// ---------------------------------------------------------------------

TEST(SweepServer, DriverOffloadsThroughEnvTransparently)
{
    SweepServerOptions opts;
    opts.workers = 2;
    ServerFixture fx(opts);
    ASSERT_NE(fx.client, nullptr);

    const CoreConfig cfg = configFor("small", SchedMode::ReDSOC);
    std::string via_server;
    {
        ScopedEnv env("REDSOC_SWEEP_SERVER",
                      fx.server->socketPath());
        resetServerOffloadForTest();
        SimDriver driver(kTestOps);
        via_server = canon(driver.run("crc", cfg));
    }
    resetServerOffloadForTest(); // re-latch: the env var is gone

    // The daemon really served it...
    const auto parsed = parseJson(fx.client->statsJson());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_GE(parsed->getU64("points_submitted", 0), 1u);
    // ...and the result is bit-identical to a local simulation.
    SimDriver local(kTestOps);
    EXPECT_EQ(via_server, canon(local.run("crc", cfg)));
}

// ---------------------------------------------------------------------
// 8. Run-cache failure-path hardening (multi-process)
// ---------------------------------------------------------------------

TEST(RunCacheHardening, MultiProcessStoreRaceLeavesNoTornFiles)
{
    const std::string dir = makeTempDir();
    constexpr unsigned kChildren = 6;

    std::vector<pid_t> pids;
    for (unsigned i = 0; i < kChildren; ++i)
        pids.push_back(spawnChild(
            "store-race",
            {{"REDSOC_TEST_DIR", dir},
             {"REDSOC_TEST_VARIANT", std::to_string(i % 2)}}));
    for (pid_t pid : pids)
        EXPECT_EQ(waitChild(pid), 0);

    // No staging litter survives any interleaving...
    EXPECT_EQ(countTmpFiles(dir), 0u);

    // ...and the contended key holds exactly one writer's payload,
    // never an interleaving of two.
    RunCache cache(dir);
    const auto got = cache.load("racekey");
    ASSERT_TRUE(got.has_value());
    const std::string a = canon(statsVariant(0));
    const std::string b = canon(statsVariant(1));
    const std::string loaded = canon(*got);
    EXPECT_TRUE(loaded == a || loaded == b);

    // Per-child keys are intact too.
    for (unsigned v = 0; v < 2; ++v) {
        const auto own = cache.load("own-" + std::to_string(v));
        ASSERT_TRUE(own.has_value());
        EXPECT_EQ(canon(*own), v == 0 ? a : b);
    }
}

TEST(RunCacheHardening, InterruptedSweepLeavesEveryEntryReadable)
{
    const std::string dir = makeTempDir();
    const std::string marker = dir + "/.sweep-started";

    const pid_t pid = spawnChild("sweep-interrupt",
                                 {{"REDSOC_CACHE_DIR", dir},
                                  {"REDSOC_TEST_MARKER", marker}});
    // Wait for the child to enter its sweep and commit at least one
    // point (sanitized builds are an order of magnitude slower, so no
    // fixed sleep), then interrupt it mid-flight.
    auto countEntries = [&dir] {
        unsigned n = 0;
        for (const auto &entry : fs::directory_iterator(dir))
            if (entry.path().extension() == ".stats")
                ++n;
        return n;
    };
    for (unsigned spins = 0; !fs::exists(marker) && spins < 5000;
         ++spins)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(fs::exists(marker));
    for (unsigned spins = 0; countEntries() == 0 && spins < 60'000;
         ++spins)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_GT(countEntries(), 0u);
    ASSERT_EQ(::kill(pid, SIGINT), 0);
    const int rc = waitChild(pid);
    // 130 = interrupted mid-sweep; 0 = the sweep won the race. Both
    // are orderly exits; anything else is a crash.
    EXPECT_TRUE(rc == 130 || rc == 0) << "child exit " << rc;

    // The acceptance bar: zero .tmp-* files, zero unreadable entries.
    EXPECT_EQ(countTmpFiles(dir), 0u);
    unsigned entries = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.size() > 6 &&
            name.compare(name.size() - 6, 6, ".stats") == 0) {
            ++entries;
            EXPECT_TRUE(deserializeStats(readFile(entry.path()), "")
                            .has_value())
                << name;
        }
    }
    EXPECT_GT(entries, 0u);
}

TEST(RunCacheHardening, StaleTmpFilesAreSweptOnOpen)
{
    const std::string dir = makeTempDir();
    std::ofstream(dir + "/.tmp-1234-abc") << "orphaned staging data";
    std::ofstream(dir + "/.tmp-5678-def") << "more litter";
    std::ofstream(dir + "/keepme.stats") << "not a tmp file";
    ASSERT_EQ(countTmpFiles(dir), 2u);

    {
        // TTL 0: every stale file is already too old.
        ScopedEnv ttl("REDSOC_CACHE_TMP_TTL_S", "0");
        RunCache cache(dir);
    }
    EXPECT_EQ(countTmpFiles(dir), 0u);
    EXPECT_TRUE(fs::exists(dir + "/keepme.stats"));

    // With the default 1-hour TTL a fresh staging file survives (a
    // live writer's tmp must never be swept out from under it).
    std::ofstream(dir + "/.tmp-9999-live") << "in flight";
    {
        RunCache cache(dir);
    }
    EXPECT_EQ(countTmpFiles(dir), 1u);
}

TEST(RunCacheHardening, StoreSurvivesUnwritableStagingDir)
{
    // A bogus staging dir makes the tmp write fail; store must warn
    // and leave no litter, and the entry is simply absent.
    const std::string dir = makeTempDir();
    {
        ScopedEnv env("REDSOC_CACHE_TMP_DIR",
                      dir + "/does-not-exist");
        RunCache cache(dir);
        cache.store("key", statsVariant(0));
        EXPECT_FALSE(cache.load("key").has_value());
    }
    EXPECT_EQ(countTmpFiles(dir), 0u);

    // Same dir staging (the default) then works.
    RunCache cache(dir);
    cache.store("key", statsVariant(0));
    EXPECT_TRUE(cache.load("key").has_value());
}

// ---------------------------------------------------------------------
// Child modes (re-exec targets)
// ---------------------------------------------------------------------

namespace {

int
childStoreRace()
{
    const char *dir = std::getenv("REDSOC_TEST_DIR");
    const char *variant_s = std::getenv("REDSOC_TEST_VARIANT");
    if (dir == nullptr || variant_s == nullptr)
        return 3;
    const unsigned variant =
        static_cast<unsigned>(std::strtoul(variant_s, nullptr, 10));
    const CoreStats stats = statsVariant(variant);
    RunCache cache(dir);
    for (int i = 0; i < 25; ++i) {
        cache.store("racekey", stats);
        cache.store("own-" + std::to_string(variant), stats);
    }
    return 0;
}

int
childSweepInterrupt()
{
    const char *marker = std::getenv("REDSOC_TEST_MARKER");
    if (marker == nullptr || std::getenv("REDSOC_CACHE_DIR") == nullptr)
        return 3;
    installGracefulShutdown(1);

    SimDriver driver(kTestOps);
    std::vector<SimDriver::Point> points;
    for (const std::string core : {"small", "medium", "big"})
        for (const auto &[tag, cfg] : test::differentialConfigs(core))
            points.push_back({"crc", cfg});

    std::ofstream(marker) << "sweeping\n";
    try {
        driver.runAll(points);
    } catch (const ShutdownInterrupt &) {
        return 130;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (const char *mode = std::getenv("REDSOC_TEST_CHILD")) {
        ::unsetenv("REDSOC_TEST_CHILD");
        if (std::string(mode) == "store-race")
            return childStoreRace();
        if (std::string(mode) == "sweep-interrupt")
            return childSweepInterrupt();
        return 2;
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
