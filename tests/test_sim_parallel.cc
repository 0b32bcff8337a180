/**
 * @file
 * Tests for the parallel simulation layer: the fixed thread pool, the
 * concurrency-safe SimDriver (bit-identical results no matter how
 * many threads race on a point), the persistent on-disk run cache
 * (hit, miss, version invalidation, corrupted-file fallback), and
 * its failure-path hardening: multi-process store races leave no
 * torn files and no stale .tmp-* litter, interrupted sweeps leave
 * every cache entry readable, stale staging files are GC'd. The
 * per-thread profiler slots are summed here too.
 *
 * This binary has its own main(): the multi-process tests re-exec
 * /proc/self/exe in child modes selected by REDSOC_TEST_CHILD.
 */

#include <gtest/gtest.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/shutdown.h"
#include "helpers.h"
#include "sched_grid.h"
#include "sim/profile.h"
#include "sim/run_cache.h"
#include "sim/thread_pool.h"

namespace fs = std::filesystem;

using namespace redsoc;

namespace {

/** Enough for every test workload to halt (crc is ~99k dynamic
 *  ops), and no more: determinism, not throughput. */
constexpr SeqNum kTestOps = 150'000;

/**
 * Canonical text form of the deterministic architectural result:
 * everything the run cache serializes except the host wall-clock,
 * which legitimately differs run to run.
 */
std::string
canon(CoreStats stats)
{
    stats.sim_seconds = 0.0;
    return serializeStats("canon", stats);
}

std::string
makeTempDir()
{
    std::string tmpl = (fs::temp_directory_path() /
                        "redsoc-cache-test-XXXXXX").string();
    char *dir = ::mkdtemp(tmpl.data());
    EXPECT_NE(dir, nullptr);
    return tmpl;
}

/** Deterministic stats of a short logic chain; each @p variant
 *  yields different bytes (store-race payloads must be
 *  distinguishable). */
CoreStats
sampleStats(unsigned variant = 2)
{
    ProgramBuilder b("chain");
    test::emitLogicChain(b, 100 + 50 * variant);
    b.halt();
    const Trace trace = test::makeTrace(b);
    return test::runCore(trace, configFor("small", SchedMode::ReDSOC));
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
    ::execl("/proc/self/exe", "test_sim_parallel_child",
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

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);
    std::atomic<int> done{0};
    for (int i = 0; i < 1000; ++i)
        pool.submit([&done] { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 1000);

    // The pool stays usable after a wait.
    pool.submit([&done] { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 1001);
}

TEST(ThreadPool, WaitRethrowsFirstTaskError)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&done, i] {
            if (i == 3)
                throw std::runtime_error("task failed");
            ++done;
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(done.load(), 7); // the remaining tasks still ran
    // The error does not stick to the next batch.
    pool.submit([&done] { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 8);
}

// The default pool is sized by the CPUs the thread may use, not the
// machine's: under taskset -c 0 it must not run several workers on one
// CPU (each point's host time would then measure the oversubscription).
TEST(ThreadPool, DefaultSizeFollowsAffinityMask)
{
    cpu_set_t saved;
    CPU_ZERO(&saved);
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int cpu = 0;
    while (!CPU_ISSET(cpu, &saved))
        ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const unsigned threads = ThreadPool(0).threads();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(threads, 1u);
    EXPECT_EQ(ThreadPool(0).threads(),
              static_cast<unsigned>(CPU_COUNT(&saved)));
}

// Each thread adds into its own profiler slots; totals() sums them
// all, counts of exited threads included, and a new thread reusing an
// exited thread's slots keeps adding to them.
TEST(Profiler, TotalsSumEveryThreadIncludingExited)
{
    const auto phase = prof::Phase::TraceBuild;
    prof::reset();
    auto burst = [phase] {
        for (int k = 0; k < 1000; ++k)
            prof::record(phase, 3);
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back(burst);
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(prof::totals(phase).calls, 4000u);
    EXPECT_EQ(prof::totals(phase).ns, 12000u);

    std::thread(burst).join();
    burst();
    EXPECT_EQ(prof::totals(phase).calls, 6000u);
    EXPECT_EQ(prof::totals(phase).ns, 18000u);
    EXPECT_EQ(prof::totals(prof::Phase::Commit).calls, 0u);

    prof::reset();
    EXPECT_EQ(prof::totals(phase).calls, 0u);
    EXPECT_EQ(prof::totals(phase).ns, 0u);
}

TEST(ParallelDriver, EightThreadsOnOnePointMatchSerial)
{
    const CoreConfig cfg = configFor("small", SchedMode::ReDSOC);

    SimDriver serial(kTestOps);
    const std::string want = canon(serial.run("crc", cfg));

    SimDriver parallel(kTestOps);
    std::vector<CoreStats> got(8);
    {
        std::vector<std::thread> threads;
        for (int i = 0; i < 8; ++i) {
            threads.emplace_back([&parallel, &got, &cfg, i] {
                got[i] = parallel.run("crc", cfg);
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    for (const CoreStats &stats : got)
        EXPECT_EQ(canon(stats), want);
}

TEST(ParallelDriver, BatchMatrixMatchesSerialPointwise)
{
    std::vector<SimDriver::Point> points;
    for (const char *workload : {"crc", "act"}) {
        for (SchedMode mode :
             {SchedMode::Baseline, SchedMode::ReDSOC, SchedMode::MOS}) {
            points.push_back({workload, configFor("medium", mode)});
        }
    }

    SimDriver batch(kTestOps);
    const std::vector<CoreStats> got = batch.runAll(points);
    ASSERT_EQ(got.size(), points.size());

    SimDriver serial(kTestOps);
    for (size_t i = 0; i < points.size(); ++i) {
        const CoreStats &want =
            serial.run(points[i].workload, points[i].config);
        EXPECT_EQ(canon(got[i]), canon(want)) << "point " << i;
    }
}

TEST(RunCache, SerializeRoundTripsExactly)
{
    const CoreStats stats = sampleStats();
    const auto back =
        deserializeStats(serializeStats("some key", stats), "some key");
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(serializeStats("k", *back), serializeStats("k", stats));
    EXPECT_EQ(back->chain_lengths.weightedMean(),
              stats.chain_lengths.weightedMean());
}

TEST(RunCache, RejectsKeyMismatch)
{
    const CoreStats stats = sampleStats();
    EXPECT_FALSE(deserializeStats(serializeStats("key a", stats),
                                  "key b").has_value());
}

TEST(RunCache, HitAndMiss)
{
    const std::string dir = makeTempDir();
    RunCache cache(dir);
    EXPECT_FALSE(cache.load("absent").has_value()); // cold miss

    const CoreStats stats = sampleStats();
    cache.store("point", stats);
    const auto hit = cache.load("point");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(serializeStats("k", *hit), serializeStats("k", stats));
    EXPECT_FALSE(cache.load("other point").has_value());

    fs::remove_all(dir);
}

TEST(RunCache, VersionMismatchInvalidates)
{
    const std::string dir = makeTempDir();
    RunCache cache(dir);
    cache.store("point", sampleStats());

    const std::string path = cache.entryPath("point");
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    const std::string want = "v" + std::to_string(RunCache::kFormatVersion);
    const size_t pos = text.find(want);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, want.size(), "v999");
    std::ofstream(path, std::ios::trunc) << text;

    EXPECT_FALSE(cache.load("point").has_value());
    fs::remove_all(dir);
}

TEST(RunCache, CorruptedFileIsAMiss)
{
    const std::string dir = makeTempDir();
    RunCache cache(dir);
    const CoreStats stats = sampleStats();
    cache.store("point", stats);

    // Truncation (a torn write can't happen thanks to the atomic
    // rename, but a corrupted disk file must still be survivable).
    const std::string full = serializeStats("point", stats);
    std::ofstream(cache.entryPath("point"), std::ios::trunc)
        << full.substr(0, full.size() / 2);
    EXPECT_FALSE(cache.load("point").has_value());

    std::ofstream(cache.entryPath("point"), std::ios::trunc)
        << "not a stats file at all";
    EXPECT_FALSE(cache.load("point").has_value());

    fs::remove_all(dir);
}

TEST(RunCache, DriverLoadsStoresAndSurvivesCorruption)
{
    const std::string dir = makeTempDir();
    ScopedEnv env("REDSOC_CACHE_DIR", dir);
    const CoreConfig cfg = configFor("small", SchedMode::Baseline);

    SimDriver first(kTestOps);
    const CoreStats truth = first.run("crc", cfg);
    const std::string key = first.runKey("crc", cfg);
    RunCache cache(dir);
    ASSERT_TRUE(fs::exists(cache.entryPath(key))); // stored on miss

    // Plant a marker in the cached entry: a second driver must serve
    // the disk copy, not resimulate.
    CoreStats marked = truth;
    marked.cycles += 12345;
    cache.store(key, marked);
    SimDriver second(kTestOps);
    EXPECT_EQ(second.run("crc", cfg).cycles, truth.cycles + 12345);

    // Corrupt the entry: a third driver falls back to recomputing
    // (and repairs the cache entry on the way out).
    std::ofstream(cache.entryPath(key), std::ios::trunc) << "garbage";
    SimDriver third(kTestOps);
    EXPECT_EQ(canon(third.run("crc", cfg)), canon(truth));
    const auto repaired = cache.load(key);
    ASSERT_TRUE(repaired.has_value());
    EXPECT_EQ(repaired->cycles, truth.cycles);

    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Run-cache failure-path hardening (multi-process)
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
    const std::string a = canon(sampleStats(0));
    const std::string b = canon(sampleStats(1));
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

    // Orphans of a writer killed two hours ago: past the one-hour TTL.
    const auto stale =
        fs::file_time_type::clock::now() - std::chrono::hours(2);
    for (const char *name : {"/.tmp-1234-abc", "/.tmp-5678-def",
                             "/keepme.stats"})
        fs::last_write_time(dir + name, stale);
    // A live writer's fresh staging file must never be swept out from
    // under it.
    std::ofstream(dir + "/.tmp-9999-live") << "in flight";
    {
        RunCache cache(dir);
    }
    EXPECT_EQ(countTmpFiles(dir), 1u);
    EXPECT_TRUE(fs::exists(dir + "/.tmp-9999-live"));
    EXPECT_TRUE(fs::exists(dir + "/keepme.stats"));
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
        cache.store("key", sampleStats(0));
        EXPECT_FALSE(cache.load("key").has_value());
    }
    EXPECT_EQ(countTmpFiles(dir), 0u);

    // Same dir staging (the default) then works.
    RunCache cache(dir);
    cache.store("key", sampleStats(0));
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
    const CoreStats stats = sampleStats(variant);
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
    installGracefulShutdown();

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
