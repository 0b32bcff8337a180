#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <random>
#include <thread>

#include "sim/profile.h"

namespace perfbench {

i64
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// --------------------------------------------------------------- spans

namespace {

struct ThreadLog
{
    u32 thread = 0;
    u32 op = 0;
    std::vector<u32> open; ///< ids of this thread's open spans
    std::vector<Span> spans;
};

std::atomic<bool> g_tracing{false};
std::atomic<u32> g_next_span{0};
std::atomic<u32> g_next_op{0};
std::mutex g_logs_mu;
// Logs outlive their threads: client threads end with each round and
// their spans are collected afterwards.
std::vector<std::unique_ptr<ThreadLog>> g_logs;
thread_local ThreadLog *t_log = nullptr;

ThreadLog &
threadLog()
{
    if (t_log == nullptr) {
        std::lock_guard<std::mutex> lock(g_logs_mu);
        g_logs.push_back(std::make_unique<ThreadLog>());
        t_log = g_logs.back().get();
        t_log->thread = static_cast<u32>(g_logs.size());
    }
    return *t_log;
}

struct Usage
{
    i64 minor_faults = 0;
    i64 sys_ns = 0;
    i64 max_rss_kb = 0;
};

Usage
threadUsage()
{
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    return {static_cast<i64>(ru.ru_minflt),
            static_cast<i64>(ru.ru_stime.tv_sec) * 1'000'000'000 +
                static_cast<i64>(ru.ru_stime.tv_usec) * 1'000,
            static_cast<i64>(ru.ru_maxrss)};
}

} // namespace

void
setTracing(bool on)
{
    g_tracing.store(on);
}

bool
tracing()
{
    return g_tracing.load(std::memory_order_relaxed);
}

u32
beginOp()
{
    return tracing() ? ++g_next_op : 0;
}

void
setCurrentOp(u32 op)
{
    threadLog().op = op;
}

std::vector<Span>
collectSpans()
{
    std::lock_guard<std::mutex> lock(g_logs_mu);
    std::vector<Span> all;
    for (const auto &log : g_logs)
        all.insert(all.end(), log->spans.begin(), log->spans.end());
    std::sort(all.begin(), all.end(),
              [](const Span &a, const Span &b) { return a.id < b.id; });
    return all;
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "name\tid\tparent\top\tthread\tstart_ns\tend_ns\t"
                    "minor_faults\tsys_ns\tmax_rss_kb\twork\taux\n");
    for (const Span &s : spans)
        std::fprintf(f, "%s\t%u\t%u\t%u\t%u\t%lld\t%lld\t%lld\t%lld\t%lld\t"
                        "%llu\t%llu\n",
                     s.name, s.id, s.parent, s.op, s.thread,
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns),
                     static_cast<long long>(s.minor_faults),
                     static_cast<long long>(s.sys_ns),
                     static_cast<long long>(s.max_rss_kb),
                     static_cast<unsigned long long>(s.work),
                     static_cast<unsigned long long>(s.aux));
    return std::fclose(f) == 0;
}

SpanScope::SpanScope(const char *name, bool usage)
    : active_(tracing()), usage_(usage)
{
    if (!active_)
        return;
    ThreadLog &log = threadLog();
    span_.name = name;
    span_.id = ++g_next_span;
    span_.parent = log.open.empty() ? 0 : log.open.back();
    span_.op = log.op;
    span_.thread = log.thread;
    log.open.push_back(span_.id);
    if (usage_) {
        const Usage u = threadUsage();
        span_.minor_faults = u.minor_faults;
        span_.sys_ns = u.sys_ns;
    }
    span_.start_ns = nowNs();
}

void
SpanScope::close()
{
    if (!active_ || closed_)
        return;
    span_.end_ns = nowNs();
    if (usage_) {
        const Usage u = threadUsage();
        span_.minor_faults = u.minor_faults - span_.minor_faults;
        span_.sys_ns = u.sys_ns - span_.sys_ns;
        span_.max_rss_kb = u.max_rss_kb;
    }
    threadLog().open.pop_back();
    closed_ = true;
}

void
SpanScope::setWork(u64 work, u64 aux)
{
    span_.work = work;
    span_.aux = aux;
}

SpanScope::~SpanScope()
{
    if (!active_)
        return;
    close();
    threadLog().spans.push_back(span_);
}

// --------------------------------------------------------- statistics

namespace {

/** Nearest rank (1-based) of the @p permille-th per-mille of @p n. */
size_t
nearestRank(size_t n, long permille)
{
    const size_t rank =
        (static_cast<size_t>(permille) * n + 999) / 1000;
    return std::clamp<size_t>(rank, 1, n);
}

long
toPermille(double p)
{
    return std::lround(p * 10.0);
}

} // namespace

double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    return sorted[nearestRank(sorted.size(), toPermille(p)) - 1];
}

size_t
samplesBeyond(size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, toPermille(p));
}

double
tailPercentile(size_t n)
{
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0})
        if (samplesBeyond(n, p) >= 10)
            return p;
    return 50.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 != 0 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

u64
fnv1a(const std::string &bytes, u64 h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::vector<size_t>
permutation(u64 seed, u64 stream, size_t n)
{
    std::seed_seq seq{static_cast<u32>(seed), static_cast<u32>(seed >> 32),
                      static_cast<u32>(stream),
                      static_cast<u32>(stream >> 32)};
    std::mt19937_64 rng(seq);
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    // Fisher-Yates written out: std::shuffle's draw sequence is left to
    // the library, and the op order must not depend on it.
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng() % i]);
    return order;
}

std::vector<OpSample>
bestPerMember(const std::vector<OpSample> &ops)
{
    std::map<size_t, OpSample> best;
    for (const OpSample &s : ops) {
        auto [it, fresh] = best.emplace(s.member, s);
        if (!fresh && s.ms < it->second.ms)
            it->second = s;
    }
    std::vector<OpSample> out;
    for (const auto &[member, s] : best)
        out.push_back(s);
    return out;
}

// ---------------------------------------------------------- result slots

void
ResultSlots::reset(size_t n)
{
    std::lock_guard<std::mutex> lock(mu_);
    slots_.assign(n, Slot{});
}

bool
ResultSlots::record(size_t index, const std::string &answer, u64 cycles,
                    u64 committed)
{
    std::lock_guard<std::mutex> lock(mu_);
    Slot &s = slots_.at(index);
    if (!s.answer) {
        s.answer = answer;
        s.cycles = cycles;
        s.committed = committed;
        return true;
    }
    return *s.answer == answer;
}

size_t
ResultSlots::filled() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<size_t>(
        std::count_if(slots_.begin(), slots_.end(),
                      [](const Slot &s) { return s.answer.has_value(); }));
}

u64
ResultSlots::digest() const
{
    std::lock_guard<std::mutex> lock(mu_);
    u64 h = fnv1a("");
    for (const Slot &s : slots_)
        h = fnv1a(s.answer ? *s.answer : std::string("<missing>\n"), h);
    return h;
}

std::pair<u64, u64>
ResultSlots::counts() const
{
    std::lock_guard<std::mutex> lock(mu_);
    u64 cycles = 0;
    u64 committed = 0;
    for (const Slot &s : slots_) {
        cycles += s.cycles;
        committed += s.committed;
    }
    return {cycles, committed};
}

// ------------------------------------------------------------- runner

OpTimer::OpTimer(OpResult &result, const char *span_name)
    : result_(result), start_(nowNs()), span_(span_name)
{
}

OpTimer::~OpTimer()
{
    span_.close();
    result_.ns = nowNs() - start_;
}

ProfPause::ProfPause() : was_on_(redsoc::prof::enabled())
{
    redsoc::prof::setEnabled(false);
}

ProfPause::~ProfPause()
{
    redsoc::prof::setEnabled(was_on_);
}

namespace {

double
profRunNs()
{
    return static_cast<double>(
        redsoc::prof::totals(redsoc::prof::Phase::Run).ns);
}

/** Call @p body(client, k) for k in [0, n) on @p clients threads, each
 *  taking the next k when its previous call returns. */
template <typename Body>
void
closedLoop(unsigned clients, size_t n, Body body)
{
    std::atomic<size_t> next{0};
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([c, n, &next, &body] {
            for (size_t k = next.fetch_add(1); k < n; k = next.fetch_add(1))
                body(c, k);
        });
    }
}

} // namespace

RunSummary
runRounds(Workload &w, unsigned rounds, unsigned setup_reps, bool probes)
{
    RunSummary sum;
    sum.clients = w.clients();
    for (unsigned r = 0; r < rounds; ++r) {
        for (unsigned rep = 0; rep < setup_reps; ++rep) {
            if (rep != 0)
                w.teardown();
            const i64 s0 = nowNs();
            const bool setup_ok = w.setup(r);
            sum.setup_s.push_back(static_cast<double>(nowNs() - s0) * 1e-9);
            if (!setup_ok) {
                ++sum.attempted;
                ++sum.failed;
            }
        }

        struct Client
        {
            std::vector<OpSample> ops;
            i64 busy_ns = 0;
            u64 attempted = 0;
            u64 failed = 0;
        };
        std::vector<Client> clients(w.clients());
        const size_t n = w.opsPerRound();
        std::vector<char> op_ok(n, 0);
        const double core0 = profRunNs();
        const i64 l0 = nowNs();
        closedLoop(w.clients(), n, [&](unsigned ci, size_t k) {
            Client &c = clients[ci];
            setCurrentOp(beginOp());
            OpResult res;
            const i64 t0 = nowNs();
            try {
                res = w.op(r, k);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "%s op %zu: %s\n", w.name(), k,
                             e.what());
                res.ok = false;
                res.ns = nowNs() - t0;
            }
            setCurrentOp(0);
            ++c.attempted;
            c.busy_ns += res.ns;
            if (!res.ok) {
                ++c.failed;
                return;
            }
            op_ok[k] = 1;
            c.ops.push_back({res.member, static_cast<double>(res.ns) * 1e-6,
                             res.committed});
        });
        sum.round_s.push_back(static_cast<double>(nowNs() - l0) * 1e-9);
        sum.loop_core_ns += profRunNs() - core0;
        sum.wall_s += sum.round_s.back();

        if (probes) {
            ProfPause pause;
            std::atomic<u64> probe_failed{0};
            closedLoop(w.clients(), n, [&](unsigned, size_t k) {
                if (!op_ok[k])
                    return;
                setCurrentOp(beginOp());
                try {
                    w.probe(r, k);
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "%s probe %zu: %s\n", w.name(), k,
                                 e.what());
                    ++probe_failed;
                }
                setCurrentOp(0);
            });
            sum.failed += probe_failed;
        }

        for (const Client &c : clients) {
            sum.ops.insert(sum.ops.end(), c.ops.begin(), c.ops.end());
            sum.busy_s += static_cast<double>(c.busy_ns) * 1e-9;
            sum.attempted += c.attempted;
            sum.failed += c.failed;
        }
        w.teardown();
    }
    return sum;
}

} // namespace perfbench
