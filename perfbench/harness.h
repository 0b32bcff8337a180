/**
 * @file
 * The benchmark's own machinery: spans recorded around calls into the
 * simulator's layers, the closed-loop runner, result slots that check
 * repeated answers and fold the simulated-stats digest, and the
 * statistics the end-to-end metrics are made of. Nothing here reaches
 * inside the simulator: every span wraps a public call.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using i64 = std::int64_t;
using u64 = std::uint64_t;
using u32 = std::uint32_t;

/** Monotonic host time in nanoseconds. */
i64 nowNs();

// --------------------------------------------------------------- spans

/** One timed call. Layer = the part of the name before the first '.'. */
struct Span
{
    const char *name = "";
    u32 id = 0;
    u32 parent = 0; ///< 0 = root
    u32 op = 0;     ///< op id shared by every span of one op; 0 = set-up
    u32 thread = 0;
    i64 start_ns = 0;
    i64 end_ns = 0;
    i64 minor_faults = 0; ///< getrusage(RUSAGE_THREAD) delta
    i64 sys_ns = 0;       ///< getrusage(RUSAGE_THREAD) delta
    i64 max_rss_kb = 0;   ///< high-water mark when the span ended
    u64 work = 0;         ///< committed ops, or bytes (layer-defined)
    u64 aux = 0;          ///< pipeline events, or graph edges

    i64 ns() const { return end_ns - start_ns; }
};

/** Spans are off unless enabled; a disabled SpanScope costs a branch. */
void setTracing(bool on);
bool tracing();

/** A fresh op id for the calling thread's next op (0 when not tracing). */
u32 beginOp();
/** The op id that spans opened by this thread are tagged with. */
void setCurrentOp(u32 op);

/** Every span recorded so far, across threads (call with no spans
 *  open and no client threads running). */
std::vector<Span> collectSpans();
/** Write @p spans as tab-separated text; false on I/O failure. */
bool writeSpans(const std::string &path, const std::vector<Span> &spans);

class SpanScope
{
  public:
    /** @p usage = false skips the two getrusage calls, for calls of a
     *  few microseconds where they would be most of the span. */
    explicit SpanScope(const char *name, bool usage = true);
    ~SpanScope();
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    void setWork(u64 work, u64 aux = 0);
    /** Stop the clock now; the span is logged when the scope ends, so
     *  setWork() may still follow. */
    void close();

  private:
    bool active_;
    bool usage_;
    bool closed_ = false;
    Span span_;
};

// --------------------------------------------------------- statistics

/** Nearest-rank percentile of sorted @p v (p in [0, 100]). */
double percentile(const std::vector<double> &sorted, double p);

/** The tail percentile for @p n samples: the highest of 99.9, 99, 95,
 *  90, 75 and 50 that leaves at least ten samples beyond it (50 when
 *  none does). */
double tailPercentile(size_t n);

/** Samples strictly beyond the nearest-rank @p p percentile of @p n. */
size_t samplesBeyond(size_t n, double p);

double median(std::vector<double> v);

/** FNV-1a 64-bit, continuing from @p h. */
u64 fnv1a(const std::string &bytes, u64 h = 0xcbf29ce484222325ull);

/** A seeded permutation of [0, n): the order ops visit a population. */
std::vector<size_t> permutation(u64 seed, u64 stream, size_t n);

// ---------------------------------------------------------- result slots

/**
 * One slot per population member. The first answer for a member is
 * kept; every later answer must equal it byte for byte. The digest
 * folds the kept answers in population order, so neither the op order
 * nor thread interleaving can change it.
 */
class ResultSlots
{
  public:
    explicit ResultSlots(size_t n = 0) : slots_(n) {}
    void reset(size_t n);

    /** Keep or compare; false when an earlier answer differs. The
     *  counts of the first answer are kept for counts(). */
    bool record(size_t index, const std::string &answer, u64 cycles,
                u64 committed);
    size_t filled() const;
    size_t size() const { return slots_.size(); }
    u64 digest() const;
    /** Simulated cycles and committed ops summed over the kept
     *  answers: counts that must repeat exactly. */
    std::pair<u64, u64> counts() const;

  private:
    struct Slot
    {
        std::optional<std::string> answer;
        u64 cycles = 0;
        u64 committed = 0;
    };
    mutable std::mutex mu_;
    std::vector<Slot> slots_;
};

// ------------------------------------------------------------- workloads

struct OpResult
{
    bool ok = true;
    size_t member = 0; ///< the population member the op answered
    u64 committed = 0; ///< simulated committed ops this op answered
    i64 ns = 0;        ///< host time of the op's timed part
};

/**
 * Starts the op's clock (and, when tracing, its root span, named
 * "op.<workload>") and stops both when it goes out of scope. An op
 * times only its own body: result checks run after the timer ends.
 */
class OpTimer
{
  public:
    OpTimer(OpResult &result, const char *span_name);
    ~OpTimer();
    OpTimer(const OpTimer &) = delete;
    OpTimer &operator=(const OpTimer &) = delete;

  private:
    OpResult &result_;
    i64 start_;
    SpanScope span_;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;
    virtual unsigned clients() const = 0;

    /** Fresh state for one round (timed: the setup_s samples); false
     *  when a set-up check failed. */
    virtual bool setup(unsigned round) = 0;
    /** Release the round's state (not timed). */
    virtual void teardown() {}

    /** Ops in one round of this run's plan. */
    virtual size_t opsPerRound() const = 0;

    /** Op @p k of @p round; called from any client thread. */
    virtual OpResult op(unsigned round, size_t k) = 0;

    /** Per-op layer probes (traced runs only): the calls an op makes
     *  only inside another layer, timed on their own. They run after
     *  the round's last op, with the prof timers off; throw on a
     *  failed check. */
    virtual void probe(unsigned /*round*/, size_t /*k*/) {}

    /** The population's kept answers (digest and repeat checks). */
    virtual const ResultSlots &slots() const = 0;
};

/** One successful op. */
struct OpSample
{
    size_t member = 0;
    double ms = 0.0;
    u64 committed = 0;
};

/** Each member's fastest op (members in ascending order). */
std::vector<OpSample> bestPerMember(const std::vector<OpSample> &ops);

struct RunSummary
{
    std::vector<double> setup_s;
    std::vector<OpSample> ops; ///< successful ops only
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<double> round_s; ///< each round's op-loop time
    double wall_s = 0.0;     ///< sum of round loop times
    double busy_s = 0.0;     ///< client time inside ops
    /** prof Run time that accrued during the op loops (0 with the
     *  prof timers off): every OooCore::run the ops made. */
    double loop_core_ns = 0.0;
    unsigned clients = 0;
};

/** Turns the prof timers off for its lifetime, then restores them. */
class ProfPause
{
  public:
    ProfPause();
    ~ProfPause();
    ProfPause(const ProfPause &) = delete;
    ProfPause &operator=(const ProfPause &) = delete;

  private:
    bool was_on_;
};

/** Run @p rounds rounds of @p w: set-up (timed @p setup_reps times,
 *  keeping the last), then a closed loop of w.clients() threads over
 *  w.opsPerRound() ops, then, when @p probes, w.probe() for each op
 *  on as many threads. A probe that throws fails its op. */
RunSummary runRounds(Workload &w, unsigned rounds, unsigned setup_reps,
                     bool probes);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
