/**
 * @file
 * Pipeline-trace correctness suite:
 *
 *  1. lifecycle completeness (property test, 10 randomized-trace
 *     seeds): every dispatched op emits a well-formed event sequence
 *     — monotone timestamps, sub-cycle CIs in [0, ticksPerCycle),
 *     exactly one commit and no squash, recycle links referencing the
 *     real producer whose completion the consumer latched;
 *  2. the Chrome trace_event export parses as JSON (standalone
 *     structural validator — no JSON library dependency);
 *  3. golden-snapshot: the Konata export of a tiny fixed workload,
 *     under BOTH scheduler kernels, compared byte-exact against the
 *     committed tests/golden/trace_small.kanata (catches silent
 *     scheduler drift the aggregate checksum can't localize; rebuild
 *     with REDSOC_UPDATE_GOLDEN=1 after an intentional change);
 *  4. unit tests for the metrics sink and the exporter helpers.
 */

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "helpers.h"
#include "trace/exporters.h"
#include "trace/metrics.h"

#ifndef REDSOC_TEST_GOLDEN
#define REDSOC_TEST_GOLDEN "tests/golden"
#endif

namespace redsoc {
namespace {

using test::makeTrace;

// ---------------------------------------------------------------------
// Minimal structural JSON validator (RFC 8259 grammar, no semantics).
// ---------------------------------------------------------------------

class JsonValidator
{
  public:
    explicit JsonValidator(const std::string &text) : s_(text) {}

    bool valid()
    {
        ws();
        if (!value())
            return false;
        ws();
        return pos_ == s_.size();
    }

  private:
    bool value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
        case '{': return object();
        case '[': return array();
        case '"': return string();
        case 't': return literal("true");
        case 'f': return literal("false");
        case 'n': return literal("null");
        default: return number();
        }
    }

    bool object()
    {
        ++pos_; // '{'
        ws();
        if (peek() == '}') { ++pos_; return true; }
        while (true) {
            ws();
            if (!string())
                return false;
            ws();
            if (peek() != ':')
                return false;
            ++pos_;
            ws();
            if (!value())
                return false;
            ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool array()
    {
        ++pos_; // '['
        ws();
        if (peek() == ']') { ++pos_; return true; }
        while (true) {
            ws();
            if (!value())
                return false;
            ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '"') { ++pos_; return true; }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
                const char e = s_[pos_];
                if (e == 'u') {
                    for (int k = 1; k <= 4; ++k)
                        if (pos_ + static_cast<size_t>(k) >= s_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                s_[pos_ + static_cast<size_t>(k)])))
                            return false;
                    pos_ += 4;
                } else if (std::string("\"\\/bfnrt").find(e) ==
                           std::string::npos) {
                    return false;
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return false;
            }
            ++pos_;
        }
        return false;
    }

    bool number()
    {
        const size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (peek() == '.') {
            ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        return pos_ > start;
    }

    bool literal(const char *word)
    {
        const size_t n = std::string(word).size();
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
    void ws()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Randomized program (same shape as test_sched_equiv's web: dense ALU
// chains, late multi-cycle arrivals, aliasing memory, branches).
// ---------------------------------------------------------------------

Trace
randomTrace(u64 seed, unsigned n_ops)
{
    Rng rng(seed);
    ProgramBuilder b("trace_prop");

    for (unsigned r = 1; r <= 8; ++r)
        b.movImm(x(r), static_cast<s64>(rng.range(1, 255)));
    b.movImm(x(10), static_cast<s64>(rng.range(3, 17)));
    b.movImm(x(11), 0x1000);

    auto data_reg = [&] {
        return x(static_cast<unsigned>(1 + rng.below(8)));
    };
    const Opcode alu_ops[] = {Opcode::ADD, Opcode::SUB, Opcode::AND,
                              Opcode::ORR, Opcode::EOR};

    for (unsigned i = 0; i < n_ops; ++i) {
        const double roll = rng.uniform();
        if (roll < 0.55) {
            const Opcode op = alu_ops[rng.below(5)];
            if (rng.chance(0.5))
                b.alu(op, data_reg(), data_reg(), data_reg());
            else
                b.alui(op, data_reg(), data_reg(),
                       static_cast<s64>(rng.below(64)));
        } else if (roll < 0.70) {
            if (rng.chance(0.75))
                b.mul(data_reg(), data_reg(), data_reg());
            else
                b.sdiv(data_reg(), data_reg(), x(10));
        } else if (roll < 0.82) {
            const s64 off = static_cast<s64>(rng.below(64)) * 8;
            if (rng.chance(0.5))
                b.store(Opcode::STR, data_reg(), x(11), off);
            else
                b.load(Opcode::LDR, data_reg(), x(11), off);
        } else if (roll < 0.90) {
            b.fmovImm(x(9), 1.5 + rng.uniform());
            b.fop(rng.chance(0.5) ? Opcode::FADD : Opcode::FMUL, x(9),
                  x(9), x(9));
        } else {
            ProgramBuilder::Label skip = b.newLabel();
            b.branch(rng.chance(0.5) ? Opcode::BNEZ : Opcode::BGTZ,
                     data_reg(), skip);
            const unsigned block =
                static_cast<unsigned>(1 + rng.below(3));
            for (unsigned k = 0; k < block; ++k)
                b.alui(Opcode::ADD, data_reg(), data_reg(),
                       static_cast<s64>(rng.below(16)));
            b.bind(skip);
        }
    }
    b.halt();
    return makeTrace(b);
}

PipeTracer
runTraced(const Trace &trace, CoreConfig cfg, SchedKernel kernel)
{
    cfg.sched_kernel = kernel;
    PipeTracer tracer;
    OooCore core(std::move(cfg));
    core.setTracer(&tracer);
    (void)core.run(trace);
    return tracer;
}

/** Per-op digest of the event stream, in recording order. */
struct OpEvents
{
    std::vector<PipeEvent> seq;
    u64 count(PipeEventKind k) const
    {
        u64 n = 0;
        for (const PipeEvent &e : seq)
            n += e.kind == k ? 1 : 0;
        return n;
    }
    const PipeEvent *first(PipeEventKind k) const
    {
        for (const PipeEvent &e : seq)
            if (e.kind == k)
                return &e;
        return nullptr;
    }
};

// ---------------------------------------------------------------------
// 1. Lifecycle completeness over 10 randomized seeds
// ---------------------------------------------------------------------

class TraceLifecycle : public ::testing::TestWithParam<u64>
{
};

TEST_P(TraceLifecycle, EveryOpEmitsWellFormedSequence)
{
    const u64 seed = GetParam();
    const Trace trace = randomTrace(seed, 600);

    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;
    const PipeTracer tracer =
        runTraced(trace, cfg, SchedKernel::Event);
    ASSERT_EQ(tracer.droppedEvents(), 0u) << "grow the test ring capacity";

    const Tick tpc = tracer.ticksPerCycle();
    std::map<SeqNum, OpEvents> ops;
    tracer.forEach([&](const PipeEvent &e) {
        ASSERT_LT(e.seq, trace.size());
        ops[e.seq].seq.push_back(e);
    });

    // Every dynamic op in the trace was dispatched and recorded.
    ASSERT_EQ(ops.size(), trace.size());

    for (const auto &[seq, op] : ops) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " seq=" + std::to_string(seq));
        // Exactly one frontend ladder and one writeback.
        EXPECT_EQ(op.count(PipeEventKind::Fetch), 1u);
        EXPECT_EQ(op.count(PipeEventKind::Decode), 1u);
        EXPECT_EQ(op.count(PipeEventKind::Rename), 1u);
        EXPECT_EQ(op.count(PipeEventKind::Dispatch), 1u);
        EXPECT_EQ(op.count(PipeEventKind::Writeback), 1u);
        // Commit xor squash: the replay-based model never squashes a
        // dispatched op, so "commit exactly once, squash never".
        EXPECT_EQ(op.count(PipeEventKind::Commit), 1u);
        EXPECT_EQ(op.count(PipeEventKind::Squash), 0u);
        // RS ops issue exactly once (wakeup/select/exec as a unit).
        const u64 selects = op.count(PipeEventKind::Select);
        EXPECT_LE(selects, 1u);
        EXPECT_EQ(op.count(PipeEventKind::Wakeup), selects);
        EXPECT_EQ(op.count(PipeEventKind::ExecBegin), selects);

        const PipeEvent *fetch = op.first(PipeEventKind::Fetch);
        const PipeEvent *wb = op.first(PipeEventKind::Writeback);
        const PipeEvent *commit = op.first(PipeEventKind::Commit);
        ASSERT_NE(fetch, nullptr);
        ASSERT_NE(wb, nullptr);
        ASSERT_NE(commit, nullptr);
        EXPECT_LE(fetch->tick, wb->tick);
        EXPECT_LE(wb->tick, commit->tick);
        EXPECT_LT(wb->arg, tpc); // CI in [0, ticksPerCycle)

        if (selects == 1) {
            const PipeEvent *wake = op.first(PipeEventKind::Wakeup);
            const PipeEvent *sel = op.first(PipeEventKind::Select);
            const PipeEvent *ex = op.first(PipeEventKind::ExecBegin);
            EXPECT_LT(fetch->tick, wake->tick);
            EXPECT_LE(wake->tick, sel->tick);
            EXPECT_LT(sel->tick, ex->tick);
            EXPECT_LE(ex->tick, wb->tick);
            EXPECT_LT(ex->arg, tpc);
        }

        // Recycle links name the real producer whose mid-cycle
        // completion this op latched: the link's writeback tick is
        // exactly this op's execution start.
        for (const PipeEvent &e : op.seq) {
            if (e.kind != PipeEventKind::RecycleLink)
                continue;
            ASSERT_NE(e.link, kNoSeq);
            ASSERT_LT(e.link, seq);
            EXPECT_EQ(op.count(PipeEventKind::TransparentPass), 1u);
            const auto pit = ops.find(e.link);
            ASSERT_NE(pit, ops.end());
            const PipeEvent *pwb =
                pit->second.first(PipeEventKind::Writeback);
            ASSERT_NE(pwb, nullptr);
            EXPECT_EQ(pwb->tick, e.tick)
                << "link " << e.link
                << " is not the producer whose completion was latched";
        }

        // An EGPW fire is always a speculative select.
        if (op.count(PipeEventKind::EgpwFire) != 0) {
            const PipeEvent *sel = op.first(PipeEventKind::Select);
            ASSERT_NE(sel, nullptr);
            EXPECT_EQ(sel->arg & 1u, 1u);
        }
    }
}

TEST_P(TraceLifecycle, ChromeExportParsesAsJson)
{
    const u64 seed = GetParam();
    const Trace trace = randomTrace(seed, 600);
    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;
    const PipeTracer tracer =
        runTraced(trace, cfg, SchedKernel::Event);

    std::ostringstream os;
    exportChromeTrace(tracer, trace, os);
    const std::string json = os.str();
    EXPECT_TRUE(JsonValidator(json).valid())
        << "seed=" << seed << ": invalid JSON (" << json.size()
        << " bytes)";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceLifecycle,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u, 0xdeadbeefu,
                                           0xfeedfaceu));

// ---------------------------------------------------------------------
// 3. Golden Konata snapshot, both kernels
// ---------------------------------------------------------------------

/** The fixed golden workload: a narrow logic chain (maximal slack,
 *  long transparent chains) plus an ADD chain — guaranteed to produce
 *  EGPW fires and transparent passes on the ReDSOC big core. */
Trace
goldenTrace()
{
    ProgramBuilder b("trace_golden");
    test::emitLogicChain(b, 20);
    test::emitAddChain(b, 10, x(2));
    b.halt();
    return makeTrace(b);
}

TEST(TraceGolden, KonataSnapshotMatchesBothKernels)
{
    const Trace trace = goldenTrace();
    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;

    std::string rendered[2];
    int i = 0;
    for (const SchedKernel kernel :
         {SchedKernel::Scan, SchedKernel::Event}) {
        const PipeTracer tracer = runTraced(trace, cfg, kernel);
        // The golden run must exercise the ReDSOC machinery.
        u64 fires = 0, passes = 0;
        tracer.forEach([&](const PipeEvent &e) {
            fires += e.kind == PipeEventKind::EgpwFire ? 1 : 0;
            passes += e.kind == PipeEventKind::TransparentPass ? 1 : 0;
        });
        EXPECT_GT(fires, 0u);
        EXPECT_GT(passes, 0u);
        std::ostringstream os;
        exportKonata(tracer, trace, os);
        rendered[i++] = os.str();
    }
    EXPECT_EQ(rendered[0], rendered[1])
        << "Scan and Event kernels rendered different traces";

    const std::string golden_path =
        std::string(REDSOC_TEST_GOLDEN) + "/trace_small.kanata";
    const char *update = std::getenv("REDSOC_UPDATE_GOLDEN");
    if (update != nullptr && *update != '\0') {
        std::ofstream ofs(golden_path, std::ios::binary);
        ASSERT_TRUE(ofs) << "cannot write " << golden_path;
        ofs << rendered[0];
        GTEST_SKIP() << "golden updated: " << golden_path;
    }
    std::ifstream ifs(golden_path, std::ios::binary);
    ASSERT_TRUE(ifs) << "missing golden file " << golden_path
                     << " (regenerate with REDSOC_UPDATE_GOLDEN=1)";
    std::ostringstream want;
    want << ifs.rdbuf();
    EXPECT_EQ(rendered[0], want.str())
        << "scheduler drift: the committed golden Konata trace no "
           "longer matches (REDSOC_UPDATE_GOLDEN=1 if intentional)";
}

// ---------------------------------------------------------------------
// 4. Metrics sink and exporter helper units
// ---------------------------------------------------------------------

TEST(TraceMetricsTest, AggregatesHandcraftedEvents)
{
    ProgramBuilder b("trace_metrics");
    b.movImm(x(1), 1);               // seq 0
    b.alui(Opcode::ADD, x(1), x(1), 1); // seq 1
    b.halt();                        // seq 2
    const Trace trace = makeTrace(b);

    PipeTracer t(64);
    t.beginRun(8);
    t.record(PipeEventKind::Wakeup, 1, 8);
    t.record(PipeEventKind::Select, 1, 16);       // 1 cycle of wait
    t.record(PipeEventKind::Writeback, 0, 21, 5); // slack (8-5)%8 = 3
    t.record(PipeEventKind::RecycleLink, 1, 21, 0, 0);
    t.record(PipeEventKind::TransparentPass, 1, 21, 5);
    t.record(PipeEventKind::EgpwArm, 1, 16);
    t.record(PipeEventKind::EgpwFire, 1, 16);
    t.record(PipeEventKind::EgpwWaste, 1, 16, 1);
    t.record(PipeEventKind::Replay, 1, 16, 1);
    t.record(PipeEventKind::Replay, 1, 16, 2);
    t.record(PipeEventKind::Commit, 0, 24);
    t.record(PipeEventKind::Commit, 1, 24);

    const TraceMetrics m = computeTraceMetrics(t, trace);
    EXPECT_EQ(m.events, 12u);
    EXPECT_EQ(m.dropped, 0u);
    EXPECT_EQ(m.ticks_per_cycle, 8u);

    const auto alu = static_cast<size_t>(FuClass::IntAlu);
    EXPECT_EQ(m.slack_by_class[alu].count(), 1u);
    EXPECT_EQ(m.slack_by_class[alu].total(), 3u);
    EXPECT_EQ(m.wakeup_to_issue.count(), 1u);
    EXPECT_EQ(m.wakeup_to_issue.total(), 1u);
    EXPECT_EQ(m.recycle_links, 1u);
    EXPECT_EQ(m.chain_depth.count(), 1u);
    EXPECT_EQ(m.chain_depth.total(), 2u); // link depth: root + 1
    EXPECT_EQ(m.transparent_passes, 1u);
    EXPECT_EQ(m.egpw_arms, 1u);
    EXPECT_EQ(m.egpw_fires, 1u);
    EXPECT_EQ(m.egpw_wastes_span, 1u);
    EXPECT_EQ(m.egpw_wastes_no_slack, 0u);
    EXPECT_EQ(m.replays_last_arrival, 1u);
    EXPECT_EQ(m.replays_width, 1u);
    EXPECT_EQ(m.commits, 2u);
    EXPECT_EQ(m.squashes, 0u);

    const std::string report = renderTraceMetrics(m);
    EXPECT_NE(report.find("EGPW"), std::string::npos);
    EXPECT_NE(report.find("IntAlu"), std::string::npos);
}

TEST(TraceMetricsTest, ChainDepthFollowsLinks)
{
    ProgramBuilder b("trace_metrics");
    test::emitLogicChain(b, 4);
    b.halt();
    const Trace trace = makeTrace(b);

    PipeTracer t(16);
    t.beginRun(8);
    // 1 <- 2 <- 3: a three-op recycle chain (depths 2 and 3).
    t.record(PipeEventKind::RecycleLink, 2, 10, 0, 1);
    t.record(PipeEventKind::RecycleLink, 3, 13, 0, 2);
    const TraceMetrics m = computeTraceMetrics(t, trace);
    EXPECT_EQ(m.chain_depth.count(), 2u);
    EXPECT_EQ(m.chain_depth.bucket(2), 1u);
    EXPECT_EQ(m.chain_depth.bucket(3), 1u);
}

TEST(TraceExportHelpers, FormatParsingAndExtensions)
{
    EXPECT_EQ(parseTraceFormat("chrome"), TraceFormat::Chrome);
    EXPECT_EQ(parseTraceFormat("json"), TraceFormat::Chrome);
    EXPECT_EQ(parseTraceFormat("konata"), TraceFormat::Konata);
    EXPECT_EQ(parseTraceFormat("kanata"), TraceFormat::Konata);
    EXPECT_FALSE(parseTraceFormat("vcd").has_value());

    EXPECT_STREQ(traceFormatExtension(TraceFormat::Chrome),
                 ".trace.json");
    EXPECT_STREQ(traceFormatExtension(TraceFormat::Konata), ".kanata");

    EXPECT_EQ(traceFormatForPath("out/run.json"), TraceFormat::Chrome);
    EXPECT_EQ(traceFormatForPath("run.trace.json"),
              TraceFormat::Chrome);
    EXPECT_EQ(traceFormatForPath("run.kanata"), TraceFormat::Konata);
    EXPECT_EQ(traceFormatForPath("noext"), TraceFormat::Konata);
}

TEST(TraceExportHelpers, SanitizeRunKeys)
{
    EXPECT_EQ(sanitizeTraceFileName("crc@big|redsoc#ops=100"),
              "crc_big_redsoc_ops_100");
    EXPECT_EQ(sanitizeTraceFileName("safe-name_1.2"), "safe-name_1.2");

    // Real run keys are longer than a file name may be; keys that
    // differ only past the cut still get distinct names.
    const std::string a = SimDriver().runKey("crc", bigCore());
    CoreConfig last = bigCore();
    last.skewed_select = false;
    const std::string b = SimDriver().runKey("crc", last);
    ASSERT_GT(a.size(), 255u);
    EXPECT_LE(sanitizeTraceFileName(a).size(), 200u);
    EXPECT_EQ(sanitizeTraceFileName(a).rfind("crc_name_big_", 0), 0u);
    EXPECT_NE(sanitizeTraceFileName(a), sanitizeTraceFileName(b));
}

TEST(TraceExportHelpers, EventNamesAreStableAndUnique)
{
    std::set<std::string> names;
    for (unsigned k = 0; k < static_cast<unsigned>(PipeEventKind::NUM);
         ++k) {
        const std::string name =
            pipeEventName(static_cast<PipeEventKind>(k));
        EXPECT_NE(name, "unknown");
        EXPECT_TRUE(names.insert(name).second)
            << "duplicate event name " << name;
    }
    EXPECT_EQ(names.count("egpw_fire"), 1u);
    EXPECT_EQ(names.count("transparent_pass"), 1u);
}

TEST(TraceExportHelpers, KonataHeaderAndRetirement)
{
    const Trace trace = goldenTrace();
    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;
    const PipeTracer tracer =
        runTraced(trace, cfg, SchedKernel::Event);

    std::ostringstream os;
    exportKonata(tracer, trace, os);
    const std::string text = os.str();
    EXPECT_EQ(text.rfind("Kanata\t0004\n", 0), 0u);
    // Every op is introduced and retired exactly once.
    u64 intros = 0, retires = 0;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
        intros += line.rfind("I\t", 0) == 0 ? 1 : 0;
        retires += line.rfind("R\t", 0) == 0 ? 1 : 0;
    }
    EXPECT_EQ(intros, trace.size());
    EXPECT_EQ(retires, trace.size());
}

} // namespace
} // namespace redsoc
