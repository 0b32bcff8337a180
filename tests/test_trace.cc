/**
 * @file
 * Pipeline-trace correctness suite:
 *
 *  1. lifecycle (property test, 10 randomized-trace seeds): every op
 *     of the run is recorded with monotone milestone ticks, commits
 *     in order, and each recycle link names the real producer whose
 *     completion the consumer latched;
 *  2. the Chrome trace_event export parses as JSON (standalone
 *     structural validator — no JSON library dependency);
 *  3. golden-snapshot: the Konata export of a tiny fixed workload,
 *     under BOTH scheduler kernels, compared byte-exact against the
 *     committed tests/golden/trace_small.kanata (catches silent
 *     scheduler drift the aggregate checksum can't localize; rebuild
 *     with REDSOC_UPDATE_GOLDEN=1 after an intentional change);
 *  4. unit tests for the metrics and the exporter helpers.
 */

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "helpers.h"
#include "sched_grid.h"
#include "trace/exporters.h"
#include "trace/metrics.h"

#ifndef REDSOC_TEST_GOLDEN
#define REDSOC_TEST_GOLDEN "tests/golden"
#endif

namespace redsoc {
namespace {

using test::makeTrace;
using test::randomTrace;

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

/** A finished recording of @p trace on @p cfg under @p kernel. */
std::unique_ptr<GraphRecorder>
runRecorded(const Trace &trace, CoreConfig cfg, SchedKernel kernel)
{
    cfg.sched_kernel = kernel;
    auto rec = std::make_unique<GraphRecorder>(trace.size());
    OooCore core(std::move(cfg));
    core.setRecorder(rec.get());
    (void)core.run(trace);
    return rec;
}

CoreConfig
bigRedsoc()
{
    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;
    return cfg;
}

// ---------------------------------------------------------------------
// 1. Lifecycle over 10 randomized seeds
// ---------------------------------------------------------------------

class TraceLifecycle : public ::testing::TestWithParam<u64>
{
};

TEST_P(TraceLifecycle, EveryOpRecordsAWellFormedLife)
{
    const u64 seed = GetParam();
    const Trace trace = randomTrace(seed, 600);
    const auto rec = runRecorded(trace, bigRedsoc(), SchedKernel::Event);
    ASSERT_EQ(rec->dispatched(), trace.size());
    ASSERT_EQ(rec->committed(), trace.size());

    u64 transparent = 0;
    for (u32 i = 0; i < rec->dispatched(); ++i) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " op=" + std::to_string(i));
        const auto t = [&](Milestone ms) { return rec->tick(ms, i); };
        EXPECT_LE(t(Milestone::D), t(Milestone::W));
        EXPECT_LE(t(Milestone::W), t(Milestone::C));
        if (i > 0) { // in-order commit
            EXPECT_LE(rec->tick(Milestone::C, i - 1), t(Milestone::C));
        }
        const bool frontend = rec->flags(i) & kOpFrontendResolved;
        EXPECT_NE(rec->selected(i), frontend);
        if (rec->selected(i)) {
            const OpMoments &m = rec->moments(i);
            EXPECT_LT(t(Milestone::D), m.wake);
            EXPECT_LE(m.wake, t(Milestone::S));
            EXPECT_LT(t(Milestone::S), t(Milestone::X));
            EXPECT_LE(t(Milestone::X), t(Milestone::W));
        }
        // A recycle link names the real producer whose mid-cycle
        // completion this op latched: the producer's writeback tick
        // is exactly this op's execution start.
        if (rec->flags(i) & kOpTransparent) {
            ++transparent;
            const u32 link = rec->moments(i).last;
            ASSERT_LT(link, i);
            EXPECT_EQ(rec->tick(Milestone::W, link), t(Milestone::X))
                << "link " << link
                << " is not the producer whose completion was latched";
        }
    }
    EXPECT_GT(transparent, 0u);
}

TEST_P(TraceLifecycle, ChromeExportParsesAsJson)
{
    const u64 seed = GetParam();
    const Trace trace = randomTrace(seed, 600);
    const auto rec = runRecorded(trace, bigRedsoc(), SchedKernel::Event);

    std::ostringstream os;
    exportChromeTrace(*rec, trace, os);
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
    const CoreConfig cfg = bigRedsoc();

    std::string rendered[2];
    int i = 0;
    for (const SchedKernel kernel :
         {SchedKernel::Scan, SchedKernel::Event}) {
        const auto rec = runRecorded(trace, cfg, kernel);
        // The golden run must exercise the ReDSOC machinery.
        const TraceMetrics m = computeTraceMetrics(*rec, trace);
        EXPECT_GT(m.egpw_fires, 0u);
        EXPECT_GT(m.transparent_passes, 0u);
        std::ostringstream os;
        exportKonata(*rec, trace, os);
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
// 4. Metrics and exporter helper units
// ---------------------------------------------------------------------

TEST(TraceMetricsTest, AggregatesHandcraftedHooks)
{
    ProgramBuilder b("trace_metrics");
    b.movImm(x(1), 1);                  // op 0
    b.alui(Opcode::ADD, x(1), x(1), 1); // op 1
    b.alui(Opcode::ADD, x(1), x(1), 1); // op 2
    b.halt();                           // op 3
    const Trace trace = makeTrace(b);

    // Op 0 completes at CI 5 (slack 3); op 1 latches it transparently
    // at tick 21 after an EGPW grant, and op 2 latches op 1 in turn.
    GraphRecorder rec(trace.size());
    rec.beginRun(8);
    for (SeqNum s = 0; s < 3; ++s)
        rec.dispatch(s, 0, kOpEligible, 0);
    rec.dispatch(3, 0, kOpFrontendResolved, 0);
    rec.frontendWriteback(3, 8);
    const SeqNum prod0[] = {0}, prod1[] = {1};
    rec.issue({.seq = 0, .select = 8, .start = 16, .done = 21,
               .wake = 8});
    rec.egpwArm(1, kNoSeq);
    rec.egpwWaste(1, EgpwWaste::SpanDenied);
    rec.laReplay(1);
    rec.issue({.seq = 1, .select = 16, .start = 21, .done = 27,
               .prod = prod0, .nprod = 1, .wake = 8, .last = 0,
               .speculative = true, .transparent = true,
               .width_replayed = true});
    rec.issue({.seq = 2, .select = 24, .start = 27, .done = 32,
               .prod = prod1, .nprod = 1, .wake = 24, .last = 1,
               .transparent = true});
    for (SeqNum s = 0; s < 4; ++s)
        rec.commit(s, 40, false);

    const TraceMetrics m = computeTraceMetrics(rec, trace);
    EXPECT_EQ(m.events, rec.eventsSeen());
    EXPECT_EQ(m.ticks_per_cycle, 8u);

    const auto alu = static_cast<size_t>(FuClass::IntAlu);
    EXPECT_EQ(m.slack_by_class[alu].count(), 3u);
    EXPECT_EQ(m.slack_by_class[alu].total(), 3u + 5u + 0u);
    EXPECT_EQ(m.wakeup_to_issue.count(), 3u);
    EXPECT_EQ(m.wakeup_to_issue.total(), 1u); // op 1 waited a cycle
    // 0 <- 1 <- 2: a three-op recycle chain (depths 2 and 3).
    EXPECT_EQ(m.recycle_links, 2u);
    EXPECT_EQ(m.chain_depth.bucket(2), 1u);
    EXPECT_EQ(m.chain_depth.bucket(3), 1u);
    EXPECT_EQ(m.transparent_passes, 2u);
    EXPECT_EQ(m.egpw_arms, 1u);
    EXPECT_EQ(m.egpw_fires, 1u);
    EXPECT_EQ(m.egpw_wastes_span, 1u);
    EXPECT_EQ(m.egpw_wastes_no_slack, 0u);
    EXPECT_EQ(m.replays_last_arrival, 1u);
    EXPECT_EQ(m.replays_width, 1u);
    EXPECT_EQ(m.commits, 4u);

    const std::string report = renderTraceMetrics(m);
    EXPECT_NE(report.find("EGPW"), std::string::npos);
    EXPECT_NE(report.find("IntAlu"), std::string::npos);
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

TEST(TraceExportHelpers, KonataHeaderAndRetirement)
{
    const Trace trace = goldenTrace();
    const auto rec = runRecorded(trace, bigRedsoc(), SchedKernel::Event);

    std::ostringstream os;
    exportKonata(*rec, trace, os);
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
