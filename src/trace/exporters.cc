#include "trace/exporters.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/bitutils.h"
#include "common/logging.h"
#include "isa/disasm.h"
#include "isa/opcode.h"

namespace redsoc {

namespace {

/** Chrome track (tid) layout: fixed stage tracks, then one execution
 *  track per FU class, then the ReDSOC / recovery tracks. */
constexpr unsigned kTidFrontend = 0;
constexpr unsigned kTidWakeup = 1;
constexpr unsigned kTidSelect = 2;
constexpr unsigned kTidExecBase = 3; // + static_cast<unsigned>(FuClass)
constexpr unsigned kTidCommit = kTidExecBase + kNumFuClasses;
constexpr unsigned kTidRedsoc = kTidCommit + 1;
constexpr unsigned kTidRecovery = kTidRedsoc + 1;

std::string
escapeJson(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Emits one traceEvents element per line, managing the separating
 *  commas so the output is valid JSON with no trailing comma. */
class ChromeWriter
{
  public:
    explicit ChromeWriter(std::ostream &os) : os_(os) {}

    void metadata(unsigned tid, const std::string &name, unsigned sort)
    {
        sep();
        os_ << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
            << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
            << escapeJson(name) << "\"}},\n"
            << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
            << ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":"
            << sort << "}}";
    }

    void instant(unsigned tid, Tick ts, const char *name,
                 const std::string &args)
    {
        sep();
        os_ << "{\"ph\":\"i\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << ts
            << ",\"s\":\"t\",\"name\":\"" << name << "\",\"args\":{" << args
            << "}}";
    }

    void span(unsigned tid, Tick ts, Tick dur, const std::string &name,
              const std::string &args)
    {
        sep();
        os_ << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << ts
            << ",\"dur\":" << dur << ",\"name\":\"" << escapeJson(name)
            << "\",\"args\":{" << args << "}}";
    }

  private:
    void sep()
    {
        if (sep_done_)
            os_ << ",\n";
        sep_done_ = true;
    }

    std::ostream &os_;
    bool sep_done_ = false;
};

/** One event's "args" members, comma-separated, seq first. */
class Args
{
  public:
    explicit Args(u32 seq) { os_ << "\"seq\":" << seq; }

    template <typename T>
    Args &add(const char *key, const T &value)
    {
        os_ << ",\"" << key << "\":" << value;
        return *this;
    }
    /** An op id, -1 for none. */
    Args &op(const char *key, u32 id)
    {
        return id == kNoOp ? add(key, -1) : add(key, id);
    }
    Args &text(const char *key, const std::string &value)
    {
        os_ << ",\"" << key << "\":\"" << escapeJson(value) << "\"";
        return *this;
    }
    std::string str() const { return os_.str(); }

  private:
    std::ostringstream os_;
};

/** fatal() unless @p rec holds one whole completed run of @p trace. */
void
requireFinished(const GraphRecorder &rec, const Trace &trace)
{
    fatal_if(rec.dispatched() != trace.size() ||
                 rec.committed() != trace.size(),
             "trace export of an unfinished run: ", rec.committed(),
             " of ", trace.size(), " ops committed");
}

} // namespace

std::optional<TraceFormat>
parseTraceFormat(const std::string &text)
{
    if (text == "chrome" || text == "json")
        return TraceFormat::Chrome;
    if (text == "konata" || text == "kanata")
        return TraceFormat::Konata;
    return std::nullopt;
}

const char *
traceFormatExtension(TraceFormat format)
{
    return format == TraceFormat::Chrome ? ".trace.json" : ".kanata";
}

TraceFormat
traceFormatForPath(const std::string &path)
{
    const size_t dot = path.rfind('.');
    if (dot != std::string::npos && path.substr(dot) == ".json")
        return TraceFormat::Chrome;
    return TraceFormat::Konata;
}

void
exportChromeTrace(const GraphRecorder &rec, const Trace &trace,
                  std::ostream &os)
{
    requireFinished(rec, trace);
    const Tick tpc = rec.ticksPerCycle();
    os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{"
       << "\"ticks_per_cycle\":" << tpc << ",\"ops\":" << trace.size()
       << "},\n"
       << "\"traceEvents\":[\n";

    ChromeWriter w(os);
    w.metadata(kTidFrontend, "Frontend", kTidFrontend);
    w.metadata(kTidWakeup, "Wakeup", kTidWakeup);
    w.metadata(kTidSelect, "Select", kTidSelect);
    for (unsigned fc = 0; fc < kNumFuClasses; ++fc)
        w.metadata(kTidExecBase + fc,
                   std::string("Exec.") +
                       fuClassName(static_cast<FuClass>(fc)),
                   kTidExecBase + fc);
    w.metadata(kTidCommit, "Commit", kTidCommit);
    w.metadata(kTidRedsoc, "ReDSOC", kTidRedsoc);
    w.metadata(kTidRecovery, "Recovery", kTidRecovery);

    // Per op: its pipeline moments, then its ReDSOC and recovery
    // moments. Arms, wastes and replays are per-op counts, shown at
    // the grant that ended them.
    for (u32 i = 0; i < rec.dispatched(); ++i) {
        const u16 fl = rec.flags(i);
        const OpMoments &m = rec.moments(i);
        const Tick sel = rec.tick(Milestone::S, i);
        const Tick start = rec.tick(Milestone::X, i);
        const Tick done = rec.tick(Milestone::W, i);
        w.instant(kTidFrontend, rec.tick(Milestone::D, i), "dispatch",
                  Args(i).str());
        if (!rec.selected(i)) {
            w.instant(kTidFrontend, done, "writeback", Args(i).str());
        } else {
            const Inst &inst = trace.inst(i);
            w.instant(kTidWakeup, m.wake, "wakeup",
                      Args(i).op("producer", m.last).str());
            w.instant(kTidSelect, sel, "select",
                      Args(i)
                          .add("egpw_speculative",
                               (fl & kOpEgpwSelect) ? "true" : "false")
                          .str());
            w.span(kTidExecBase + static_cast<unsigned>(fuClass(inst.op)),
                   start, std::max<Tick>(done - start, 1),
                   opcodeName(inst.op),
                   Args(i)
                       .add("ci_begin", start & (tpc - 1))
                       .add("ci_end", done & (tpc - 1))
                       .text("disasm", disassemble(inst))
                       .str());
        }
        w.instant(kTidCommit, rec.tick(Milestone::C, i), "commit",
                  Args(i).str());

        if (m.egpw_arms != 0)
            w.instant(kTidRedsoc, sel, "egpw_arm",
                      Args(i)
                          .add("count", m.egpw_arms)
                          .op("grandparent", m.grandparent)
                          .str());
        if (fl & kOpEgpwSelect)
            w.instant(kTidRedsoc, sel, "egpw_fire", Args(i).str());
        if (m.egpw_wastes[0] + m.egpw_wastes[1] != 0)
            w.instant(kTidRedsoc, sel, "egpw_waste",
                      Args(i)
                          .add("no_slack", m.egpw_wastes[0])
                          .add("span_denied", m.egpw_wastes[1])
                          .str());
        if (fl & kOpTransparent) {
            w.instant(kTidRedsoc, start, "transparent_pass",
                      Args(i).add("ci", start & (tpc - 1)).str());
            w.instant(kTidRedsoc, start, "recycle_link",
                      Args(i).op("producer", m.last).str());
        }
        if (fl & kOpFused)
            w.instant(kTidRedsoc, sel, "fuse",
                      Args(i).op("producer", rec.fusedInto(i)).str());
        if (m.la_replays != 0)
            w.instant(kTidRecovery, sel, "replay",
                      Args(i)
                          .text("cause", "last_arrival")
                          .add("count", m.la_replays)
                          .str());
        if (fl & kOpWidthReplay)
            w.instant(kTidRecovery, sel, "replay",
                      Args(i).text("cause", "width").str());
    }

    os << "\n]}\n";
}

void
exportKonata(const GraphRecorder &rec, const Trace &trace,
             std::ostream &os)
{
    requireFinished(rec, trace);
    const Tick tpc = rec.ticksPerCycle();
    const auto cycleOf = [&rec, tpc](Milestone ms, u32 i) -> Cycle {
        return rec.tick(ms, i) / tpc;
    };

    // Flatten into (cycle, command) pairs. Commands are appended in
    // op order, and the sort below is stable, so output order is
    // deterministic: by cycle, then by op.
    std::vector<std::pair<Cycle, std::string>> cmds;
    const auto cmd = [&cmds](Cycle cycle, std::string text) {
        cmds.emplace_back(cycle, std::move(text));
    };
    for (u32 i = 0; i < rec.dispatched(); ++i) {
        const u16 fl = rec.flags(i);
        const OpMoments &m = rec.moments(i);
        const bool selected = rec.selected(i);
        const Cycle fetch = cycleOf(Milestone::D, i);
        const Cycle select = cycleOf(Milestone::S, i);
        const std::string sid = std::to_string(i);
        // The producer whose slack a transparent op recycled.
        const u32 recycled = (fl & kOpTransparent) ? m.last : kNoOp;

        cmd(fetch, "I\t" + sid + "\t" + sid + "\t0");
        cmd(fetch, "L\t" + sid + "\t0\t" + sid + ": " +
                       disassemble(trace.inst(i)));

        std::ostringstream detail;
        detail << "L\t" << sid << "\t1\t";
        if (selected)
            detail << " ci_begin=" << (rec.tick(Milestone::X, i) & (tpc - 1));
        detail << " ci_end=" << (rec.tick(Milestone::W, i) & (tpc - 1));
        if (fl & kOpTransparent)
            detail << " transparent_pass";
        if (recycled != kNoOp)
            detail << " recycle_link=" << recycled;
        if (fl & kOpEgpwSelect)
            detail << " egpw_fire egpw_speculative_select";
        if (m.egpw_arms != 0)
            detail << " egpw_arm=" << m.egpw_arms;
        if (m.egpw_wastes[0] + m.egpw_wastes[1] != 0)
            detail << " egpw_waste=" << m.egpw_wastes[0] + m.egpw_wastes[1];
        if (rec.fusedInto(i) != kNoOp)
            detail << " fused_with=" << rec.fusedInto(i);
        if (selected && m.last != kNoOp)
            detail << " woken_by=" << m.last;
        if (m.la_replays != 0)
            detail << " replay_la=" << m.la_replays;
        if (fl & kOpWidthReplay)
            detail << " replay_width=1";
        cmd(fetch, detail.str());

        cmd(fetch, "S\t" + sid + "\t0\tF");
        if (selected) {
            if (select > fetch + 1)
                cmd(fetch + 1, "S\t" + sid + "\t0\tDs");
            cmd(select, "S\t" + sid + "\t0\tIs");
            cmd(cycleOf(Milestone::X, i), "S\t" + sid + "\t0\tEx");
        }
        cmd(cycleOf(Milestone::W, i), "S\t" + sid + "\t0\tWb");
        if (recycled != kNoOp && selected)
            cmd(select, "W\t" + sid + "\t" + std::to_string(recycled) +
                            "\t0");
        cmd(cycleOf(Milestone::C, i), "S\t" + sid + "\t0\tCm");
        cmd(cycleOf(Milestone::C, i), "R\t" + sid + "\t" + sid + "\t0");
    }

    std::stable_sort(cmds.begin(), cmds.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });

    os << "Kanata\t0004\n";
    Cycle cur = 0;
    bool first = true;
    for (const auto &[cycle, text] : cmds) {
        if (first) {
            os << "C=\t" << cycle << "\n";
            cur = cycle;
            first = false;
        } else if (cycle != cur) {
            os << "C\t" << (cycle - cur) << "\n";
            cur = cycle;
        }
        os << text << "\n";
    }
}

void
writeTraceFile(const std::string &path, TraceFormat format,
               const GraphRecorder &rec, const Trace &trace)
{
    std::ofstream ofs(path, std::ios::binary);
    fatal_if(!ofs, "cannot open trace output file '", path, "'");
    if (format == TraceFormat::Chrome)
        exportChromeTrace(rec, trace, ofs);
    else
        exportKonata(rec, trace, ofs);
    ofs.flush();
    fatal_if(!ofs, "error writing trace file '", path, "'");
}

std::string
sanitizeTraceFileName(const std::string &key)
{
    std::string out;
    out.reserve(key.size());
    for (char c : key) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                        c == '_';
        out += ok ? c : '_';
    }
    // A run key names every config leaf (about 1 kB), far past the
    // 255-byte file-name limit: keep a prefix and end with the whole
    // key's hash, so distinct keys keep distinct names.
    constexpr size_t kMaxName = 200;
    if (out.size() > kMaxName) {
        char hash[24];
        std::snprintf(hash, sizeof(hash), "-%016llx",
                      static_cast<unsigned long long>(fnv1a64(key)));
        out.resize(kMaxName - 17);
        out += hash;
    }
    return out;
}

const TraceEnv &
TraceEnv::get()
{
    static const TraceEnv env = [] {
        TraceEnv e;
        const char *dir = std::getenv("REDSOC_TRACE_DIR");
        if (dir == nullptr || *dir == '\0')
            return e;
        e.active = true;
        e.dir = dir;
        if (const char *fmt = std::getenv("REDSOC_TRACE_FORMAT")) {
            const auto parsed = parseTraceFormat(fmt);
            fatal_if(!parsed.has_value(),
                     "REDSOC_TRACE_FORMAT must be 'chrome' or 'konata', "
                     "got '", fmt, "'");
            e.format = *parsed;
        }
        return e;
    }();
    return env;
}

} // namespace redsoc
