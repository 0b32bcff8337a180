#include "trace/exporters.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
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
constexpr unsigned kNumFuClasses = static_cast<unsigned>(FuClass::None) + 1;
constexpr unsigned kTidCommit = kTidExecBase + kNumFuClasses;
constexpr unsigned kTidRedsoc = kTidCommit + 1;
constexpr unsigned kTidRecovery = kTidRedsoc + 1;

const char *
fuClassLabel(FuClass fc)
{
    switch (fc) {
    case FuClass::IntAlu: return "IntAlu";
    case FuClass::IntMul: return "IntMul";
    case FuClass::IntDiv: return "IntDiv";
    case FuClass::Fp: return "Fp";
    case FuClass::FpDiv: return "FpDiv";
    case FuClass::SimdAlu: return "SimdAlu";
    case FuClass::SimdMul: return "SimdMul";
    case FuClass::MemRead: return "MemRead";
    case FuClass::MemWrite: return "MemWrite";
    case FuClass::None: return "None";
    }
    return "?";
}

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

std::string
seqArg(SeqNum seq)
{
    std::ostringstream os;
    os << "\"seq\":" << seq;
    return os.str();
}

std::string
seqLinkArg(SeqNum seq, const char *key, SeqNum link)
{
    std::ostringstream os;
    os << "\"seq\":" << seq << ",\"" << key << "\":";
    if (link == kNoSeq)
        os << -1;
    else
        os << link;
    return os.str();
}

/** Per-op timeline reassembled from the event stream (Konata needs a
 *  per-instruction view; the ring is a flat event log). */
struct OpTimeline
{
    bool has_fetch = false;
    Cycle fetch = 0;
    bool has_select = false;
    Cycle select = 0;
    bool spec_select = false;
    bool has_exec = false;
    Tick exec_start = 0;
    u8 ci_begin = 0;
    bool has_wb = false;
    Tick complete = 0;
    u8 ci_end = 0;
    bool has_commit = false;
    Cycle commit = 0;
    bool squashed = false;
    Cycle squash = 0;
    bool has_wake = false;
    Cycle wake = 0;
    SeqNum wake_link = kNoSeq;
    bool transparent = false;
    SeqNum recycle_link = kNoSeq;
    SeqNum fuse_link = kNoSeq;
    bool egpw_fire = false;
    u32 egpw_arms = 0;
    u32 egpw_wastes = 0;
    u32 replays_la = 0;
    u32 replays_width = 0;
};

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
exportChromeTrace(const PipeTracer &tracer, const Trace &trace,
                  std::ostream &os)
{
    const Tick tpc = tracer.ticksPerCycle();
    os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{"
       << "\"ticks_per_cycle\":" << tpc
       << ",\"events\":" << tracer.size()
       << ",\"dropped_events\":" << tracer.droppedEvents() << "},\n"
       << "\"traceEvents\":[\n";

    ChromeWriter w(os);
    w.metadata(kTidFrontend, "Frontend", kTidFrontend);
    w.metadata(kTidWakeup, "Wakeup", kTidWakeup);
    w.metadata(kTidSelect, "Select", kTidSelect);
    for (unsigned fc = 0; fc < kNumFuClasses; ++fc)
        w.metadata(kTidExecBase + fc,
                   std::string("Exec.") +
                       fuClassLabel(static_cast<FuClass>(fc)),
                   kTidExecBase + fc);
    w.metadata(kTidCommit, "Commit", kTidCommit);
    w.metadata(kTidRedsoc, "ReDSOC", kTidRedsoc);
    w.metadata(kTidRecovery, "Recovery", kTidRecovery);

    // ExecBegin ticks by seq, awaiting the matching Writeback.
    std::map<SeqNum, std::pair<Tick, u8>> exec_begin;

    tracer.forEach([&](const PipeEvent &e) {
        // No default: -Werror=switch enforces completeness.
        switch (e.kind) {
        case PipeEventKind::Fetch:
        case PipeEventKind::Decode:
        case PipeEventKind::Rename:
        case PipeEventKind::Dispatch:
            w.instant(kTidFrontend, e.tick, pipeEventName(e.kind),
                      seqArg(e.seq));
            break;
        case PipeEventKind::Wakeup:
            w.instant(kTidWakeup, e.tick, pipeEventName(e.kind),
                      seqLinkArg(e.seq, "producer", e.link));
            break;
        case PipeEventKind::Select: {
            std::ostringstream args;
            args << "\"seq\":" << e.seq << ",\"egpw_speculative\":"
                 << ((e.arg & 1u) != 0 ? "true" : "false");
            w.instant(kTidSelect, e.tick, pipeEventName(e.kind),
                      args.str());
            break;
        }
        case PipeEventKind::ExecBegin:
            exec_begin[e.seq] = {e.tick, e.arg};
            break;
        case PipeEventKind::Writeback: {
            const auto it = exec_begin.find(e.seq);
            if (it == exec_begin.end()) {
                // Frontend-resolved op (branch/HALT) or the ExecBegin
                // fell off the ring: degrade to an instant.
                w.instant(kTidFrontend, e.tick, pipeEventName(e.kind),
                          seqArg(e.seq));
                break;
            }
            const auto [start, ci_begin] = it->second;
            exec_begin.erase(it);
            const FuClass fc = fuClass(trace.inst(e.seq).op);
            std::ostringstream args;
            args << "\"seq\":" << e.seq
                 << ",\"ci_begin\":" << unsigned{ci_begin}
                 << ",\"ci_end\":" << unsigned{e.arg} << ",\"disasm\":\""
                 << escapeJson(disassemble(trace.inst(e.seq))) << "\"";
            w.span(kTidExecBase + static_cast<unsigned>(fc), start,
                   std::max<Tick>(e.tick - start, 1),
                   opcodeName(trace.inst(e.seq).op), args.str());
            break;
        }
        case PipeEventKind::Commit:
            w.instant(kTidCommit, e.tick, pipeEventName(e.kind),
                      seqArg(e.seq));
            break;
        case PipeEventKind::Squash:
            w.instant(kTidRecovery, e.tick, pipeEventName(e.kind),
                      seqArg(e.seq));
            break;
        case PipeEventKind::EgpwArm:
            w.instant(kTidRedsoc, e.tick, pipeEventName(e.kind),
                      seqLinkArg(e.seq, "grandparent", e.link));
            break;
        case PipeEventKind::EgpwFire:
            w.instant(kTidRedsoc, e.tick, pipeEventName(e.kind),
                      seqArg(e.seq));
            break;
        case PipeEventKind::EgpwWaste: {
            std::ostringstream args;
            args << "\"seq\":" << e.seq << ",\"reason\":\""
                 << (e.arg == 0 ? "no_slack" : "span_denied") << "\"";
            w.instant(kTidRedsoc, e.tick, pipeEventName(e.kind),
                      args.str());
            break;
        }
        case PipeEventKind::TransparentPass: {
            std::ostringstream args;
            args << "\"seq\":" << e.seq << ",\"ci\":" << unsigned{e.arg};
            w.instant(kTidRedsoc, e.tick, pipeEventName(e.kind),
                      args.str());
            break;
        }
        case PipeEventKind::RecycleLink:
            w.instant(kTidRedsoc, e.tick, pipeEventName(e.kind),
                      seqLinkArg(e.seq, "producer", e.link));
            break;
        case PipeEventKind::Fuse:
            w.instant(kTidRedsoc, e.tick, pipeEventName(e.kind),
                      seqLinkArg(e.seq, "producer", e.link));
            break;
        case PipeEventKind::Replay: {
            std::ostringstream args;
            args << "\"seq\":" << e.seq << ",\"cause\":\""
                 << (e.arg == 1 ? "last_arrival" : "width") << "\"";
            w.instant(kTidRecovery, e.tick, pipeEventName(e.kind),
                      args.str());
            break;
        }
        case PipeEventKind::NUM:
            break;
        }
    });

    os << "\n]}\n";
}

void
exportKonata(const PipeTracer &tracer, const Trace &trace, std::ostream &os)
{
    const Tick tpc = tracer.ticksPerCycle();
    const auto cycleOf = [tpc](Tick tick) { return tick / tpc; };

    // Pass 1: reassemble per-op timelines (std::map => seq order).
    std::map<SeqNum, OpTimeline> ops;
    tracer.forEach([&](const PipeEvent &e) {
        OpTimeline &op = ops[e.seq];
        // No default: -Werror=switch enforces completeness.
        switch (e.kind) {
        case PipeEventKind::Fetch:
            op.has_fetch = true;
            op.fetch = cycleOf(e.tick);
            break;
        case PipeEventKind::Decode:
        case PipeEventKind::Rename:
        case PipeEventKind::Dispatch:
            // Same cycle as Fetch in this model; the ladder below
            // renders the shared frontend macro-stage as F.
            break;
        case PipeEventKind::Wakeup:
            op.has_wake = true;
            op.wake = cycleOf(e.tick);
            op.wake_link = e.link;
            break;
        case PipeEventKind::Select:
            op.has_select = true;
            op.select = cycleOf(e.tick);
            op.spec_select = (e.arg & 1u) != 0;
            break;
        case PipeEventKind::ExecBegin:
            op.has_exec = true;
            op.exec_start = e.tick;
            op.ci_begin = e.arg;
            break;
        case PipeEventKind::Writeback:
            op.has_wb = true;
            op.complete = e.tick;
            op.ci_end = e.arg;
            break;
        case PipeEventKind::Commit:
            op.has_commit = true;
            op.commit = cycleOf(e.tick);
            break;
        case PipeEventKind::Squash:
            op.squashed = true;
            op.squash = cycleOf(e.tick);
            break;
        case PipeEventKind::EgpwArm:
            ++op.egpw_arms;
            break;
        case PipeEventKind::EgpwFire:
            op.egpw_fire = true;
            break;
        case PipeEventKind::EgpwWaste:
            ++op.egpw_wastes;
            break;
        case PipeEventKind::TransparentPass:
            op.transparent = true;
            break;
        case PipeEventKind::RecycleLink:
            op.recycle_link = e.link;
            break;
        case PipeEventKind::Fuse:
            op.fuse_link = e.link;
            break;
        case PipeEventKind::Replay:
            if (e.arg == 1)
                ++op.replays_la;
            else
                ++op.replays_width;
            break;
        case PipeEventKind::NUM:
            break;
        }
    });

    // Pass 2: flatten into (cycle, command) pairs. Commands are
    // appended in seq order, and the sort below is stable, so output
    // order is deterministic: by cycle, then by seq.
    std::vector<std::pair<Cycle, std::string>> cmds;
    u64 retire_id = 0;
    for (const auto &[seq, op] : ops) {
        if (!op.has_fetch)
            continue; // fell off the ring; cannot be introduced late
        const auto cmd = [&cmds](Cycle cycle, std::string text) {
            cmds.emplace_back(cycle, std::move(text));
        };
        std::ostringstream id;
        id << seq;
        const std::string sid = id.str();

        std::ostringstream intro;
        intro << "I\t" << sid << "\t" << sid << "\t0";
        cmd(op.fetch, intro.str());

        std::ostringstream label;
        label << "L\t" << sid << "\t0\t" << seq << ": "
              << disassemble(trace.inst(seq));
        cmd(op.fetch, label.str());

        std::ostringstream detail;
        detail << "L\t" << sid << "\t1\t";
        if (op.has_exec)
            detail << " ci_begin=" << unsigned{op.ci_begin};
        if (op.has_wb)
            detail << " ci_end=" << unsigned{op.ci_end};
        if (op.transparent)
            detail << " transparent_pass";
        if (op.recycle_link != kNoSeq)
            detail << " recycle_link=" << op.recycle_link;
        if (op.egpw_fire)
            detail << " egpw_fire";
        if (op.spec_select)
            detail << " egpw_speculative_select";
        if (op.egpw_arms != 0)
            detail << " egpw_arm=" << op.egpw_arms;
        if (op.egpw_wastes != 0)
            detail << " egpw_waste=" << op.egpw_wastes;
        if (op.fuse_link != kNoSeq)
            detail << " fused_with=" << op.fuse_link;
        if (op.has_wake && op.wake_link != kNoSeq)
            detail << " woken_by=" << op.wake_link;
        if (op.replays_la != 0)
            detail << " replay_la=" << op.replays_la;
        if (op.replays_width != 0)
            detail << " replay_width=" << op.replays_width;
        cmd(op.fetch, detail.str());

        cmd(op.fetch, "S\t" + sid + "\t0\tF");
        if (op.has_select) {
            if (op.select > op.fetch + 1)
                cmd(op.fetch + 1, "S\t" + sid + "\t0\tDs");
            cmd(op.select, "S\t" + sid + "\t0\tIs");
        }
        if (op.has_exec)
            cmd(cycleOf(op.exec_start), "S\t" + sid + "\t0\tEx");
        if (op.has_wb)
            cmd(op.complete / tpc, "S\t" + sid + "\t0\tWb");
        if (op.recycle_link != kNoSeq && op.has_select) {
            std::ostringstream dep;
            dep << "W\t" << sid << "\t" << op.recycle_link << "\t0";
            cmd(op.select, dep.str());
        }
        if (op.has_commit) {
            cmd(op.commit, "S\t" + sid + "\t0\tCm");
            std::ostringstream ret;
            ret << "R\t" << sid << "\t" << retire_id++ << "\t0";
            cmd(op.commit, ret.str());
        } else {
            // In flight when the run (or the ring window) ended:
            // flush the lane so Konata closes it.
            Cycle last = op.fetch;
            if (op.has_select)
                last = std::max(last, op.select);
            if (op.has_wb)
                last = std::max(last, op.complete / tpc);
            if (op.squashed)
                last = std::max(last, op.squash);
            std::ostringstream ret;
            ret << "R\t" << sid << "\t" << retire_id++ << "\t1";
            cmd(last, ret.str());
        }
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
               const PipeTracer &tracer, const Trace &trace)
{
    std::ofstream ofs(path, std::ios::binary);
    fatal_if(!ofs, "cannot open trace output file '", path, "'");
    if (format == TraceFormat::Chrome)
        exportChromeTrace(tracer, trace, ofs);
    else
        exportKonata(tracer, trace, ofs);
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

namespace {
std::atomic<u64> g_truncated_runs{0};
std::atomic<u64> g_truncated_events{0};
} // namespace

u64
TraceEnv::noteTruncatedRun(u64 dropped_events)
{
    g_truncated_events.fetch_add(dropped_events,
                                 std::memory_order_relaxed);
    return g_truncated_runs.fetch_add(1, std::memory_order_relaxed) + 1;
}

u64
TraceEnv::truncatedRuns()
{
    return g_truncated_runs.load(std::memory_order_relaxed);
}

u64
TraceEnv::truncatedEvents()
{
    return g_truncated_events.load(std::memory_order_relaxed);
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
        if (const char *cap = std::getenv("REDSOC_TRACE_CAP")) {
            char *end = nullptr;
            const unsigned long long v = std::strtoull(cap, &end, 10);
            fatal_if(end == cap || *end != '\0' || v == 0,
                     "REDSOC_TRACE_CAP must be a positive integer, "
                     "got '", cap, "'");
            e.capacity = static_cast<size_t>(v);
        }
        return e;
    }();
    return env;
}

} // namespace redsoc
