#include "trace/pipe_tracer.h"

#include <algorithm>

#include "common/logging.h"

namespace redsoc {

const char *
pipeEventName(PipeEventKind kind)
{
    switch (kind) {
    case PipeEventKind::Fetch: return "fetch";
    case PipeEventKind::Decode: return "decode";
    case PipeEventKind::Rename: return "rename";
    case PipeEventKind::Dispatch: return "dispatch";
    case PipeEventKind::Wakeup: return "wakeup";
    case PipeEventKind::Select: return "select";
    case PipeEventKind::ExecBegin: return "exec_begin";
    case PipeEventKind::Writeback: return "writeback";
    case PipeEventKind::Commit: return "commit";
    case PipeEventKind::Squash: return "squash";
    case PipeEventKind::EgpwArm: return "egpw_arm";
    case PipeEventKind::EgpwFire: return "egpw_fire";
    case PipeEventKind::EgpwWaste: return "egpw_waste";
    case PipeEventKind::TransparentPass: return "transparent_pass";
    case PipeEventKind::RecycleLink: return "recycle_link";
    case PipeEventKind::Fuse: return "fuse";
    case PipeEventKind::Replay: return "replay";
    case PipeEventKind::NUM: break;
    }
    return "unknown";
}

PipeTracer::PipeTracer(size_t capacity)
    : ring_(std::max<size_t>(capacity, 1))
{
    fatal_if(capacity == 0, "PipeTracer capacity must be positive");
}

void
PipeTracer::beginRun(Tick ticks_per_cycle)
{
    head_ = 0;
    size_ = 0;
    dropped_ = 0;
    ticks_per_cycle_ = ticks_per_cycle;
    if (sink_)
        sink_->onBeginRun(ticks_per_cycle);
    if (recorder_)
        recorder_->beginRun(ticks_per_cycle);
}

void
PipeTracer::dispatch(SeqNum seq, Tick tick, u16, u8)
{
    // The frontend is one macro-stage: the conventional stage ladder
    // shares the dispatch tick.
    record(PipeEventKind::Fetch, seq, tick);
    record(PipeEventKind::Decode, seq, tick);
    record(PipeEventKind::Rename, seq, tick);
    record(PipeEventKind::Dispatch, seq, tick);
}

void
PipeTracer::frontendWriteback(SeqNum seq, Tick tick)
{
    record(PipeEventKind::Writeback, seq, tick, ciArg(tick));
}

void
PipeTracer::laReplay(SeqNum seq, Tick tick)
{
    record(PipeEventKind::Replay, seq, tick, 1);
}

void
PipeTracer::egpwWaste(SeqNum seq, Tick tick, u8 reason)
{
    record(PipeEventKind::EgpwWaste, seq, tick, reason);
}

void
PipeTracer::fuse(SeqNum seq, Tick tick, SeqNum producer)
{
    record(PipeEventKind::Fuse, seq, tick, 0, producer);
}

void
PipeTracer::commit(SeqNum seq, Tick tick, bool mispredicted)
{
    record(PipeEventKind::Commit, seq, tick, mispredicted ? u8{1} : u8{0});
}

std::vector<PipeEvent>
PipeTracer::events() const
{
    std::vector<PipeEvent> out;
    out.reserve(size_);
    forEach([&out](const PipeEvent &e) { out.push_back(e); });
    return out;
}

} // namespace redsoc
