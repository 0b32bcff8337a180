/**
 * @file
 * The per-op pipeline event tracer: a preallocated ring buffer of
 * PipeEvent records. Recording is designed for the simulator's hot
 * path: the buffer is allocated once, record() is header-inline, and
 * its first statement is `if (!enabled_) return`. The core reports
 * through the typed hook set (trace/graph_recorder.h); the tracer's
 * hooks expand each call into the events of that moment. A detached
 * core costs one predictably-not-taken branch per hook site and
 * nothing else. The trace-off differential suite
 * (tests/test_trace_equiv.cc) proves the attached path is
 * behavior-neutral too: CoreStats and the commit-schedule checksum
 * are byte-identical with and without a tracer.
 *
 * When the buffer wraps, the oldest events are overwritten and
 * counted in droppedEvents(): a bounded trace keeps the *tail* of the
 * run, which is the window that matters when debugging how a run
 * ended. Exporters surface the dropped count so truncation is never
 * silent, and redsoc_sim prints a loud stderr warning when an export
 * is truncated.
 *
 * Consumers that must see the COMPLETE stream, not just the ring's
 * retained tail, attach a streaming TraceSink: record() forwards
 * every event to the sink before ring-wrap bookkeeping, so a sink's
 * view is never bounded by the ring capacity. The critical-path graph
 * builder (src/critpath) attaches the same way but is a GraphRecorder,
 * not a sink: the core then calls the recorder's hooks instead of the
 * tracer's, and the ring stays empty.
 */

#ifndef REDSOC_TRACE_PIPE_TRACER_H
#define REDSOC_TRACE_PIPE_TRACER_H

#include <cstddef>
#include <vector>

#include "trace/graph_recorder.h"
#include "trace/trace_events.h"

namespace redsoc {

/**
 * Streaming observer of the pipeline event stream. A sink attached
 * to a PipeTracer receives every record()ed event in emission order,
 * regardless of ring capacity: the ring may wrap and drop its head,
 * the sink never misses an event. onBeginRun() mirrors
 * PipeTracer::beginRun() so a sink can reset per-run state.
 *
 * Emission order is NOT globally tick-sorted: the core emits
 * ExecBegin/Writeback at issue time with their (future) scheduled
 * ticks. Sinks that need time-ordered views must reassemble per-op
 * state, keyed by seq (commit order equals seq order).
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** A fresh core run began at @p ticks_per_cycle resolution. */
    virtual void onBeginRun(Tick ticks_per_cycle) = 0;

    /** One event, in emission order, before any ring overwrite. */
    virtual void onEvent(const PipeEvent &event) = 0;
};

class PipeTracer
{
  public:
    /** Default capacity: 1M 32-byte events (32 MiB), enough for
     *  ~100k ops. */
    static constexpr size_t kDefaultCapacity = size_t{1} << 20;

    explicit PipeTracer(size_t capacity = kDefaultCapacity);

    /** Reset for a fresh core run; @p ticks_per_cycle is the run's
     *  sub-cycle resolution (needed by exporters and metrics). */
    void beginRun(Tick ticks_per_cycle);

    bool enabled() const { return enabled_; }
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Attach (or detach, with nullptr) a streaming sink. The sink
     *  sees every event of every subsequent run; the caller keeps
     *  ownership and must outlive the tracer's recording. Replaces an
     *  attached recorder. */
    void setSink(TraceSink *sink)
    {
        sink_ = sink;
        recorder_ = nullptr;
    }
    /** Attach a graph recorder instead: an enabled tracer hands it to
     *  the core at the next run's start, the core calls its hooks
     *  directly, and the ring records nothing. Replaces a sink. */
    void setSink(GraphRecorder *recorder)
    {
        recorder_ = recorder;
        sink_ = nullptr;
    }
    /** Detach whichever is attached. */
    void setSink(std::nullptr_t)
    {
        sink_ = nullptr;
        recorder_ = nullptr;
    }
    GraphRecorder *recorder() const { return recorder_; }

    /** Record one event. The off path is a single branch. */
    void record(PipeEventKind kind, SeqNum seq, Tick tick, u8 arg = 0,
                SeqNum link = kNoSeq)
    {
        if (!enabled_)
            return;
        PipeEvent &e = ring_[head_];
        e.tick = tick;
        e.seq = seq;
        e.link = link;
        e.kind = kind;
        e.arg = arg;
        if (sink_)
            sink_->onEvent(e);
        ++head_;
        if (head_ == ring_.size())
            head_ = 0;
        if (size_ < ring_.size())
            ++size_;
        else
            ++dropped_;
    }

    // --- The hook set (trace/graph_recorder.h), as events ----------
    // Out of line where no callable is passed: the core inlines every
    // hook call at its site, and the ring is the debugging path.

    void dispatch(SeqNum seq, Tick tick, u16 op_flags, u8 pool);
    void frontendWriteback(SeqNum seq, Tick tick);

    template <typename WakeFn>
    void issue(const IssueRecord &op, WakeFn &&wake)
    {
        if (!enabled_)
            return;
        const WakeRecord w = wake();
        const SeqNum seq = op.seq;
        record(PipeEventKind::Wakeup, seq, w.tick, 0, w.last);
        record(PipeEventKind::Select, seq, op.select,
               op.speculative ? u8{1} : u8{0});
        if (op.speculative)
            record(PipeEventKind::EgpwFire, seq, op.select);
        if (op.transparent) {
            record(PipeEventKind::TransparentPass, seq, op.start,
                   ciArg(op.start));
            record(PipeEventKind::RecycleLink, seq, op.start, 0, w.last);
        }
        if (op.width_replayed)
            record(PipeEventKind::Replay, seq, op.select, 2);
        record(PipeEventKind::ExecBegin, seq, op.start, ciArg(op.start));
        record(PipeEventKind::Writeback, seq, op.done, ciArg(op.done));
    }

    void laReplay(SeqNum seq, Tick tick);

    template <typename LinkFn>
    void egpwArm(SeqNum seq, Tick tick, LinkFn &&grandparent)
    {
        if (enabled_)
            record(PipeEventKind::EgpwArm, seq, tick, 0, grandparent());
    }

    void egpwWaste(SeqNum seq, Tick tick, u8 reason);
    void fuse(SeqNum seq, Tick tick, SeqNum producer);
    void commit(SeqNum seq, Tick tick, bool mispredicted);

    size_t capacity() const { return ring_.size(); }
    size_t size() const { return size_; }
    /** Events overwritten after the ring wrapped (0 = complete).
     *  This is the metrics-path truncation signal: a nonzero count
     *  means any export of the retained ring is missing the head of
     *  the run (attached TraceSinks still saw everything). */
    u64 droppedEvents() const { return dropped_; }
    Tick ticksPerCycle() const { return ticks_per_cycle_; }

    /** Retained events, oldest first. */
    std::vector<PipeEvent> events() const;

    /** Visit retained events oldest-first without copying. */
    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        const size_t n = size_;
        const size_t start = (head_ + ring_.size() - n) % ring_.size();
        for (size_t i = 0; i < n; ++i)
            fn(ring_[(start + i) % ring_.size()]);
    }

  private:
    /** The sub-cycle CI payload of a tick: less than ticks-per-cycle
     *  (at most 8), so the narrowing is lossless by construction. */
    u8 ciArg(Tick tick) const
    {
        // redsoc-lint: allow(cycle-narrow)
        return static_cast<u8>(tick & (ticks_per_cycle_ - 1));
    }

    std::vector<PipeEvent> ring_;
    TraceSink *sink_ = nullptr;
    GraphRecorder *recorder_ = nullptr;
    size_t head_ = 0;
    size_t size_ = 0;
    u64 dropped_ = 0;
    Tick ticks_per_cycle_ = 8;
    bool enabled_ = true;
};

} // namespace redsoc

#endif // REDSOC_TRACE_PIPE_TRACER_H
