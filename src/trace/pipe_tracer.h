/**
 * @file
 * PipeTracer: an attach point that carries one GraphRecorder to a
 * core (OooCore::setTracer). It records nothing itself: the core calls
 * the recorder's hooks directly, and the exporters and metrics
 * (trace/exporters.h, trace/metrics.h) read the finished recorder.
 * New code attaches a recorder with OooCore::setRecorder; this form
 * stays for callers written against it.
 */

#ifndef REDSOC_TRACE_PIPE_TRACER_H
#define REDSOC_TRACE_PIPE_TRACER_H

#include <cstddef>

#include "trace/graph_recorder.h"

namespace redsoc {

class PipeTracer
{
  public:
    /** The argument was once an event-ring capacity; it sizes
     *  nothing now, since the recorder holds every op. */
    explicit PipeTracer(size_t = 0) {}

    /** Carry @p recorder (nullptr: none) to the next setTracer(). */
    void setSink(GraphRecorder *recorder) { recorder_ = recorder; }
    GraphRecorder *recorder() const { return recorder_; }

  private:
    GraphRecorder *recorder_ = nullptr;
};

} // namespace redsoc

#endif // REDSOC_TRACE_PIPE_TRACER_H
