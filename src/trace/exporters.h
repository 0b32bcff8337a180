/**
 * @file
 * Trace exporters: render a finished GraphRecorder run as
 *
 *  - Chrome `trace_event` JSON (open in chrome://tracing or Perfetto;
 *    one track per pipeline stage and per FU class, execution spans
 *    as complete events at tick resolution), or
 *  - Konata/Kanata text (pipeline visualization in Konata; per-op
 *    stage ladder with recycle-link dependency arrows and ReDSOC
 *    annotations in the mouse-over label).
 *
 * Both exporters are pure functions of the (recorder, trace) pair and
 * deterministic: the same run exports byte-identical files, which is
 * what lets the golden-snapshot test compare Scan- and Event-kernel
 * traces exactly. The recorder holds every op of the run, so an
 * export is never truncated; the run must have completed.
 */

#ifndef REDSOC_TRACE_EXPORTERS_H
#define REDSOC_TRACE_EXPORTERS_H

#include <iosfwd>
#include <optional>
#include <string>

#include "func/trace.h"
#include "trace/graph_recorder.h"

namespace redsoc {

enum class TraceFormat : u8 { Chrome, Konata };

/** "chrome" / "konata" (also accepts "kanata"); nullopt otherwise. */
std::optional<TraceFormat> parseTraceFormat(const std::string &text);

/** Canonical file extension (".trace.json" / ".kanata"). */
const char *traceFormatExtension(TraceFormat format);

/** Pick a format for @p path: *.json => Chrome, else Konata. */
TraceFormat traceFormatForPath(const std::string &path);

/** Chrome trace_event JSON ("traceEvents" array form). */
void exportChromeTrace(const GraphRecorder &rec, const Trace &trace,
                       std::ostream &os);

/** Konata (Kanata 0004) pipeline-visualizer text. */
void exportKonata(const GraphRecorder &rec, const Trace &trace,
                  std::ostream &os);

/** Export to @p path in @p format; fatal() on I/O failure. */
void writeTraceFile(const std::string &path, TraceFormat format,
                    const GraphRecorder &rec, const Trace &trace);

/** @p key with every filesystem-hostile character replaced by '_'
 *  (run keys become file names under REDSOC_TRACE_DIR); a result
 *  longer than 200 bytes is cut and suffixed with the key's FNV-1a
 *  hash. */
std::string sanitizeTraceFileName(const std::string &key);

/**
 * Process-wide tracing request, read once from the environment:
 *   REDSOC_TRACE_DIR    directory to drop one trace per simulated
 *                       point into (SimDriver honours this for every
 *                       cache-miss run, so any harness is traceable
 *                       without code changes);
 *   REDSOC_TRACE_FORMAT "chrome" | "konata" (default konata).
 */
struct TraceEnv
{
    bool active = false;
    std::string dir;
    TraceFormat format = TraceFormat::Konata;

    static const TraceEnv &get();
};

} // namespace redsoc

#endif // REDSOC_TRACE_EXPORTERS_H
