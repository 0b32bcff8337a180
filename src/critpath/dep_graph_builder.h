/**
 * @file
 * Dependence-graph construction from one recorded run.
 * DepGraphBuilder is a GraphRecorder (trace/graph_recorder.h):
 * attached to a core (OooCore::setRecorder), it takes the core's
 * hooks, which write milestone ticks, op flags, the core's own
 * renamed producer sets, the RS grant order, the per-pool grant
 * orders, fuse links and commits straight into its arrays.
 *
 * finalize() then emits the per-node CSR in one pass in op order.
 * Commits are in order and no dispatched op is ever squashed, so by
 * then every fact an op's edges read is final; the RsCap, LsqCap and
 * MemOrder sources are derived in the same pass from the RS grant
 * order, the memory ops' program order and the stores' select ticks.
 */

#ifndef REDSOC_CRITPATH_DEP_GRAPH_BUILDER_H
#define REDSOC_CRITPATH_DEP_GRAPH_BUILDER_H

#include "core/core_config.h"
#include "critpath/dep_graph.h"
#include "func/trace.h"
#include "trace/graph_recorder.h"

namespace redsoc {

class DepGraphBuilder : public GraphRecorder
{
  public:
    /** @p trace and @p config must outlive the builder; they describe
     *  the run it will record. */
    DepGraphBuilder(const Trace &trace, const CoreConfig &config);

    /** Freeze and return the graph. Every op of the trace must have
     *  committed (the run completed); the builder resets when the
     *  next run begins. */
    DepGraph finalize();

  private:
    const CoreConfig *config_;
};

} // namespace redsoc

#endif // REDSOC_CRITPATH_DEP_GRAPH_BUILDER_H
