/**
 * @file
 * N-core processor: a vector of unmodified OooCores (each keeping its
 * private L1 and prefetcher) in front of one shared inclusive LLC and
 * a banked DRAM backend, stepped in deterministic lockstep.
 *
 * Interleaving rule: every simulation step advances the *unfinished
 * core with the smallest current cycle* (ties broken by lowest core
 * id). The loop is purely sequential — no host threads, no wall-clock
 * reads — so an N-core run is a pure function of (config, traces)
 * regardless of host parallelism; tests/test_proc_equiv.cc races
 * several Processors on different threads and byte-compares the
 * serialized results to prove it.
 */

#ifndef REDSOC_PROC_PROCESSOR_H
#define REDSOC_PROC_PROCESSOR_H

#include <memory>
#include <string>
#include <vector>

#include "core/ooo_core.h"
#include "proc/proc_config.h"

namespace redsoc {

/** Result statistics of one multi-core run. */
struct ProcStats
{
    std::vector<CoreStats> cores{}; ///< one slice per core, in id order
    LlcStats llc{};
    Cycle cycles = 0; ///< slowest core's cycle count
};

REDSOC_FIELDS(ProcStats, cores, llc, cycles)

class Processor
{
  public:
    explicit Processor(const ProcConfig &config);

    /**
     * Run one trace per core to completion (multi-programmed mix:
     * @p traces must hold exactly num_cores non-null pointers; traces
     * may repeat — each core replays its own copy of the stream).
     * Throws DeadlockError if any core's no-commit watchdog trips.
     */
    ProcStats run(const std::vector<const Trace *> &traces);

    /** Single-trace convenience: every core runs @p trace. */
    ProcStats run(const Trace &trace);

    /** Attach a recorder to core @p core_id (observation-only,
     *  exactly as OooCore::setRecorder). */
    void setRecorder(unsigned core_id, GraphRecorder *recorder);

    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }
    OooCore &core(unsigned i) { return *cores_[i]; }
    const OooCore &core(unsigned i) const { return *cores_[i]; }
    const ProcConfig &config() const { return config_; }

  private:
    ProcConfig config_;
    std::unique_ptr<SharedLlc> llc_;
    /** unique_ptr: OooCore owns large non-movable internal state. */
    std::vector<std::unique_ptr<OooCore>> cores_;
};

/**
 * Render the LLC contention picture as a table: one row per core with
 * demand mix, cross-core charges (MSHR merges, bank-wait cycles,
 * back-invalidations), footprint census, and the core's slack-vs-miss
 * balance (slack ticks recycled per L1 load miss — the headline
 * "does contention eat the recycling win" ratio).
 */
std::string renderContention(const ProcStats &stats);

} // namespace redsoc

#endif // REDSOC_PROC_PROCESSOR_H
