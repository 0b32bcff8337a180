/**
 * @file
 * SimDriver: the top-level experiment orchestrator used by the
 * examples and the benchmark harness. Caches workload traces and
 * core runs so a figure's full (workload x core x mode) matrix only
 * simulates each point once — and, since every point is an
 * independent single-threaded simulation, fans batches out across a
 * fixed thread pool:
 *
 *  - run()/trace() are safe to call from any number of threads; each
 *    (workload, configKey) point simulates exactly once behind a
 *    per-key std::shared_future, trace construction likewise;
 *  - prefetch()/runAll() enumerate a matrix up front and saturate
 *    the global pool's workers (one per CPU the process may use) with
 *    it;
 *  - when REDSOC_CACHE_DIR is set, finished points persist to an
 *    on-disk cache shared across processes (see run_cache.h).
 *
 * Batch results are bit-identical to serial runs: parallelism only
 * reorders which deterministic point simulates when.
 */

#ifndef REDSOC_SIM_DRIVER_H
#define REDSOC_SIM_DRIVER_H

#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "core/ooo_core.h"
#include "proc/processor.h"
#include "sim/run_cache.h"
#include "trace/graph_recorder.h"
#include "workloads/registry.h"

namespace redsoc {

class SimDriver
{
  public:
    explicit SimDriver(SeqNum max_ops = 2'000'000);

    /** One cell of a simulation matrix. */
    struct Point
    {
        std::string workload;
        CoreConfig config;
    };

    /** The functional trace of a workload (built and cached; safe to
     *  call concurrently — one thread builds, the rest wait). */
    const Trace &trace(const std::string &workload);

    /** Simulate (cached by workload + configuration fingerprint;
     *  concurrency-safe, each point simulates exactly once). */
    const CoreStats &run(const std::string &workload,
                         const CoreConfig &config);

    /**
     * Simulate one point into @p recorder, bypassing both the
     * in-memory and disk result caches (a cache hit would yield stats
     * without a record). The trace cache is still used. The recorded
     * run is the caller's to export; the returned stats are
     * byte-identical to an unrecorded run() of the same point.
     */
    CoreStats runTraced(const std::string &workload,
                        const CoreConfig &config, GraphRecorder &recorder);

    /**
     * Simulate every point of a matrix across the process-wide
     * thread pool, blocking until all are cached. Later run() calls
     * on the same points are pure lookups. Call from a non-pool
     * thread (the harness main).
     */
    void prefetch(const std::vector<Point> &points);

    /** prefetch() + collect the stats of each point, in order. */
    std::vector<CoreStats> runAll(const std::vector<Point> &points);

    /** Build the traces of many workloads in parallel. */
    void prefetchTraces(const std::vector<std::string> &workloads);

    /**
     * Simulate a multi-programmed mix on an N-core Processor: core i
     * runs workload mix[i % mix.size()] (so a short mix tiles across
     * the cores). Cached exactly like run() — in memory behind a
     * per-key shared_future and on disk as a ".pstats" entry — and
     * deterministic regardless of host thread count (the Processor
     * lockstep is sequential).
     */
    const ProcStats &runProc(const std::vector<std::string> &mix,
                             const ProcConfig &config);

    /**
     * Wall-clock-equivalent speedup of @p variant over @p base on a
     * workload (same clock period: cycle ratio).
     */
    double speedup(const std::string &workload, const CoreConfig &base,
                   const CoreConfig &variant);

    /** Arithmetic mean (the paper reports arithmetic suite means). */
    static double mean(const std::vector<double> &values);

    /** Configuration fingerprint used as the cache key: every leaf
     *  of the CoreConfig visitor as "path=value" (common/fields.h),
     *  so no two configs that differ in any field share a key. */
    static std::string configKey(const CoreConfig &config);

    /** Multi-core fingerprint: every ProcConfig leaf, the core
     *  template's included. */
    static std::string procConfigKey(const ProcConfig &config);

    /** Full run key: workload @ configKey # trace length cap. */
    std::string runKey(const std::string &workload,
                       const CoreConfig &config) const;

    /** Full multi-core run key: the '+'-joined mix @ procConfigKey
     *  # trace length cap. */
    std::string procRunKey(const std::vector<std::string> &mix,
                           const ProcConfig &config) const;

    SeqNum maxOps() const { return max_ops_; }

  private:
    std::shared_future<Trace> traceFuture(const std::string &workload);
    std::shared_future<CoreStats> runFuture(const std::string &workload,
                                            const CoreConfig &config);
    std::shared_future<ProcStats>
    procFuture(const std::vector<std::string> &mix,
               const ProcConfig &config);

    // Both immutable after the constructor; RunCache itself is
    // stateless (every method const, on-disk writes are atomic
    // renames), so concurrent use needs no lock.
    SeqNum max_ops_ REDSOC_NOT_GUARDED;
    std::optional<RunCache> disk_cache_ REDSOC_NOT_GUARDED;

    // mu_ only guards the future maps: a point's slot is claimed
    // under the lock, but the simulation itself runs unlocked and
    // waiters block on the shared_future, never on mu_.
    std::mutex mu_;
    std::map<std::string, std::shared_future<Trace>> traces_
        REDSOC_GUARDED_BY(mu_);
    std::map<std::string, std::shared_future<CoreStats>> results_
        REDSOC_GUARDED_BY(mu_);
    std::map<std::string, std::shared_future<ProcStats>> proc_results_
        REDSOC_GUARDED_BY(mu_);
};

/** Convenience: preset core with a scheduler mode applied. */
CoreConfig configFor(const std::string &core_name, SchedMode mode);

} // namespace redsoc

#endif // REDSOC_SIM_DRIVER_H
