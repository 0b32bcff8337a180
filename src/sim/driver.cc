#include "sim/driver.h"


#include "common/logging.h"
#include "common/shutdown.h"
#include "sim/thread_pool.h"
#include "trace/exporters.h"

namespace redsoc {

SimDriver::SimDriver(SeqNum max_ops)
    : max_ops_(max_ops), disk_cache_(RunCache::fromEnv())
{
}

std::shared_future<Trace>
SimDriver::traceFuture(const std::string &workload)
{
    std::promise<Trace> prom;
    std::shared_future<Trace> fut = prom.get_future().share();
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto [it, inserted] = traces_.try_emplace(workload, fut);
        if (!inserted)
            return it->second; // someone else is (or was) building it
    }
    // We claimed the slot: build outside the lock; waiters block on
    // the shared future (the per-workload latch).
    try {
        prom.set_value(traceWorkload(workload, max_ops_));
    } catch (...) {
        prom.set_exception(std::current_exception());
    }
    return fut;
}

const Trace &
SimDriver::trace(const std::string &workload)
{
    return traceFuture(workload).get();
}

std::string
SimDriver::configKey(const CoreConfig &config)
{
    return fieldsText(config);
}

std::string
SimDriver::procConfigKey(const ProcConfig &config)
{
    return fieldsText(config);
}

std::string
SimDriver::runKey(const std::string &workload,
                  const CoreConfig &config) const
{
    return workload + "@" + configKey(config) +
           "#ops=" + std::to_string(max_ops_);
}

std::string
SimDriver::procRunKey(const std::vector<std::string> &mix,
                      const ProcConfig &config) const
{
    std::string joined;
    for (const std::string &w : mix) {
        if (!joined.empty())
            joined += '+';
        joined += w;
    }
    return joined + "@" + procConfigKey(config) +
           "#ops=" + std::to_string(max_ops_);
}

std::shared_future<CoreStats>
SimDriver::runFuture(const std::string &workload,
                     const CoreConfig &config)
{
    const std::string key = runKey(workload, config);
    std::promise<CoreStats> prom;
    std::shared_future<CoreStats> fut = prom.get_future().share();
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto [it, inserted] = results_.try_emplace(key, fut);
        if (!inserted)
            return it->second; // point already claimed: share it
    }
    try {
        if (disk_cache_) {
            if (auto hit = disk_cache_->load(key)) {
                prom.set_value(std::move(*hit));
                return fut;
            }
        }
        OooCore core(config);
        const TraceEnv &tenv = TraceEnv::get();
        CoreStats stats;
        if (tenv.active) {
            // REDSOC_TRACE_DIR: any harness drops one pipeline trace
            // per simulated (cache-miss) point, no code changes
            // needed. Tracing is behavior-neutral, so the stats stay
            // cacheable.
            GraphRecorder rec(trace(workload).size());
            core.setRecorder(&rec);
            stats = core.run(trace(workload));
            writeTraceFile(tenv.dir + "/" + sanitizeTraceFileName(key) +
                               traceFormatExtension(tenv.format),
                           tenv.format, rec, trace(workload));
        } else {
            stats = core.run(trace(workload));
        }
        if (disk_cache_)
            disk_cache_->store(key, stats);
        prom.set_value(std::move(stats));
    } catch (...) {
        prom.set_exception(std::current_exception());
    }
    return fut;
}

const CoreStats &
SimDriver::run(const std::string &workload, const CoreConfig &config)
{
    return runFuture(workload, config).get();
}

std::shared_future<ProcStats>
SimDriver::procFuture(const std::vector<std::string> &mix,
                      const ProcConfig &config)
{
    const std::string key = procRunKey(mix, config);
    std::promise<ProcStats> prom;
    std::shared_future<ProcStats> fut = prom.get_future().share();
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto [it, inserted] = proc_results_.try_emplace(key, fut);
        if (!inserted)
            return it->second; // point already claimed: share it
    }
    try {
        panic_if(mix.empty(), "empty workload mix");
        if (disk_cache_) {
            if (auto hit = disk_cache_->loadProc(key)) {
                prom.set_value(std::move(*hit));
                return fut;
            }
        }
        // Build the mix's traces first (shared with single-core runs
        // of the same workloads), then run the sequential lockstep.
        std::vector<const Trace *> traces;
        traces.reserve(config.num_cores);
        for (unsigned i = 0; i < config.num_cores; ++i)
            traces.push_back(&trace(mix[i % mix.size()]));
        Processor proc(config);
        ProcStats stats = proc.run(traces);
        if (disk_cache_)
            disk_cache_->storeProc(key, stats);
        prom.set_value(std::move(stats));
    } catch (...) {
        prom.set_exception(std::current_exception());
    }
    return fut;
}

const ProcStats &
SimDriver::runProc(const std::vector<std::string> &mix,
                   const ProcConfig &config)
{
    return procFuture(mix, config).get();
}

CoreStats
SimDriver::runTraced(const std::string &workload,
                     const CoreConfig &config, GraphRecorder &recorder)
{
    OooCore core(config);
    core.setRecorder(&recorder);
    return core.run(trace(workload));
}

void
SimDriver::prefetch(const std::vector<Point> &points)
{
    if (points.empty())
        return;
    ThreadPool &pool = globalSimPool();
    for (const Point &p : points) {
        if (shutdownRequested())
            break; // stop feeding the queue once a signal arrived
        pool.submit([this, p] {
            // Queued before the signal, started after: skip instead of
            // simulating, so a shutdown drains the backlog in
            // milliseconds. The point stays uncomputed (and uncached).
            if (shutdownRequested())
                return;
            (void)run(p.workload, p.config);
        });
    }
    pool.wait();
}

std::vector<CoreStats>
SimDriver::runAll(const std::vector<Point> &points)
{
    prefetch(points);
    // Don't silently re-simulate skipped points synchronously — an
    // interrupted batch is an interrupted batch.
    if (shutdownRequested())
        throw ShutdownInterrupt();
    std::vector<CoreStats> out;
    out.reserve(points.size());
    for (const Point &p : points)
        out.push_back(run(p.workload, p.config));
    return out;
}

void
SimDriver::prefetchTraces(const std::vector<std::string> &workloads)
{
    if (workloads.empty())
        return;
    ThreadPool &pool = globalSimPool();
    for (const std::string &w : workloads) {
        if (shutdownRequested())
            break;
        pool.submit([this, w] {
            if (shutdownRequested())
                return;
            (void)trace(w);
        });
    }
    pool.wait();
}

double
SimDriver::speedup(const std::string &workload, const CoreConfig &base,
                   const CoreConfig &variant)
{
    const CoreStats &b = run(workload, base);
    const CoreStats &v = run(workload, variant);
    panic_if(v.cycles == 0, "zero-cycle run");
    return static_cast<double>(b.cycles) / static_cast<double>(v.cycles);
}

double
SimDriver::mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

CoreConfig
configFor(const std::string &core_name, SchedMode mode)
{
    CoreConfig config = coreByName(core_name);
    config.mode = mode;
    return config;
}

} // namespace redsoc
