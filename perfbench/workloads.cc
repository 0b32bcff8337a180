#include "workloads.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "critpath/dep_graph_builder.h"
#include "trace/pipe_tracer.h"
#include "workloads/registry.h"

namespace fs = std::filesystem;
using namespace redsoc;

namespace perfbench {

const std::vector<std::string> kCores = {"big", "medium", "small"};

namespace {

/** bench_critpath's ring size: the sink sees every event regardless. */
constexpr size_t kTracerRing = size_t{1} << 12;

void
freshDir(const std::string &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
}

/** Point the next SimDriver at @p dir (RunCache::fromEnv reads it). */
void
useCacheDir(const std::string &dir)
{
    setenv("REDSOC_CACHE_DIR", dir.c_str(), 1);
}

std::vector<std::string>
workloadsOf(const std::vector<GridPoint> &grid)
{
    std::vector<std::string> names;
    for (const GridPoint &p : grid)
        if (names.empty() || names.back() != p.workload)
            names.push_back(p.workload);
    return names;
}

void
buildTraces(SimDriver &driver, const std::vector<GridPoint> &grid)
{
    for (const std::string &w : workloadsOf(grid)) {
        SpanScope span("func.trace_build");
        (void)driver.trace(w);
    }
}

void
reportFailure(const char *workload, const GridPoint &p, const char *what)
{
    std::fprintf(stderr, "%s: %s/%s/%s thr %u: %s\n", workload,
                 p.workload.c_str(), p.config.name.c_str(),
                 schedModeName(p.config.mode),
                 static_cast<unsigned>(p.config.slack_threshold_ticks),
                 what);
}

/** An untraced OooCore::run of @p p, timed; stats must equal @p want. */
void
plainRun(const GridPoint &p, const Trace &trace, const CoreStats &want)
{
    CoreStats plain;
    {
        SpanScope span("core.run");
        OooCore core(p.config);
        plain = core.run(trace);
        span.close();
        span.setWork(plain.committed);
    }
    if (stableAnswer("", plain) != stableAnswer("", want))
        throw std::runtime_error("a plain core run differs from the op's");
}

} // namespace

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> names;
    for (const redsoc::Workload &w : redsoc::allWorkloads())
        names.push_back(w.name);
    return names;
}

std::vector<GridPoint>
sweepGrid(const std::vector<std::string> &workloads,
          const std::vector<std::string> &cores)
{
    std::vector<GridPoint> grid;
    for (const std::string &w : workloads) {
        for (const std::string &core : cores) {
            grid.push_back({w, configFor(core, SchedMode::Baseline)});
            grid.push_back({w, configFor(core, SchedMode::MOS)});
            for (Tick thr : {2, 4, 6, 8}) {
                CoreConfig red = configFor(core, SchedMode::ReDSOC);
                red.slack_threshold_ticks = thr;
                grid.push_back({w, red});
            }
        }
    }
    return grid;
}

std::vector<WhatIfModel>
whatIfModels()
{
    std::vector<WhatIfModel> models;
    auto add = [&models](const std::string &name, double fu) {
        WhatIfModel m;
        char tag[32];
        std::snprintf(tag, sizeof(tag), "_fu%g", fu);
        m.name = name + tag;
        m.exact_replay = false;
        m.fu_scale = fu;
        models.push_back(m);
        return &models.back();
    };
    for (unsigned ci = 1; ci <= 4; ++ci) {
        for (bool egpw : {true, false}) {
            for (double fu : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0}) {
                WhatIfModel *m = add("ci" + std::to_string(ci) +
                                         (egpw ? "" : "_noegpw"),
                                     fu);
                m->ci_bits = ci;
                m->egpw = egpw;
            }
        }
    }
    for (double fu : {0.5, 1.0, 2.0, 4.0})
        add("ideal_recycle", fu)->zero_latency_recycle = true;
    for (double fu : {0.5, 1.0, 2.0, 4.0})
        add("no_recycle", fu)->no_recycle = true;
    return models;
}

std::string
stableAnswer(const std::string &key, CoreStats stats)
{
    stats.sim_seconds = 0.0;
    return serializeStats(key, stats);
}

// ------------------------------------------------------------ sweep-cold

SweepCold::SweepCold(std::string dir, u64 seed, std::vector<GridPoint> grid,
                     unsigned clients)
    : dir_(std::move(dir)), seed_(seed), grid_(std::move(grid)),
      clients_(clients), slots_(grid_.size())
{
}

bool
SweepCold::setup(unsigned round)
{
    freshDir(cacheDir());
    useCacheDir(cacheDir());
    {
        SpanScope span("driver.open");
        driver_.emplace();
    }
    buildTraces(*driver_, grid_);
    if (tracing()) {
        freshDir(dir_ + "/side");
        side_.emplace(dir_ + "/side");
    }
    order_ = permutation(seed_, round, grid_.size());
    return true;
}

void
SweepCold::teardown()
{
    side_.reset();
    driver_.reset();
    fs::remove_all(cacheDir());
    fs::remove_all(dir_ + "/side");
}

OpResult
SweepCold::op(unsigned /*round*/, size_t k)
{
    const size_t idx = order_.at(k);
    const GridPoint &p = grid_[idx];
    OpResult r;
    r.member = idx;
    std::optional<CoreStats> stats;
    {
        OpTimer timer(r, "op.sweep-cold");
        try {
            // A deadlock throws, and the core's watchdog is the check
            // that the point committed its whole trace.
            SpanScope span("driver.run");
            stats = driver_->run(p.workload, p.config);
            span.close();
            span.setWork(stats->committed);
        } catch (const std::exception &e) {
            reportFailure(name(), p, e.what());
        }
    }
    if (!stats) {
        r.ok = false;
        return r;
    }
    r.committed = stats->committed;
    // A point seen in an earlier round answers byte for byte as then.
    r.ok = slots_.record(
        idx, stableAnswer(driver_->runKey(p.workload, p.config), *stats),
        stats->cycles, stats->committed);
    if (!r.ok)
        reportFailure(name(), p, "wrong answer");
    return r;
}

void
SweepCold::probe(unsigned /*round*/, size_t k)
{
    const GridPoint &p = grid_[order_.at(k)];
    const CoreStats &stats = driver_->run(p.workload, p.config);
    plainRun(p, driver_->trace(p.workload), stats);

    // The run-cache calls a miss makes inside SimDriver::run, on a
    // cache of the probes' own: a load that misses, then the store.
    // The load that follows must hit and give the stats back.
    const std::string key = driver_->runKey(p.workload, p.config);
    bool missed = false;
    {
        SpanScope span("run_cache.miss", false);
        missed = !side_->load(key).has_value();
    }
    {
        SpanScope span("run_cache.store");
        side_->store(key, stats);
        span.close();
        span.setWork(fs::file_size(side_->entryPath(key)));
    }
    std::optional<CoreStats> loaded;
    {
        SpanScope span("run_cache.load", false);
        loaded = side_->load(key);
    }
    if (!missed || !loaded ||
        serializeStats(key, *loaded) != serializeStats(key, stats))
        throw std::runtime_error("run-cache round trip failed for " + key);
}

// ---------------------------------------------------------------- whatif

Whatif::Whatif(u64 seed, const std::vector<std::string> &workloads,
               const std::vector<std::string> &cores)
    : seed_(seed), workloads_(workloads), models_(whatIfModels())
{
    for (const std::string &w : workloads)
        for (const std::string &core : cores)
            points_.push_back({w, configFor(core, SchedMode::ReDSOC)});
    slots_.reset(points_.size());
    traced_.resize(points_.size());
}

bool
Whatif::setup(unsigned round)
{
    for (const std::string &w : workloads_) {
        SpanScope span("func.trace_build");
        traces_.emplace(w, traceWorkload(w));
    }
    order_ = permutation(seed_, round, points_.size());
    return true;
}

void
Whatif::teardown()
{
    traces_.clear();
}

OpResult
Whatif::op(unsigned /*round*/, size_t k)
{
    const size_t idx = order_.at(k);
    const GridPoint &p = points_[idx];
    const Trace &trace = traces_.at(p.workload);
    OpResult r;
    r.member = idx;
    CoreStats stats;
    RetimeResult base;
    std::vector<RetimeResult> swept;
    {
        OpTimer timer(r, "op.whatif");
        try {
            // Held in optionals so construction is timed with the run
            // and destruction with finalize.
            std::optional<DepGraphBuilder> builder;
            std::optional<PipeTracer> tracer;
            std::optional<OooCore> core;
            {
                SpanScope span("core.run_traced");
                builder.emplace(trace, p.config);
                tracer.emplace(kTracerRing);
                tracer->setSink(&*builder);
                core.emplace(p.config);
                core->setTracer(&*tracer);
                stats = core->run(trace);
                span.close();
                span.setWork(stats.committed, builder->eventsSeen());
            }
            DepGraph graph;
            {
                SpanScope span("critpath.finalize");
                graph = builder->finalize();
                core.reset();
                tracer.reset();
                builder.reset();
                span.close();
                span.setWork(stats.committed, graph.numEdges());
            }
            std::optional<Retimer> retimer;
            {
                SpanScope span("critpath.plan");
                retimer.emplace(graph);
            }
            {
                SpanScope span("critpath.base_retime");
                base = retimer->retime(WhatIfModel{});
            }
            {
                SpanScope span("critpath.sweep");
                swept = retimer->retimeAll(models_);
                span.close();
                span.setWork(models_.size(), graph.numEdges());
            }
            SpanScope span("critpath.release");
            retimer.reset();
            graph = DepGraph{};
        } catch (const std::exception &e) {
            reportFailure(name(), p, e.what());
            r.ok = false;
            return r;
        }
    }
    traced_[idx] = stats;
    // The base replay reproduces the simulation exactly, and a repeated
    // point re-times every model to the same cycles (the answer below
    // carries them, so the slot compares them too).
    std::string answer = stableAnswer(
        p.workload + "@" + SimDriver::configKey(p.config), stats);
    answer += "retimed";
    for (const RetimeResult &rr : swept)
        answer += ' ' + std::to_string(rr.cycles);
    answer += '\n';
    r.committed = stats.committed;
    r.ok = base.cycles == stats.cycles && base.ops == stats.committed &&
           swept.size() == models_.size() &&
           slots_.record(idx, answer, stats.cycles, stats.committed);
    if (!r.ok)
        reportFailure(name(), p, "wrong answer");
    return r;
}

void
Whatif::probe(unsigned /*round*/, size_t k)
{
    // The same point without a tracer (the traced-equals-untraced
    // contract), and with the op's tracer and sink but nothing after
    // it: trace.overhead_ratio compares the two.
    const size_t idx = order_.at(k);
    const GridPoint &p = points_[idx];
    const Trace &trace = traces_.at(p.workload);
    plainRun(p, trace, traced_[idx]);
    CoreStats stats;
    {
        SpanScope span("trace.run");
        DepGraphBuilder builder(trace, p.config);
        PipeTracer tracer(kTracerRing);
        tracer.setSink(&builder);
        OooCore core(p.config);
        core.setTracer(&tracer);
        stats = core.run(trace);
        span.close();
        span.setWork(stats.committed, builder.eventsSeen());
    }
    if (stableAnswer("", stats) != stableAnswer("", traced_[idx]))
        throw std::runtime_error("a traced core run differs from the op's");
}

// ---------------------------------------------------------------- census

namespace {

/** One op of @p w and its probe, on the calling thread. */
void
censusOp(Workload &w, size_t k, CensusResult &res)
{
    setCurrentOp(beginOp());
    ++res.attempted;
    try {
        if (w.op(0, k).ok) {
            ProfPause pause;
            w.probe(0, k);
        } else {
            ++res.failed;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "census %s: %s\n", w.name(), e.what());
        ++res.failed;
    }
    setCurrentOp(0);
}

/** A fresh SimDriver answers every point of @p grid from @p dir, and
 *  RunCache::load reads each entry; both must agree byte for byte (a
 *  driver miss would re-simulate and change the stored host time). */
void
readBack(const std::string &dir, const std::vector<GridPoint> &grid,
         CensusResult &res)
{
    useCacheDir(dir);
    std::optional<SimDriver> driver;
    {
        SpanScope span("driver.open");
        driver.emplace();
    }
    const RunCache cache(dir);
    for (const GridPoint &p : grid) {
        ++res.attempted;
        const CoreStats *hit = nullptr;
        {
            SpanScope span("driver.hit", false);
            hit = &driver->run(p.workload, p.config);
        }
        const std::string key = driver->runKey(p.workload, p.config);
        std::optional<CoreStats> loaded;
        {
            SpanScope span("run_cache.load", false);
            loaded = cache.load(key);
        }
        if (!loaded ||
            serializeStats(key, *loaded) != serializeStats(key, *hit)) {
            reportFailure("census", p, "disk hit differs from the entry");
            ++res.failed;
        }
    }
}

} // namespace

CensusResult
runCensus(const std::string &dir)
{
    SpanScope root("census");
    const std::vector<GridPoint> grid = sweepGrid({"act"}, {"small"});
    CensusResult res;

    SweepCold cold(dir + "/census", 0, grid, 1);
    if (!cold.setup(0))
        ++res.failed;
    for (size_t k = 0; k < cold.opsPerRound(); ++k)
        censusOp(cold, k, res);
    readBack(cold.cacheDir(), grid, res);
    cold.teardown();

    Whatif whatif(0, {"act"}, {"small"});
    if (!whatif.setup(0))
        ++res.failed;
    censusOp(whatif, 0, res);
    whatif.teardown();
    return res;
}

} // namespace perfbench
