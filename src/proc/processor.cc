#include "proc/processor.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/shutdown.h"
#include "common/table.h"

namespace redsoc {

namespace {

/** Same rounding as MemHierarchy::scaled: the Processor pre-computes
 *  the full miss-to-fill window the LLC's MSHR entries carry, and it
 *  must agree cycle-for-cycle with the ladder each core charges. */
Cycle
scaledLat(Cycle lat, double scale)
{
    return static_cast<Cycle>(
        std::ceil(static_cast<double>(lat) * scale));
}

} // namespace

Processor::Processor(const ProcConfig &config) : config_(config)
{
    validateProcConfig(config_);

    const HierarchyConfig &mem = config_.core.memory;
    const Cycle fill =
        scaledLat(mem.l2_latency, mem.offcore_latency_scale) +
        scaledLat(mem.mem_latency, mem.offcore_latency_scale);
    llc_ = std::make_unique<SharedLlc>(config_.llc, config_.dram,
                                       config_.num_cores, fill);

    cores_.reserve(config_.num_cores);
    for (unsigned i = 0; i < config_.num_cores; ++i) {
        cores_.push_back(std::make_unique<OooCore>(config_.core));
        cores_.back()->memory().attachSharedLlc(
            llc_.get(), i, config_.addrOffset(i));
        llc_->attachL1(i, &cores_.back()->memory().l1());
    }
}

ProcStats
Processor::run(const std::vector<const Trace *> &traces)
{
    fatal_if(traces.size() != cores_.size(),
             "processor mix needs exactly one trace per core");
    for (const Trace *trace : traces)
        fatal_if(trace == nullptr, "null trace in processor mix");

    std::vector<bool> live(cores_.size());
    for (size_t i = 0; i < cores_.size(); ++i) {
        cores_[i]->beginRun(*traces[i]);
        live[i] = !cores_[i]->runDone();
    }

    // Deterministic lockstep: always advance the unfinished core with
    // the smallest current cycle (ties to the lowest id), so every
    // LLC access happens in one well-defined global order no matter
    // how the host schedules us.
    u64 steps = 0;
    for (;;) {
        size_t pick = cores_.size();
        for (size_t i = 0; i < cores_.size(); ++i) {
            if (!live[i])
                continue;
            if (pick == cores_.size() ||
                cores_[i]->currentCycle() < cores_[pick]->currentCycle())
                pick = i;
        }
        if (pick == cores_.size())
            break;
        live[pick] = cores_[pick]->stepRun();
        if ((++steps & 0x3fffu) == 0 && shutdownRequested())
            throw ShutdownInterrupt();
    }

    ProcStats out;
    out.cores.reserve(cores_.size());
    for (auto &core : cores_) {
        out.cores.push_back(core->finishRun());
        out.cycles = std::max(out.cycles, out.cores.back().cycles);
    }
    out.llc = llc_->collectStats();
    return out;
}

ProcStats
Processor::run(const Trace &trace)
{
    std::vector<const Trace *> traces(cores_.size(), &trace);
    return run(traces);
}

void
Processor::setRecorder(unsigned core_id, GraphRecorder *recorder)
{
    fatal_if(core_id >= cores_.size(),
             "setRecorder: core id out of range");
    cores_[core_id]->setRecorder(recorder);
}

std::string
renderContention(const ProcStats &stats)
{
    Table table({"core", "ipc", "llc-acc", "llc-hit%", "merges",
                 "bank-wait", "back-inv", "lines", "l1-miss",
                 "slack-ticks/miss"});
    for (size_t i = 0; i < stats.cores.size(); ++i) {
        const CoreStats &core = stats.cores[i];
        const LlcCoreStats llc = i < stats.llc.per_core.size()
                                     ? stats.llc.per_core[i]
                                     : LlcCoreStats{};
        table.addRow({
            std::to_string(i),
            Table::num(core.ipc(), 3),
            std::to_string(llc.accesses),
            Table::pct(ratioOf(llc.hits, llc.accesses)),
            std::to_string(llc.mshr_merges),
            std::to_string(llc.bank_wait_cycles),
            std::to_string(llc.back_invalidations),
            std::to_string(llc.lines_owned),
            std::to_string(core.l1_load_misses),
            Table::num(asDouble(core.slack_recycled_ticks) /
                           asDouble(std::max<u64>(1, core.l1_load_misses)),
                       2),
        });
    }
    std::string out = table.render();
    out += "llc evictions " + std::to_string(stats.llc.evictions) +
           "  writebacks " + std::to_string(stats.llc.writebacks) +
           "\n";
    return out;
}

} // namespace redsoc
