/**
 * @file
 * Core configuration: the three processor baselines of Table I
 * (Small / Medium / Big) plus the scheduler-mode and slack-recycling
 * knobs of Secs. III-IV.
 */

#ifndef REDSOC_CORE_CORE_CONFIG_H
#define REDSOC_CORE_CORE_CONFIG_H

#include <optional>
#include <string>
#include <string_view>

#include "common/fields.h"
#include "mem/hierarchy.h"
#include "predictors/branch_predictor.h"
#include "predictors/last_arrival_predictor.h"
#include "predictors/width_predictor.h"
#include "timing/completion_instant.h"
#include "timing/timing_model.h"

namespace redsoc {

/** Instruction scheduling mode. */
enum class SchedMode : u8 {
    Baseline, ///< conventional boundary-clocked OOO scheduling
    ReDSOC,   ///< slack recycling via transparent dataflow (the paper)
    MOS,      ///< Multiple-Operations-in-Single-cycle fusion comparator
};

const char *schedModeName(SchedMode mode);

/** Reservation-station design for slack-aware scheduling (Sec.IV-C). */
enum class RsDesign : u8 {
    /** Full tag set: 2 parent + 4 grandparent tags, max trees. */
    Illustrative,
    /** Predicted last-arriving parent/grandparent tag only. */
    Operational,
};

const char *rsDesignName(RsDesign design);

/**
 * Scheduler simulation kernel. Both kernels model the exact same
 * machine and produce bit-identical CoreStats (enforced by the
 * differential suite in tests/test_sched_equiv.cc); they differ only
 * in how the simulator finds work each cycle.
 */
enum class SchedKernel : u8 {
    /** Legacy oracle: re-evaluate every waiting RS entry every cycle
     *  (O(RS x producers) per cycle). Kept as the reference model. */
    Scan,
    /** Event-driven: tag-broadcast wakeup through per-producer
     *  consumer lists, age-ordered ready sets over the window ring,
     *  and idle-cycle fast-forward. The default. */
    Event,
};

const char *schedKernelName(SchedKernel kernel);

/** Enum leaves of the config visitor (common/fields.h): the names
 *  above, and their inverse (false on an unknown name). */
inline const char *enumText(SchedMode mode) { return schedModeName(mode); }
inline const char *enumText(RsDesign design) { return rsDesignName(design); }
inline const char *enumText(SchedKernel kernel)
{
    return schedKernelName(kernel);
}
bool parseEnum(std::string_view text, SchedMode &mode);
bool parseEnum(std::string_view text, RsDesign &design);
bool parseEnum(std::string_view text, SchedKernel &kernel);

struct CoreConfig
{
    std::string name = "medium";

    // --- Table I parameters -----------------------------------------
    unsigned frontend_width = 4;   ///< fetch/rename/dispatch per cycle
    unsigned commit_width = 4;
    unsigned rob_entries = 80;
    unsigned lsq_entries = 32;
    unsigned rs_entries = 64;
    unsigned alu_units = 4;
    unsigned simd_units = 3;
    unsigned fp_units = 3;
    unsigned mem_ports = 2;

    /** Pipeline refill penalty on a branch mispredict (cycles from
     *  resolve to first new op entering rename). */
    Cycle redirect_penalty = 10;

    HierarchyConfig memory{};
    TimingConfig timing{};
    BranchPredictorConfig branch_pred{};
    WidthPredictorConfig width_pred{};
    LastArrivalConfig last_arrival{};

    // --- Scheduling / ReDSOC knobs ----------------------------------
    SchedMode mode = SchedMode::Baseline;
    RsDesign rs_design = RsDesign::Operational;
    SchedKernel sched_kernel = SchedKernel::Event;

    /** CI field precision in bits (paper: 3; Sec.V sweep 1..8). */
    unsigned ci_precision_bits = 3;

    /**
     * Slack threshold (Sec.IV-C step 10) in ticks: a consumer is
     * issued into its producer's completion cycle only if the
     * producer's CI is <= this value, balancing recycling opportunity
     * against 2-cycle FU over-allocation. Expressed at the configured
     * CI precision.
     */
    Tick slack_threshold_ticks = 6;

    /**
     * The paper's proposed extension (Sec.IV-C): "a simple but
     * intelligent dynamic mechanism can be used to increase or
     * decrease this threshold based on overall observed benefits."
     * When enabled, the core hill-climbs the threshold once per
     * epoch on observed commit throughput, starting from
     * slack_threshold_ticks.
     */
    bool dynamic_threshold = false;

    /** Adaptation epoch in cycles (Tribeca-style fine-grained
     *  adaptation granularity). */
    Cycle threshold_epoch = 2000;

    /**
     * Deadlock watchdog: abort the simulation (DeadlockError) once no
     * op has committed for this many cycles. Both scheduler kernels
     * abort at exactly last_commit_cycle + horizon + 1 — the event
     * kernel's idle fast-forward clamps to the horizon so the final
     * watchdog check runs on the same cycle the scan kernel reaches
     * step by step (tests/test_fuzz_regress.cc proves the equality).
     */
    Cycle no_commit_horizon = 50'000;

    /** Enable eager grandparent wakeup (required for same-cycle
     *  parent/child issue; disabling it is an ablation). */
    bool egpw = true;

    /** Enable skewed selection (ablation: plain oldest-first treats
     *  speculative and conventional requests equally). */
    bool skewed_select = true;
};

REDSOC_FIELDS(CoreConfig, name, frontend_width, commit_width, rob_entries,
              lsq_entries, rs_entries, alu_units, simd_units, fp_units,
              mem_ports, redirect_penalty, memory, timing, branch_pred,
              width_pred, last_arrival, mode, rs_design, sched_kernel,
              ci_precision_bits, slack_threshold_ticks, dynamic_threshold,
              threshold_epoch, no_commit_horizon, egpw, skewed_select)

/** Legal ranges (common/fields.h RangeCheck), the nested structs'
 *  included. OooCore refuses a config this rejects. */
inline std::string
configError(const CoreConfig &c)
{
    RangeCheck check(c);
    for (const unsigned *n :
         {&c.frontend_width, &c.commit_width, &c.rob_entries,
          &c.lsq_entries, &c.rs_entries, &c.alu_units, &c.simd_units,
          &c.fp_units, &c.mem_ports})
        check.require(*n, *n >= 1, "at least 1");
    // A precision past the widest CI field is reported before the
    // threshold (and never shifted by).
    return check
        .require(c.ci_precision_bits,
                 c.ci_precision_bits >= 1 &&
                     c.ci_precision_bits <= kMaxCiPrecisionBits,
                 "in 1.." + std::to_string(kMaxCiPrecisionBits))
        .require(c.slack_threshold_ticks,
                 c.ci_precision_bits > kMaxCiPrecisionBits ||
                     c.slack_threshold_ticks <= Tick{1}
                                                    << c.ci_precision_bits,
                 "at most 2^ci_precision_bits (one cycle)")
        .require(c.threshold_epoch, c.threshold_epoch >= 1, "at least 1")
        .require(c.no_commit_horizon, c.no_commit_horizon >= 1,
                 "at least 1")
        .error();
}

/** Table I presets. */
CoreConfig smallCore();
CoreConfig mediumCore();
CoreConfig bigCore();

/** Preset by name ("small"/"medium"/"big"); nullopt for any other. */
std::optional<CoreConfig> findCorePreset(std::string_view name);

/** Preset by name; fatal for an unknown one. */
CoreConfig coreByName(const std::string &name);

} // namespace redsoc

#endif // REDSOC_CORE_CORE_CONFIG_H
