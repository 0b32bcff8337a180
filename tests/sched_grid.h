/**
 * @file
 * The shared scheduler acceptance grid: the config matrix and the
 * randomized-trace generator used by both the kernel differential
 * suite (test_sched_equiv.cc) and the critical-path exactness suite
 * (test_critpath.cc). Keeping them in one header guarantees the
 * analytic engine is proven on exactly the grid the kernels are.
 */

#ifndef REDSOC_TESTS_SCHED_GRID_H
#define REDSOC_TESTS_SCHED_GRID_H

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "helpers.h"

namespace redsoc {
namespace test {

/** The acceptance grid: every scheduler mode plus the EGPW /
 *  skewed-select / RS-design / dynamic-threshold / timing-speculation
 *  ablations. The TS comparator is Baseline at a scaled clock period;
 *  the in-order-like substrate point is the small core with recycling
 *  ablated down to conventional wakeup. */
inline std::vector<std::pair<std::string, CoreConfig>>
differentialConfigs(const std::string &core_name)
{
    std::vector<std::pair<std::string, CoreConfig>> out;
    auto add = [&](const std::string &tag, SchedMode mode,
                   auto mutate) {
        CoreConfig cfg = coreByName(core_name);
        cfg.mode = mode;
        mutate(cfg);
        out.emplace_back(tag, std::move(cfg));
    };

    add("baseline", SchedMode::Baseline, [](CoreConfig &) {});
    add("mos", SchedMode::MOS, [](CoreConfig &) {});
    add("redsoc", SchedMode::ReDSOC, [](CoreConfig &) {});
    add("redsoc_no_egpw", SchedMode::ReDSOC,
        [](CoreConfig &c) { c.egpw = false; });
    add("redsoc_no_skew", SchedMode::ReDSOC,
        [](CoreConfig &c) { c.skewed_select = false; });
    add("redsoc_conventional_wakeup", SchedMode::ReDSOC,
        [](CoreConfig &c) {
            c.egpw = false;
            c.skewed_select = false;
        });
    add("redsoc_illustrative", SchedMode::ReDSOC,
        [](CoreConfig &c) { c.rs_design = RsDesign::Illustrative; });
    add("redsoc_dynamic", SchedMode::ReDSOC, [](CoreConfig &c) {
        c.dynamic_threshold = true;
        c.threshold_epoch = 500; // short epochs: exercise adaptation
    });
    add("ts_baseline", SchedMode::Baseline, [](CoreConfig &c) {
        // Timing-speculation comparator: Baseline with off-core
        // latencies rescaled to the overclocked period, exactly as
        // baselines/timing_speculation.cc runs it.
        c.memory.offcore_latency_scale = 525.0 / 394.0;
    });

    // Capacity boundaries: the kernels must agree exactly where a
    // structure fills, because those are the cycles where Phase-A
    // retention, FU-denial parking and wake re-arms diverge first.
    add("redsoc_rs_full", SchedMode::ReDSOC, [](CoreConfig &c) {
        c.rs_entries = 3; // RS fills within a few dispatch groups
        c.frontend_width = 5;
    });
    add("redsoc_ready_saturated", SchedMode::ReDSOC, [](CoreConfig &c) {
        c.rs_entries = 64; // big ready population, starved select
        c.frontend_width = 5;
        c.alu_units = 1;
        c.simd_units = 1;
        c.fp_units = 1;
        c.mem_ports = 1;
    });
    add("redsoc_lsq_floor", SchedMode::ReDSOC, [](CoreConfig &c) {
        c.lsq_entries = 2; // every memory op contends for the LSQ
    });
    return out;
}

/**
 * Random straight-line-ish program: dense ALU dependency webs (deep
 * and wide), multi-cycle producers (mul/div/fp), aliasing loads and
 * stores over a small memory window, and forward conditional
 * branches. Everything the wakeup machinery has to get right: multi
 * source ops, last-arrival swaps, store-to-load parking, speculative
 * flushes.
 */
inline Trace
randomTrace(u64 seed, unsigned n_ops)
{
    Rng rng(seed);
    ProgramBuilder b("sched_equiv");

    // x1..x8: live data web. x10: nonzero divisor. x11: memory base.
    for (unsigned r = 1; r <= 8; ++r)
        b.movImm(x(r), static_cast<s64>(rng.range(1, 255)));
    b.movImm(x(10), static_cast<s64>(rng.range(3, 17)));
    b.movImm(x(11), 0x1000);

    auto data_reg = [&] {
        return x(static_cast<unsigned>(1 + rng.below(8)));
    };
    const Opcode alu_ops[] = {Opcode::ADD, Opcode::SUB, Opcode::AND,
                              Opcode::ORR, Opcode::EOR};

    for (unsigned i = 0; i < n_ops; ++i) {
        const double roll = rng.uniform();
        if (roll < 0.55) {
            // Single-cycle ALU: the slack-eligible bread and butter.
            const Opcode op = alu_ops[rng.below(5)];
            if (rng.chance(0.5))
                b.alu(op, data_reg(), data_reg(), data_reg());
            else
                b.alui(op, data_reg(), data_reg(),
                       static_cast<s64>(rng.below(64)));
        } else if (roll < 0.70) {
            // Multi-cycle integer producers: late arrivals.
            if (rng.chance(0.75))
                b.mul(data_reg(), data_reg(), data_reg());
            else
                b.sdiv(data_reg(), data_reg(), x(10));
        } else if (roll < 0.82) {
            // Aliasing memory traffic over a 64-slot window: store
            // forwarding plus loads parked on unresolved stores.
            const s64 off = static_cast<s64>(rng.below(64)) * 8;
            if (rng.chance(0.5))
                b.store(Opcode::STR, data_reg(), x(11), off);
            else
                b.load(Opcode::LDR, data_reg(), x(11), off);
        } else if (roll < 0.90) {
            // FP pair: fp-pool pressure, non-eligible producers.
            b.fmovImm(x(9), 1.5 + rng.uniform());
            b.fop(rng.chance(0.5) ? Opcode::FADD : Opcode::FMUL, x(9),
                  x(9), x(9));
        } else {
            // Forward conditional branch over a tiny random block.
            ProgramBuilder::Label skip = b.newLabel();
            b.branch(rng.chance(0.5) ? Opcode::BNEZ : Opcode::BGTZ,
                     data_reg(), skip);
            const unsigned block =
                static_cast<unsigned>(1 + rng.below(3));
            for (unsigned k = 0; k < block; ++k)
                b.alui(Opcode::ADD, data_reg(), data_reg(),
                       static_cast<s64>(rng.below(16)));
            b.bind(skip);
        }
    }
    b.halt();
    return makeTrace(b);
}

/**
 * Random program whose memory footprint overflows every preset's L1
 * (64 KiB, 4-way): loads and stores over twelve lines 16 KiB apart,
 * which share one L1 set, so after the cold misses most accesses miss
 * L1 and hit the L2 or the shared LLC. randomTrace's 512-byte window
 * never leaves L1 once warm.
 */
inline Trace
l1OverflowTrace(u64 seed, unsigned n_ops)
{
    Rng rng(seed);
    ProgramBuilder b("l1_overflow");
    for (unsigned r = 1; r <= 8; ++r)
        b.movImm(x(r), static_cast<s64>(rng.range(1, 255)));
    b.movImm(x(11), 0x1000);
    auto data_reg = [&] {
        return x(static_cast<unsigned>(1 + rng.below(8)));
    };
    for (unsigned i = 0; i < n_ops; ++i) {
        const double roll = rng.uniform();
        if (roll < 0.4) {
            b.alu(Opcode::ADD, data_reg(), data_reg(), data_reg());
        } else if (roll < 0.5) {
            b.mul(data_reg(), data_reg(), data_reg());
        } else {
            const s64 off = static_cast<s64>(rng.below(12) * 16384 +
                                             rng.below(8) * 8);
            if (rng.chance(0.3))
                b.store(Opcode::STR, data_reg(), x(11), off);
            else
                b.load(Opcode::LDR, data_reg(), x(11), off);
        }
    }
    b.halt();
    return makeTrace(b);
}

} // namespace test
} // namespace redsoc

#endif // REDSOC_TESTS_SCHED_GRID_H
