#include "core/fu_pool.h"

#include "common/logging.h"

namespace redsoc {

FuPoolKind
fuPoolKind(FuClass fc)
{
    switch (fc) {
      case FuClass::IntAlu: case FuClass::IntMul: case FuClass::IntDiv:
        return FuPoolKind::Alu;
      case FuClass::SimdAlu: case FuClass::SimdMul:
        return FuPoolKind::Simd;
      case FuClass::Fp: case FuClass::FpDiv:
        return FuPoolKind::Fp;
      case FuClass::MemRead: case FuClass::MemWrite:
        return FuPoolKind::Mem;
      default:
        panic("no pool for FuClass::None");
    }
}

FuPool::FuPool(const CoreConfig &config)
{
    capacity_[static_cast<size_t>(FuPoolKind::Alu)] = config.alu_units;
    capacity_[static_cast<size_t>(FuPoolKind::Simd)] = config.simd_units;
    capacity_[static_cast<size_t>(FuPoolKind::Fp)] = config.fp_units;
    capacity_[static_cast<size_t>(FuPoolKind::Mem)] = config.mem_ports;
    cycle_tag_.fill(~Cycle{0});
}

unsigned &
FuPool::slot(FuPoolKind kind, Cycle cycle)
{
    const size_t idx = cycle % kHorizon;
    if (cycle_tag_[idx] != cycle) {
        // The ring wrapped onto a stale cycle: recycle the bucket.
        cycle_tag_[idx] = cycle;
        for (auto &per_kind : booked_)
            per_kind[idx] = 0;
    }
    return booked_[static_cast<size_t>(kind)][idx];
}

unsigned
FuPool::slotConst(FuPoolKind kind, Cycle cycle) const
{
    const size_t idx = cycle % kHorizon;
    if (cycle_tag_[idx] != cycle)
        return 0;
    return booked_[static_cast<size_t>(kind)][idx];
}

unsigned
FuPool::freeUnits(FuPoolKind kind, Cycle cycle) const
{
    const unsigned cap = capacity(kind);
    const unsigned busy = slotConst(kind, cycle);
    return busy >= cap ? 0 : cap - busy;
}

bool
FuPool::freeSpan(FuPoolKind kind, Cycle cycle, unsigned span) const
{
    const unsigned cap = capacity(kind);
    const auto &per_kind = booked_[static_cast<size_t>(kind)];
    for (unsigned i = 0; i < span; ++i) {
        const Cycle c = cycle + i;
        const unsigned idx = c % kHorizon;
        if (cycle_tag_[idx] == c && per_kind[idx] >= cap)
            return false;
    }
    return true;
}

Cycle
FuPool::nextFreeSpanCycle(FuPoolKind kind, Cycle from,
                          unsigned span) const
{
    const unsigned cap = capacity(kind);
    const auto &per_kind = booked_[static_cast<size_t>(kind)];
    Cycle base = from;
    unsigned run = 0;
    for (Cycle c = from;; ++c) {
        if (c >= from + kHorizon) {
            // Bookings live only inside the ring: everything from
            // here on is free, so the pending run (or this cycle)
            // completes the span unobstructed.
            return base;
        }
        const unsigned idx = c % kHorizon;
        const bool full = cycle_tag_[idx] == c && per_kind[idx] >= cap;
        if (full) {
            base = c + 1;
            run = 0;
        } else if (++run >= span) {
            return base;
        }
    }
}

void
FuPool::book(FuPoolKind kind, Cycle cycle, unsigned span)
{
    panic_if(span == 0 || span >= kHorizon, "bad booking span ", span);
    for (unsigned i = 0; i < span; ++i) {
        unsigned &busy = slot(kind, cycle + i);
        panic_if(busy >= capacity(kind),
                 "overbooked FU pool in cycle ", cycle + i);
        ++busy;
    }
}

unsigned
FuPool::capacity(FuPoolKind kind) const
{
    return capacity_[static_cast<size_t>(kind)];
}

unsigned
FuPool::busyUnits(FuPoolKind kind, Cycle cycle) const
{
    return slotConst(kind, cycle);
}

} // namespace redsoc
