/**
 * @file
 * Cooperative graceful shutdown for long sweeps.
 *
 * Without a handler, SIGINT/SIGTERM kill a sweep wherever it happens
 * to be, which can leave `.tmp-*` files behind in a shared
 * REDSOC_CACHE_DIR (the rename-based publish itself is atomic, so
 * *entries* never tear, but the staging files of writes that never
 * reached the rename leak). Tools that run long simulation batches
 * install a handler that only sets state; every long loop polls it at
 * a natural boundary:
 *
 *  - SimDriver::prefetch stops submitting points, and its queued
 *    tasks return without simulating once they see the flag;
 *  - OooCore::run / Processor::run poll every few thousand cycles
 *    and abort the in-flight simulation with ShutdownInterrupt — the
 *    aborted point is simply never stored, so the cache write is
 *    "discarded atomically" by never starting.
 *
 * The handler side is async-signal-safe (one lock-free atomic store)
 * and the polling side is one relaxed load.
 */

#ifndef REDSOC_COMMON_SHUTDOWN_H
#define REDSOC_COMMON_SHUTDOWN_H

#include <stdexcept>

namespace redsoc {

/**
 * Thrown out of a simulation loop once an installed shutdown handler
 * has seen a signal (see installGracefulShutdown). Tool mains catch
 * it, clean up, and exit 130 — it is a request, not an error.
 */
class ShutdownInterrupt : public std::runtime_error
{
  public:
    ShutdownInterrupt();
};

/**
 * Install the SIGINT/SIGTERM handler (idempotent). Until this is
 * called, nothing in the library changes behavior:
 * shutdownRequested() stays false.
 */
void installGracefulShutdown();

/** True once an installed handler has seen a signal: loops stop
 *  picking up new work and in-flight simulations throw
 *  ShutdownInterrupt at their next poll point. */
bool shutdownRequested();

} // namespace redsoc

#endif // REDSOC_COMMON_SHUTDOWN_H
