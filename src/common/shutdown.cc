#include "common/shutdown.h"

#include <csignal>

#include <atomic>

namespace redsoc {

namespace {

// The handler touches only this lock-free atomic, so it is
// async-signal-safe.
std::atomic<bool> g_requested{false};

extern "C" void
shutdownHandler(int)
{
    g_requested.store(true, std::memory_order_relaxed);
}

} // namespace

ShutdownInterrupt::ShutdownInterrupt()
    : std::runtime_error("shutdown requested: simulation interrupted")
{
}

void
installGracefulShutdown()
{
    struct sigaction sa = {};
    sa.sa_handler = shutdownHandler;
    ::sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART; // short writes finish; loops poll
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

bool
shutdownRequested()
{
    return g_requested.load(std::memory_order_relaxed);
}

} // namespace redsoc
