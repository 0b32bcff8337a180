#include "sim/thread_pool.h"

#include <sched.h>

#include <algorithm>

namespace redsoc {

namespace {

/** The CPUs the calling thread may run on (its affinity mask, which
 *  taskset and container CPU sets narrow), else the machine's count. */
unsigned
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

} // namespace

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = allowedCpus();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    task_ready_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(std::move(task));
    }
    task_ready_.notify_one();
}

// wait() and workerLoop() unlock inside their scope and wait on
// condition variables, so they hold mu_ through a ReleasableLock,
// which clang's analysis tracks across the unlock()/lock() window
// around task().
void
ThreadPool::wait()
{
    ReleasableLock lock(mu_);
    while (!idle())
        lock.wait(all_idle_);
    if (first_error_) {
        std::exception_ptr err = first_error_;
        first_error_ = nullptr;
        std::rethrow_exception(err);
    }
}

void
ThreadPool::workerLoop()
{
    ReleasableLock lock(mu_);
    for (;;) {
        while (!stopping_ && queue_.empty())
            lock.wait(task_ready_);
        if (queue_.empty()) {
            if (stopping_)
                return;
            continue;
        }
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        ++active_;
        lock.unlock();
        try {
            task();
        } catch (...) {
            lock.lock();
            if (!first_error_)
                first_error_ = std::current_exception();
            lock.unlock();
        }
        lock.lock();
        --active_;
        if (idle())
            all_idle_.notify_all();
    }
}

ThreadPool &
globalSimPool()
{
    static ThreadPool pool;
    return pool;
}

} // namespace redsoc
