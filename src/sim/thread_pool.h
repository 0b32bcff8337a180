/**
 * @file
 * A small fixed-size thread pool (no work stealing): tasks go into a
 * single FIFO queue and a fixed set of workers drains it. Built for
 * the SimDriver's batch APIs, where every task is one independent
 * (workload x config) simulation point and fairness/locality tricks
 * would buy nothing.
 */

#ifndef REDSOC_SIM_THREAD_POOL_H
#define REDSOC_SIM_THREAD_POOL_H

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace redsoc {

class ThreadPool
{
  public:
    /** @p threads == 0 selects one worker per CPU the calling thread
     *  may run on (sched_getaffinity), not per CPU of the machine. */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains the queue, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task; it runs on some worker, FIFO order. */
    void submit(std::function<void()> task);

    /**
     * Block until every task submitted so far has finished. If any
     * task threw, the first captured exception is rethrown here (the
     * remaining tasks still ran).
     */
    void wait() REDSOC_EXCLUDES(mu_);

    unsigned threads() const { return static_cast<unsigned>(workers_.size()); }

  private:
    void workerLoop() REDSOC_EXCLUDES(mu_);

    /** Nothing queued and nothing running: wait() may return. */
    bool idle() const REDSOC_REQUIRES(mu_)
    {
        return queue_.empty() && active_ == 0;
    }

    std::mutex mu_;
    std::condition_variable task_ready_;
    std::condition_variable all_idle_;
    std::deque<std::function<void()>> queue_ REDSOC_GUARDED_BY(mu_);
    // Written only by the constructor, joined only by the destructor;
    // workers never touch the vector itself.
    std::vector<std::thread> workers_ REDSOC_NOT_GUARDED;
    std::exception_ptr first_error_ REDSOC_GUARDED_BY(mu_);
    unsigned active_ REDSOC_GUARDED_BY(mu_) = 0;
    bool stopping_ REDSOC_GUARDED_BY(mu_) = false;
};

/** Process-wide pool shared by every SimDriver batch call. */
ThreadPool &globalSimPool();

} // namespace redsoc

#endif // REDSOC_SIM_THREAD_POOL_H
