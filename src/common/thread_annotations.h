/**
 * @file
 * Thread-safety annotation macros and the one lock type that needs
 * them spelled out.
 *
 * Every concurrent class in the tree declares its lock discipline in
 * the type itself: which mutex guards which field
 * (`REDSOC_GUARDED_BY`), which private helpers assume the lock is
 * already held (`REDSOC_REQUIRES`), which entry points must be called
 * unlocked (`REDSOC_EXCLUDES`), and which fields are deliberately
 * unguarded because they are immutable after construction or
 * externally synchronized (`REDSOC_NOT_GUARDED`).
 *
 * clang's `-Wthread-safety` checks the discipline. Under clang the
 * macros lower to the native capability attributes, so
 * `-DREDSOC_THREAD_SAFETY=ON` (clang + libc++, see the top-level
 * CMakeLists) verifies it with the compiler's flow-sensitive
 * analysis. libc++ annotates `std::mutex` and `std::lock_guard` when
 * `_LIBCPP_ENABLE_THREAD_SAFETY_ANNOTATIONS` is defined, which that
 * option also sets. It does not annotate `std::unique_lock`, so code
 * that unlocks inside a scope or waits on a condition variable uses
 * `ReleasableLock` below, whose annotations keep it under the
 * analysis. ThreadSanitizer sees the races and lock-order inversions
 * at run time; redsoc_lint's `guarded-by` rule only checks that every
 * field of a mutex-owning class states its discipline.
 *
 * On GCC (and on clang without `REDSOC_THREAD_SAFETY`) every macro
 * expands to nothing.
 *
 * Placement: field annotations go after the declarator, before any
 * initializer (`unsigned active_ REDSOC_GUARDED_BY(mu_) = 0;`);
 * function annotations go after the parameter list, before the body
 * or `;` (`bool idle() const REDSOC_REQUIRES(mu_);`).
 */

#ifndef REDSOC_COMMON_THREAD_ANNOTATIONS_H
#define REDSOC_COMMON_THREAD_ANNOTATIONS_H

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(REDSOC_THREAD_SAFETY)
#define REDSOC_TS_ATTR(x) __attribute__((x))
#else
#define REDSOC_TS_ATTR(x) // no-op outside the clang verification build
#endif

/** Field is protected by mutex @p x: every read and write must hold
 *  it (via a guard object or a REDSOC_REQUIRES context). */
#define REDSOC_GUARDED_BY(x) REDSOC_TS_ATTR(guarded_by(x))

/** Pointee of an annotated pointer field is protected by @p x. */
#define REDSOC_PT_GUARDED_BY(x) REDSOC_TS_ATTR(pt_guarded_by(x))

/** Function may only be called with the named mutex(es) held. */
#define REDSOC_REQUIRES(...) \
    REDSOC_TS_ATTR(requires_capability(__VA_ARGS__))

/** Function may only be called with the named mutex(es) NOT held
 *  (it acquires them itself; calling locked would self-deadlock). */
#define REDSOC_EXCLUDES(...) REDSOC_TS_ATTR(locks_excluded(__VA_ARGS__))

/** Function acquires / releases the named mutex(es); with no
 *  arguments, on a scoped lock, the mutex the lock holds. */
#define REDSOC_ACQUIRE(...) \
    REDSOC_TS_ATTR(acquire_capability(__VA_ARGS__))
#define REDSOC_RELEASE(...) \
    REDSOC_TS_ATTR(release_capability(__VA_ARGS__))

/** Class is an RAII lock: constructing it acquires the mutexes its
 *  constructor names, destroying it releases them. */
#define REDSOC_SCOPED_CAPABILITY REDSOC_TS_ATTR(scoped_lockable)

/**
 * Deliberately unguarded field in a mutex-owning class. Expands to
 * nothing for every compiler; redsoc_lint's `guarded-by` rule
 * requires every non-mutex field of a class that owns a mutex to
 * state its discipline explicitly — either REDSOC_GUARDED_BY(mu) or
 * this marker (immutable after construction, or synchronized by some
 * external protocol that the adjacent comment must name).
 */
#define REDSOC_NOT_GUARDED

namespace redsoc {

/**
 * A scoped lock on a std::mutex that can be released and taken again
 * inside its scope and waited on with a condition variable (the absl
 * ReleasableMutexLock idiom). clang's analysis tracks it like
 * std::lock_guard, including the window between unlock() and lock():
 * touching a guarded field there, or locking twice, is an error.
 * Under GCC it is plain std::unique_lock locking.
 */
class REDSOC_SCOPED_CAPABILITY ReleasableLock
{
  public:
    explicit ReleasableLock(std::mutex &mu) REDSOC_ACQUIRE(mu)
        : lock_(mu)
    {
    }
    ~ReleasableLock() REDSOC_RELEASE() {}

    ReleasableLock(const ReleasableLock &) = delete;
    ReleasableLock &operator=(const ReleasableLock &) = delete;

    void lock() REDSOC_ACQUIRE() { lock_.lock(); }
    void unlock() REDSOC_RELEASE() { lock_.unlock(); }

    /** Block on @p cv. The mutex is released while blocked and held
     *  again on return, so to the analysis it stays held. */
    void wait(std::condition_variable &cv) { cv.wait(lock_); }

  private:
    std::unique_lock<std::mutex> lock_;
};

} // namespace redsoc

#endif // REDSOC_COMMON_THREAD_ANNOTATIONS_H
