// Must not compile under clang -Wthread-safety -Werror
// (double_acquire_rejected_by_thread_safety ctest): a held mutex is
// locked again through ReleasableLock, a self-deadlock.
#include "common/thread_annotations.h"

std::mutex mu;

void
twice()
{
    redsoc::ReleasableLock outer(mu);
    redsoc::ReleasableLock inner(mu);
}
