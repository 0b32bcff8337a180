// Must not compile under clang -Wthread-safety -Werror
// (unguarded_write_rejected_by_thread_safety ctest): a
// REDSOC_GUARDED_BY field is written without its mutex held.
#include "common/thread_annotations.h"

class Counter
{
  public:
    void bump() { ++count_; }

  private:
    std::mutex mu_;
    int count_ REDSOC_GUARDED_BY(mu_) = 0;
};
