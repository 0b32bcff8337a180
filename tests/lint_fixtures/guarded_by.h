// Fixture: guarded-by (R10). Excluded from the build and from tree
// lint runs; test_lint lexes it under a pretend src/ path.
#pragma once
#include <condition_variable>
#include <mutex>
#include <vector>

#include "common/thread_annotations.h"

namespace fixture {

class Queue
{
  public:
    void push(int v) REDSOC_EXCLUDES(mu_);

  private:
    std::mutex mu_;
    std::condition_variable ready_;
    std::vector<int> items_ REDSOC_GUARDED_BY(mu_);
    unsigned capacity_ REDSOC_NOT_GUARDED = 64;
    bool closed_ = false;    // line 22: violation
    // redsoc-lint: allow(guarded-by)
    unsigned pushes_ = 0;
};

} // namespace fixture
