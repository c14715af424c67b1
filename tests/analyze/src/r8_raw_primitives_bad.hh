/**
 * @file
 * psb_analyze fixture: R8 raw synchronization primitives (bad). The
 * std primitives carry no capability attributes, so clang
 * -Wthread-safety cannot check the locking around them; the fixture
 * sits under src/ because the ban is scoped there. The self-test
 * requires exactly the pinned R8 count — one per line.
 */

#pragma once

#include <condition_variable>
#include <mutex>

namespace fixture
{

class Mailbox
{
  public:
    void
    post()
    {
        std::lock_guard<std::mutex> guard(_mu); // R8 (one per line)
        _cv.notify_one();
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> lock(_mu); // R8
        _cv.wait(lock);
    }

  private:
    std::mutex _mu;              // R8
    std::condition_variable _cv; // R8
};

} // namespace fixture
