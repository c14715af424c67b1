/**
 * @file
 * psb_analyze fixture: R8 raw-primitive counterpart (clean). The same
 * mailbox on the annotated wrappers of util/thread_annotations.hh;
 * the self-test requires no findings.
 */

#pragma once

#include "util/thread_annotations.hh"

namespace fixture
{

class Mailbox
{
  public:
    void
    post()
    {
        psb::MutexLock guard(_mu);
        _cv.notifyOne();
    }

    void
    wait()
    {
        psb::MutexLock lock(_mu);
        _cv.wait(lock);
    }

  private:
    psb::Mutex _mu;
    psb::CondVar _cv;
};

} // namespace fixture
