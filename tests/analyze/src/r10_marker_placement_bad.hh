/**
 * @file
 * psb_analyze fixture: R10 marker placement (bad). PSB_HOT_PATH roots
 * the hot-path call graph, so it must annotate a function
 * declaration; on a data member it roots nothing. The self-test
 * requires exactly the pinned R10 count.
 */

#pragma once

#include <cstdint>

namespace fixture
{

class Pipeline
{
  public:
    PSB_HOT_PATH void step(int v);

    PSB_HOT_PATH uint64_t _stepped = 0; // R10: a member, not a function

  private:
    PSB_HOT_PATH int _stage; // R10
};

} // namespace fixture
