/**
 * @file
 * psb_analyze fixture: R10 marker-placement counterpart (clean). The
 * marker on function declarations, including one whose return type
 * and name wrap onto the next line; the self-test requires no
 * findings.
 */

#pragma once

#include <cstdint>

namespace fixture
{

class Pipeline
{
  public:
    PSB_HOT_PATH void step(int v);

    PSB_HOT_PATH uint64_t
    stepped() const;

  private:
    int _stage = 0;
};

} // namespace fixture
