/**
 * @file
 * symbol_bans fixture (bad): `::`-qualified spellings, which resolve to
 * the undefined symbols rand and printf.
 */

#include <cstdio>
#include <cstdlib>

namespace psb
{

int
globalNoise(int v)
{
    ::printf("state %d\n", v); // R5: printf
    return ::rand();           // R3: rand
}

} // namespace psb
