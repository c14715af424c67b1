/**
 * @file
 * symbol_bans fixture (bad): namespace-scope state in an object named
 * like util/logging.cc, which sweep workers call into.
 */

namespace psb
{

namespace
{

int g_pending; // R6: internal linkage, still shared

} // namespace

int g_reportCount = 0; // R6

int
bumpReports()
{
    ++g_pending;
    return ++g_reportCount + g_pending;
}

} // namespace psb
