/**
 * @file
 * psb_analyze fixture: R10 marker-outside-src counterpart (clean). A
 * tool may talk about the PSB_HOT_PATH marker in comments and strings
 * as long as it does not apply it; the self-test requires no
 * findings.
 */

#pragma once

// The simulator's PSB_HOT_PATH roots are listed by the analyzer.
inline const char *
markerName()
{
    return "PSB_HOT_PATH";
}
