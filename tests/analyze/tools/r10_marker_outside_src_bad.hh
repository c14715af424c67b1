/**
 * @file
 * psb_analyze fixture: R10 marker outside src/ (bad). The fixture
 * sits under tools/ because the rule is about where the marker
 * lives: tests and tools have no per-cycle roots. The self-test
 * requires exactly the pinned R10 count.
 */

#pragma once

struct ToolLoop
{
    PSB_HOT_PATH void run(); // R10: a tool is not the hot path
};

PSB_HOT_PATH int helperTick(int v); // R10
