/**
 * @file
 * The hot-path discipline annotation (DESIGN.md §14).
 *
 * PSB_HOT_PATH marks a function as a *per-cycle hot-path root*: code
 * that runs every simulated cycle (or for every cache/TLB/MSHR probe,
 * predictor lookup, or stream-buffer scheduling decision) and
 * therefore must uphold the hot-path discipline the ≥3x
 * cycles-per-second goal rests on:
 *
 *   R10  no heap allocation — no operator new/malloc, no growing
 *        std containers, no std::string construction — anywhere in
 *        the call graph below the root;
 *   R11  no throw statements, no throwing stdlib calls (.at(),
 *        stoi(), optional::value(), ...), no unbounded recursion;
 *   R12  no unresolved virtual or indirect dispatch: every virtual
 *        call must resolve to a known in-tree override set, and
 *        std::function / function-pointer calls need an explicit
 *        `// psb-analyze: allow(R12)` with a rationale.
 *
 * The contract is *checked*, not aspirational: tools/psb_analyze.py
 * builds an interprocedural call graph over the annotated roots and
 * proves the three rules statically, and the debug-build AllocGuard
 * (util/alloc_guard.hh) cross-checks R10 dynamically by interposing
 * operator new over the steady-state cycle loop.
 *
 * Usage — annotate the *declaration* (in a src/ header; psb_analyze
 * flags annotations in tests/ or tools/):
 *
 *     PSB_HOT_PATH bool tick(Cycle now);
 *
 * The macro expands to the compiler's `hot` attribute (better block
 * placement and more aggressive inlining for the annotated function)
 * where supported and to nothing elsewhere; its analyzer-visible
 * effect is the token itself, which psb_analyze reads as the root
 * marker.
 */

#ifndef PSB_UTIL_HOT_PATH_HH
#define PSB_UTIL_HOT_PATH_HH

#if defined(__GNUC__) || defined(__clang__)
#define PSB_HOT_PATH __attribute__((hot))
#else
#define PSB_HOT_PATH
#endif

#endif // PSB_UTIL_HOT_PATH_HH
