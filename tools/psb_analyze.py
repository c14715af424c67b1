#!/usr/bin/env python3
"""Static analyzer for the PSB tree (`psb_analyze`).

Parses src/ plus tools/*.cc into a token/scope model (classes,
members, method bodies, aliases) and enforces the simulator-specific
rules below. The engine is self-contained: no compile database, no
compiler bindings, no third-party packages.

  R1 strong-type-escape
     (a) raw uint64_t address/cycle *parameters*, detected by type+name
         inside parameter lists in both headers and .cc files; the
         type resolves through using/typedef aliases, so
         `using Tick = uint64_t; void f(Tick cycle);` is caught too;
     (b) arithmetic that combines two `.raw()` results — address/cycle
         math that escaped the strong types and will be (or already
         was) wrapped back, losing the domain checks;
     (c) a strong-type constructor or strong-typed member initializer
         whose argument does `.raw()` arithmetic — the classic
         escape-and-re-enter round trip.

  R2 stats-completeness
     Cross-TU pass: every uint64_t counter member that component code
     bumps with a discarded-value `++`/`+=` statement, and that nothing
     but accessors ever reads, must be registered with the
     StatsRegistry — either named directly in some registerStats()
     body, or returned by an accessor that some registerStats() body
     calls. A bumped-but-unregistered counter silently drops out of
     the golden-stats JSON.

  R3 determinism
     Range-for iteration over unordered_map/unordered_set (resolved
     through members, locals, and using-aliases) whose loop body feeds
     stats, trace events, or ordered output; pointer-keyed
     associative containers, including ones hidden behind aliases.

  R4 trace-purity
     PSB_TRACE* argument expressions containing assignments or
     increments/decrements. Trace arguments are not evaluated when the
     flag is off, so a side effect there makes behavior differ with
     tracing on/off.

  R3's banned calls (clocks, rand, time, random_device), R5 output
  discipline and R6 sweep shared state are checked on the built
  objects, not here: the symbol_bans ctest (tests/symbol_bans/) reads
  the symbol tables of the libpsb_* archives with nm.

On top of the token/scope model sits a dataflow layer: per-function
def-use chains (locals, parameters, members) plus a cross-TU call
summary (does f() return nondeterministic data? raw .raw() values?
does it pass a parameter through to a sink?), iterated to a fixpoint.
It powers three rules the per-statement passes cannot express:

  R7 nondeterminism-taint
     Sources: unordered_map/unordered_set iteration order (including
     containers typed only through a *parameter*, which R3 cannot
     resolve), pointer-value casts (reinterpret_cast/uintptr_t),
     wall-clock reads, uninitialized locals. Sinks: StatsRegistry
     registration calls, JSON/golden/merge emitters. Taint must pass
     a recognized barrier (std::sort / a normalize*() helper) before
     reaching a sink, even across function boundaries.

  R8 lock-discipline
     Raw std::mutex/lock_guard/condition_variable/... in src/ outside
     util/thread_annotations.hh are banned (clang -Wthread-safety
     cannot see them). Every class that owns a mutex (or already
     annotates a member) must annotate *all* its mutable shared
     members with PSB_GUARDED_BY(...). Clang's -Wthread-safety
     (enabled under PSB_WERROR) then proves the annotations; this
     rule audits that the annotations exist.

  R9 interprocedural strong-type escape
     A .raw() value that round-trips through locals or helper returns
     back into address/cycle arithmetic or a strong-type constructor —
     the escape R1 sees only when it happens inside one statement.

The hot-path layer builds a call graph from the PSB_HOT_PATH roots
(util/hot_path.hh) and enforces R10 (no allocation), R11 (no throw or
recursion) and R12 (devirtualizable dispatch) on everything reachable.
R10 also checks the marker itself: in src/ it must annotate a
function declaration, and it must not appear in tests/ or tools/
(the fixture corpus under tests/analyze/ is exempt).

Inline suppression:

    // psb-analyze: allow(R1)          (same line or the line above)

The tree walk covers src/ plus tools/*.cc (the analysis rules apply
to the offline tooling too — a nondeterministic merge key in
psb-sweep corrupts golden output just as surely as one in the
simulator); tests/ and the rest of tools/ are read for the hot-path
marker only. Files are scanned in sorted path order into one model,
so the findings are deterministic.

Usage:
    psb_analyze.py [root] [--json findings.json] [--list-rules]
    psb_analyze.py --self-test [fixture-dir]

Every finding prints as `path:line: [Rn] message`.
Exit codes: 0 clean, 1 findings, 2 usage/environment error.
"""

import argparse
import json
import pathlib
import re
import sys

# --------------------------------------------------------------------
# Rule catalog and vocabulary
# --------------------------------------------------------------------

#: rule id -> (slug, one-line rationale)
RULES = {
    "R1": ("strong-type-escape",
           "address/cycle arithmetic must stay inside the strong "
           "domain types (util/strong_types.hh)"),
    "R2": ("stats-completeness",
           "every counter a component bumps must be registered with "
           "the StatsRegistry or it silently drops out of the stats "
           "export"),
    "R3": ("determinism",
           "results must be a pure function of config + seed; no "
           "pointer-keyed containers or unordered iteration feeding "
           "observable output"),
    "R4": ("trace-purity",
           "PSB_TRACE arguments are not evaluated when tracing is "
           "off, so they must be side-effect free"),
    "R7": ("nondeterminism-taint",
           "values derived from unordered iteration order, pointer "
           "casts, clocks, or uninitialized reads must pass a "
           "sort/normalize barrier before reaching stats, JSON, or "
           "golden output"),
    "R8": ("lock-discipline",
           "shared mutable state uses the annotated psb::Mutex "
           "wrappers and is PSB_GUARDED_BY a named mutex "
           "(util/thread_annotations.hh) so clang -Wthread-safety "
           "can prove the locking"),
    "R9": ("interproc-escape",
           "a .raw() value must not round-trip through helpers or "
           "locals back into address/cycle arithmetic; keep the math "
           "inside the strong types"),
    "R10": ("hot-path-alloc",
            "the per-cycle hot path (every function reachable from a "
            "PSB_HOT_PATH root) must not allocate: no operator new, "
            "malloc, growing std containers, or string construction "
            "— preallocate at construction instead"),
    "R11": ("hot-path-throw",
            "the per-cycle hot path must not throw: no throw "
            "statements, throwing stdlib calls (.at(), stoi, "
            "optional::value), or recursion cycles reachable from a "
            "PSB_HOT_PATH root"),
    "R12": ("hot-path-dispatch",
            "dispatch inside hot-path code must be devirtualizable: "
            "virtual calls need a complete in-tree override set and "
            "std::function/function-pointer calls are flagged unless "
            "explicitly allowed"),
}

EXIT_CLEAN = 0     #: no findings
EXIT_FINDINGS = 1  #: at least one finding
EXIT_ERROR = 2     #: usage or environment error (no src/ under root)

#: Parameter names that mark a raw integer as an address/cycle
#: quantity (the name half of R1's type+name test).
DOMAIN_PARAM_NAMES = (
    "addr", "address", "pc", "block", "cycle", "now", "when", "ready",
    "target", "deadline",
)

#: The strong domain types of util/strong_types.hh.
STRONG_TYPES = ("ByteAddr", "Addr", "BlockAddr", "BlockDelta", "Cycle",
                "CycleDelta")

#: R8: raw std synchronization primitives, banned in src/ outside the
#: annotated wrappers of util/thread_annotations.hh.
R8_RAW_PRIMITIVES = (
    "mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
    "condition_variable", "condition_variable_any", "lock_guard",
    "unique_lock", "scoped_lock", "shared_lock")

# R7 nondeterminism-taint vocabulary (DESIGN.md §12).

#: Identifiers whose appearance in an expression marks the result as
#: wall-clock derived (nondeterministic across runs).
R7_CLOCK_SOURCES = (
    "steady_clock", "system_clock", "high_resolution_clock",
    "gettimeofday", "clock_gettime", "time_since_epoch",
    "random_device",
)

#: Identifiers that turn a pointer's numeric value into data —
#: allocator noise if it ever reaches observable output.
R7_POINTER_SOURCES = ("reinterpret_cast", "uintptr_t", "intptr_t")

#: Registration/sampling calls of the StatsRegistry: a tainted
#: argument here lands in the golden stats JSON.
R7_SINK_CALLS = ("addScalar", "addReal", "addAverage", "addHistogram",
                 "sample", "sampleN")

#: Function-name pattern for ordered-output producers (JSON emitters,
#: golden writers, sweep mergers): appending tainted data inside one
#: of these is a sink.
R7_SINK_FN_PATTERN = r"(?i)(json|golden|merge)"

#: Calls that launder taint: sorting or canonicalizing establishes a
#: deterministic order, so their arguments come out clean.
R7_BARRIER_CALLS = ("sort", "stable_sort")

#: Function-name pattern treated as a barrier when its result is
#: assigned (normalizeX(), canonicalKeys(), sortedCopy(), ...).
R7_BARRIER_FN_PATTERN = r"(?i)(normal|canonic|sorted)"

# R8 lock-discipline vocabulary.

#: The annotation macros of util/thread_annotations.hh that satisfy
#: the member-coverage audit.
R8_GUARD_ANNOTATIONS = ("PSB_GUARDED_BY", "PSB_PT_GUARDED_BY")

#: All PSB_* thread-annotation macros (stripped before classifying a
#: declaration, so a trailing PSB_REQUIRES(...) does not confuse the
#: member parser).
R8_ALL_ANNOTATIONS = R8_GUARD_ANNOTATIONS + (
    "PSB_REQUIRES", "PSB_REQUIRES_SHARED", "PSB_ACQUIRE",
    "PSB_RELEASE", "PSB_TRY_ACQUIRE", "PSB_EXCLUDES",
    "PSB_CAPABILITY", "PSB_SCOPED_CAPABILITY",
    "PSB_NO_THREAD_SAFETY_ANALYSIS",
)

#: Member/variable types that put a class in R8's audit scope.
R8_MUTEX_TYPES = ("Mutex", "mutex", "shared_mutex", "recursive_mutex")

#: Types that are synchronized by construction and need no guard.
R8_SYNC_TYPES = ("atomic", "Mutex", "MutexLock", "CondVar", "mutex",
                 "shared_mutex", "recursive_mutex",
                 "condition_variable", "condition_variable_any",
                 "once_flag", "CancelToken")

# R10-R12 hot-path vocabulary (DESIGN.md §14).

#: The function annotation that roots the hot-path call graph.
HOT_PATH_MARKER = "PSB_HOT_PATH"

#: Free functions that always allocate.
R10_ALLOC_CALLS = (
    "malloc", "calloc", "realloc", "strdup", "aligned_alloc",
    "make_unique", "make_shared", "to_string",
)

#: Methods that can grow an allocating std container. Only flagged
#: when the receiver's declared type resolves to one of
#: R10_ALLOC_CONTAINERS — SetAssocCache::insert() is not an
#: allocation, std::map::insert() is.
R10_GROWTH_METHODS = (
    "push_back", "emplace_back", "push_front", "emplace_front",
    "emplace", "insert", "resize", "reserve", "assign", "append",
    "push", "emplace_hint", "try_emplace", "insert_or_assign",
)

#: std container/type names whose growth methods allocate.
R10_ALLOC_CONTAINERS = (
    "vector", "deque", "map", "set", "unordered_map", "unordered_set",
    "multimap", "multiset", "list", "forward_list", "string",
    "basic_string", "queue", "priority_queue", "stack",
)

#: stdlib calls that throw on failure — banned on the hot path (R11).
R11_THROWING_CALLS = (
    "at", "stoi", "stol", "stoll", "stoul", "stoull", "stof", "stod",
    "value", "substr",
)

#: Types whose call operator is an indirect dispatch the compiler
#: cannot devirtualize (R12).
R12_INDIRECT_TYPES = ("function",)


def format_finding(path, line, rule, message):
    """The one finding format: path:line: [Rn] message."""
    return f"{path}:{line}: [{rule}] {message}"


# --------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------

TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<str>"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
    | (?P<num>\.?\d(?:[\w.']|[eEpP][+-])*)
    | (?P<id>[A-Za-z_]\w*)
    | (?P<punc><<=|>>=|<=>|->\*|\.\.\.|::|\+\+|--|<<|>>|<=|>=|==|!=
               |&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|->|.)
    """,
    re.VERBOSE | re.DOTALL)

SUPPRESS_RE = re.compile(
    r"//\s*psb-analyze:\s*allow\(\s*([A-Z0-9,\s]+?)\s*\)")

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
              "<<=", ">>="}
ARITH_OPS = {"+", "-", "*", "/", "%"}
DOMAIN_NAME_RE = re.compile(
    "^(" + "|".join(DOMAIN_PARAM_NAMES) + r")\w*$", re.IGNORECASE)


class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.kind}:{self.text!r}@{self.line}"


def tokenize(text):
    """Token list (comments/whitespace dropped), plus suppressions.

    Returns (tokens, suppressed) where suppressed maps line number ->
    set of rule ids allowed on that line and the following line.
    """
    toks = []
    suppressed = {}
    line = 1
    pos = 0
    n = len(text)
    while pos < n:
        m = TOKEN_RE.match(text, pos)
        if not m:  # stray byte; skip it
            pos += 1
            continue
        kind = m.lastgroup
        s = m.group(0)
        if kind == "comment":
            sm = SUPPRESS_RE.search(s)
            if sm:
                rules = {r.strip() for r in sm.group(1).split(",")}
                suppressed.setdefault(line, set()).update(rules)
        elif kind == "id" and s in ("pragma", "include", "define",
                                    "ifdef", "ifndef", "endif", "if",
                                    "else", "elif", "undef", "error") \
                and toks and toks[-1].text == "#" \
                and toks[-1].line == line:
            # Preprocessor directive: swallow the logical line.
            toks.pop()
            end = pos
            while True:
                nl = text.find("\n", end)
                if nl == -1:
                    end = n
                    break
                if text[nl - 1] == "\\":
                    end = nl + 1
                    continue
                end = nl
                break
            line += text.count("\n", pos, end)
            pos = end
            continue
        elif kind != "ws":
            toks.append(Tok(kind, s, line))
        line += s.count("\n")
        pos = m.end()
    return toks, suppressed


# --------------------------------------------------------------------
# Scope model: classes, members, accessors, method bodies
# --------------------------------------------------------------------

class ClassInfo:
    def __init__(self, name):
        self.name = name
        self.bases = []          # base class names
        self.members = {}        # member name -> type string
        self.accessors = {}      # accessor name -> member returned
        self.declares = set()    # {"registerStats", "resetStats", ...}
        self.files = set()


class Model:
    """Cross-TU model of the analyzed tree."""

    def __init__(self):
        self.classes = {}        # name -> ClassInfo
        self.aliases = {}        # alias name -> type string
        # (class, member) -> [(file, line)] discarded-value bumps
        self.bumps = {}
        # identifiers appearing inside any registerStats body
        self.registered_ids = set()
        # (class, member) -> lines where member is read outside
        # mutations/accessors/registerStats/resetStats
        self.other_reads = set()
        # PSB_HOT_PATH-annotated roots: set of (class-or-"", name)
        self.hot_roots = set()
        # methods declared `virtual`: set of (class, name)
        self.virtuals = set()
        # allow() on a declaration: (class-or-"", name) -> rule set,
        # also suppressing the matching out-of-line definition
        self.decl_allows = {}

    def cls(self, name):
        if name not in self.classes:
            self.classes[name] = ClassInfo(name)
        return self.classes[name]


def _find_matching(toks, i, open_t, close_t):
    """Index of the token matching the opener at i, or len(toks)."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return n


def _type_str(toks):
    return " ".join(t.text for t in toks)


class Func:
    """One function body: enclosing class (None for free functions),
    name, parameter-list token span, body token span, and return-type
    text (used by the call-graph layer to resolve method calls on a
    call's result, `buffer(i).fill(...)`)."""

    __slots__ = ("cls", "name", "sig_lo", "sig_hi", "body_lo",
                 "body_hi", "ret")

    def __init__(self, cls, name, sig_lo, sig_hi, body_lo, body_hi,
                 ret=""):
        self.cls = cls
        self.name = name
        self.sig_lo = sig_lo
        self.sig_hi = sig_hi
        self.body_lo = body_lo
        self.body_hi = body_hi
        self.ret = ret

    def __repr__(self):
        owner = f"{self.cls}::" if self.cls else ""
        return f"<Func {owner}{self.name}>"


class FileScan:
    """Single-file scan: builds scope structure over the token list."""

    def __init__(self, rel, toks, sup=None):
        self.rel = rel
        self.toks = toks
        #: line -> suppressed rule set (for declaration-site allow())
        self.sup = sup or {}
        self.functions = []  # list of Func
        # class name -> (body_lo, body_hi) spans at class scope
        self.class_spans = []

    def scan(self, model):
        self._scan_aliases(model)
        self._scan_classes(model)
        self._scan_out_of_line_functions()
        self._scan_free_functions()
        self._scan_hot_facts(model)

    #: Tokens at class scope that end a backward walk from a method
    #: name to the start of its declaration.
    _DECL_BOUNDARY = (";", "}", "{", "public", "private", "protected")

    def _ret_text(self, i, lo=0):
        """Return-type-ish text preceding the name token at `i`."""
        toks = self.toks
        j = i - 1
        while j >= lo and toks[j].text not in self._DECL_BOUNDARY \
                and toks[j].text != ":":
            j -= 1
        words = [t.text for t in toks[j + 1:i]
                 if t.text not in ("virtual", "static", "inline",
                                   "constexpr", "explicit", "friend",
                                   HOT_PATH_MARKER)]
        return " ".join(words)

    def _scan_hot_facts(self, model):
        """PSB_HOT_PATH roots, virtual-method decls, and allow() on
        declarations (which must also suppress the out-of-line
        definition — see Model.decl_allows)."""
        toks = self.toks
        n = len(toks)

        def owner(idx):
            best = ""
            for cname, lo, hi in self.class_spans:
                if lo <= idx < hi:
                    best = cname  # innermost wins (spans nest)
            return best

        # Hot roots: PSB_HOT_PATH ... name ( — the first identifier
        # followed by '(' after the marker is the function name.
        for i, t in enumerate(toks):
            if t.kind == "id" and t.text == HOT_PATH_MARKER:
                k = i + 1
                while k + 1 < n and not (toks[k].kind == "id"
                                         and toks[k + 1].text == "("):
                    k += 1
                if k + 1 < n:
                    model.hot_roots.add((owner(k), toks[k].text))

        # Class-depth walk: virtual markers and declaration-site
        # suppressions for every method of every class.
        for cname, lo, hi in self.class_spans:
            i = lo
            while i < hi:
                t = toks[i]
                if t.text == "{":
                    i = _find_matching(toks, i, "{", "}") + 1
                    continue
                if t.kind == "id" and i + 1 < hi \
                        and toks[i + 1].text == "(" \
                        and t.text not in CONTROL_KEYWORDS:
                    j = i - 1
                    while j >= lo and toks[j].text not in \
                            self._DECL_BOUNDARY:
                        if toks[j].text == "virtual":
                            model.virtuals.add((cname, t.text))
                            break
                        j -= 1
                    rules = set()
                    for ln in (t.line, t.line - 1):
                        rules |= self.sup.get(ln, set())
                    if rules:
                        model.decl_allows.setdefault(
                            (cname, t.text), set()).update(rules)
                    i = _find_matching(toks, i + 1, "(", ")") + 1
                    continue
                i += 1

    def _scan_aliases(self, model):
        toks = self.toks
        for i, t in enumerate(toks):
            if t.text == "using" and i + 2 < len(toks) \
                    and toks[i + 1].kind == "id" \
                    and toks[i + 2].text == "=":
                j = i + 3
                while j < len(toks) and toks[j].text != ";":
                    j += 1
                model.aliases[toks[i + 1].text] = \
                    _type_str(toks[i + 3:j])
            elif t.text == "typedef":
                j = i + 1
                while j < len(toks) and toks[j].text != ";":
                    j += 1
                if j - 1 > i + 1 and toks[j - 1].kind == "id":
                    model.aliases[toks[j - 1].text] = \
                        _type_str(toks[i + 1:j - 1])

    def _scan_classes(self, model):
        toks = self.toks
        i = 0
        n = len(toks)
        while i < n:
            t = toks[i]
            if t.text in ("class", "struct") and i + 1 < n \
                    and toks[i + 1].kind == "id":
                name = toks[i + 1].text
                j = i + 2
                bases = []
                # optional final/base clause up to '{' or ';'
                while j < n and toks[j].text not in ("{", ";"):
                    if toks[j].kind == "id" and toks[j].text not in (
                            "public", "private", "protected", "final",
                            "virtual"):
                        bases.append(toks[j].text)
                    j += 1
                if j < n and toks[j].text == "{":
                    body_hi = _find_matching(toks, j, "{", "}")
                    info = model.cls(name)
                    info.bases.extend(
                        b for b in bases if b not in info.bases)
                    info.files.add(self.rel)
                    self.class_spans.append((name, j + 1, body_hi))
                    self._scan_class_body(model, info, j + 1, body_hi)
                    i = j + 1  # descend: nested classes re-found OK
                    continue
            i += 1

    def _scan_class_body(self, model, info, lo, hi):
        """Members, accessors, inline method bodies at class depth."""
        toks = self.toks
        i = lo
        while i < hi:
            t = toks[i]
            if t.text == "{":  # inline body or nested brace: skip over
                i = _find_matching(toks, i, "{", "}") + 1
                continue
            if t.kind == "id" and i + 1 < hi:
                nxt = toks[i + 1]
                # method: name ( ... ) [const] { body }  or  decl ;
                if nxt.text == "(" and t.text not in (
                        "if", "for", "while", "switch", "return"):
                    close = _find_matching(toks, i + 1, "(", ")")
                    k = close + 1
                    while k < hi and toks[k].text in (
                            "const", "override", "noexcept", "final"):
                        k += 1
                    if k < hi and toks[k].text == "{":
                        body_hi = _find_matching(toks, k, "{", "}")
                        self.functions.append(Func(
                            info.name, t.text, i + 2, close, k + 1,
                            body_hi, ret=self._ret_text(i, lo)))
                        if t.text not in info.declares:
                            info.declares.add(t.text)
                        self._maybe_accessor(
                            info, t.text, k + 1, body_hi)
                        i = body_hi + 1
                        continue
                    # declaration only (';' or '= 0;')
                    info.declares.add(t.text)
                    i = k
                    continue
                # member: <type tokens> name [= init] ; / {init};
                if nxt.text in (";", "=", "{") and i - 1 >= lo:
                    j = i - 1
                    while j >= lo and toks[j].text in ("*", "&"):
                        j -= 1
                    # A nested template can end in the '>>' token:
                    # it closes two levels.
                    if j >= lo and toks[j].text in (">", ">>"):
                        depth = 0
                        while j >= lo:
                            if toks[j].text in (">", ">>"):
                                depth += len(toks[j].text)
                            elif toks[j].text == "<":
                                depth -= 1
                                if depth == 0:
                                    j -= 1
                                    break
                            j -= 1
                    if j >= lo and toks[j].kind == "id":
                        ty_lo = j
                        while ty_lo - 1 >= lo and toks[ty_lo - 1].kind \
                                in ("id", "punc") and \
                                toks[ty_lo - 1].text in (
                                "const", "static", "mutable", "unsigned",
                                "long", "std", "::", "<", ">", ">>",
                                ","):
                            ty_lo -= 1
                        ty = _type_str(toks[ty_lo:i])
                        if ty and ty not in ("return", "public",
                                             "private", "protected"):
                            info.members.setdefault(t.text, ty)
            i += 1

    def _maybe_accessor(self, info, fname, lo, hi):
        """Record `name() const { return _x; }` style accessors."""
        toks = self.toks
        body = toks[lo:hi]
        if len(body) == 3 and body[0].text == "return" \
                and body[1].kind == "id" and body[2].text == ";":
            info.accessors[fname] = body[1].text

    def _scan_out_of_line_functions(self):
        """`Ret Class::name(...) { ... }` definitions in .cc files."""
        toks = self.toks
        n = len(toks)
        i = 0
        while i < n - 3:
            if toks[i].kind == "id" and toks[i + 1].text == "::" \
                    and toks[i + 2].kind == "id" \
                    and toks[i + 3].text == "(":
                close = _find_matching(toks, i + 3, "(", ")")
                k = close + 1
                while k < n and toks[k].text in ("const", "noexcept",
                                                 "override"):
                    k += 1
                # skip constructor init lists: ': member(init), ...'
                if k < n and toks[k].text == ":":
                    while k < n and toks[k].text != "{":
                        if toks[k].text == "(":
                            k = _find_matching(toks, k, "(", ")")
                        elif toks[k].text == "{":
                            break
                        k += 1
                if k < n and toks[k].text == "{":
                    body_hi = _find_matching(toks, k, "{", "}")
                    self.functions.append(Func(
                        toks[i].text, toks[i + 2].text, i + 4, close,
                        k + 1, body_hi, ret=self._ret_text(i)))
                    i = body_hi + 1
                    continue
            i += 1

    def _scan_free_functions(self):
        """Free-function definitions at namespace scope.

        The class and out-of-line scanners above have already claimed
        their body spans; what remains at namespace scope matching
        `type name ( params ) [const noexcept] { ... }` is a free (or
        file-static/inline) function — exactly where helper routines
        like JSON emitters and merge-key builders live, which the
        dataflow rules (R7/R9) must see.
        """
        toks = self.toks
        n = len(toks)
        covered = sorted(
            [(lo, hi) for _name, lo, hi in self.class_spans]
            + [(f.body_lo, f.body_hi) for f in self.functions])
        merged = []
        for lo, hi in covered:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        ci = 0
        i = 0
        while i < n - 1:
            while ci < len(merged) and merged[ci][1] < i:
                ci += 1
            if ci < len(merged) and merged[ci][0] <= i:
                i = merged[ci][1] + 1
                continue
            t = toks[i]
            prev = toks[i - 1] if i else None
            if t.kind == "id" and toks[i + 1].text == "(" \
                    and t.text not in CONTROL_KEYWORDS \
                    and prev is not None \
                    and (prev.kind == "id"
                         or prev.text in (">", "*", "&")) \
                    and prev.text not in ("class", "struct", "enum",
                                          "return", "new", "::"):
                close = _find_matching(toks, i + 1, "(", ")")
                k = close + 1
                while k < n and toks[k].text in ("const", "noexcept"):
                    k += 1
                if k < n and toks[k].text == "{":
                    body_hi = _find_matching(toks, k, "{", "}")
                    self.functions.append(Func(
                        None, t.text, i + 2, close, k + 1, body_hi,
                        ret=self._ret_text(i)))
                    i = body_hi + 1
                    continue
            i += 1


# --------------------------------------------------------------------
# Finding bookkeeping
# --------------------------------------------------------------------

class Findings:
    def __init__(self):
        self.items = []  # dicts: file, line, rule, message

    def add(self, scan_or_rel, line, rule, message, suppressed=None):
        rel = scan_or_rel.rel if isinstance(scan_or_rel, FileScan) \
            else scan_or_rel
        if suppressed:
            for ln in (line, line - 1):
                if rule in suppressed.get(ln, ()):
                    return
        self.items.append({"file": str(rel), "line": line,
                           "rule": rule, "message": message})

    def sorted(self):
        return sorted(self.items,
                      key=lambda f: (f["file"], f["line"], f["rule"]))


# --------------------------------------------------------------------
# Rule passes (token/scope engine)
# --------------------------------------------------------------------

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "return", "sizeof",
                    "alignof", "catch", "case", "throw", "new",
                    "delete", "assert", "static_assert", "decltype"}

TRACE_MACROS = {"PSB_TRACE", "PSB_TRACE_BEGIN", "PSB_TRACE_END",
                "PSB_TRACE_SET_NOW"}

OBSERVABLE_IN_LOOP = {"PSB_TRACE", "PSB_TRACE_BEGIN", "PSB_TRACE_END",
                      "addScalar", "addReal", "addAverage",
                      "addHistogram", "sample", "sampleN", "<<"}

EXEMPT_FILES = ("util/strong_types.hh", "util/thread_annotations.hh")

STATS_SCOPE_DIRS = ("core/", "cpu/", "memory/", "predictors/",
                    "prefetch/", "sim/")


def _exempt(rel):
    return str(rel).replace("\\", "/").endswith(EXEMPT_FILES)


def _top_dir(rel):
    """First component of a root-relative path: "src" for tree files
    and for fixtures laid out under tests/analyze/src/."""
    return pathlib.PurePath(rel).parts[0]


def _is_uint64(tok, model):
    """True for `uint64_t` or an alias chain that ends in it."""
    name = tok.text
    for _ in range(5):
        if name == "uint64_t":
            return True
        ty = model.aliases.get(name)
        if not ty:
            return False
        name = ty.split()[-1]
    return False


def pass_r1_params(scan, model, suppressed, findings):
    """R1a: raw uint64_t address/cycle parameters (headers and .cc),
    spelled directly or through a using/typedef alias."""
    if _exempt(scan.rel):
        return
    toks = scan.toks
    n = len(toks)
    # paren stack entries: True when the group is a decl/call arg list
    paren_stack = []
    for i, t in enumerate(toks):
        if t.text == "(":
            prev = toks[i - 1] if i else None
            arglist = (prev is not None and prev.kind == "id"
                       and prev.text not in CONTROL_KEYWORDS)
            paren_stack.append(arglist)
        elif t.text == ")":
            if paren_stack:
                paren_stack.pop()
        elif t.kind == "id" and paren_stack and any(paren_stack) \
                and _is_uint64(t, model):
            j = i + 1
            while j < n and toks[j].text in ("&", "*", "&&", "const"):
                j += 1
            if j < n and toks[j].kind == "id" \
                    and DOMAIN_NAME_RE.match(toks[j].text):
                via = "" if t.text == "uint64_t" \
                    else f" (through alias '{t.text}')"
                findings.add(
                    scan, toks[j].line, "R1",
                    f"raw uint64_t parameter '{toks[j].text}'{via} "
                    f"carries an address/cycle quantity; use the strong "
                    f"domain types (ByteAddr/BlockAddr/Cycle...)", suppressed)


def _statements(toks, lo=0, hi=None):
    """Yield (start, end) token index ranges split at ; { }."""
    hi = len(toks) if hi is None else hi
    start = lo
    for i in range(lo, hi):
        if toks[i].text in (";", "{", "}"):
            if i > start:
                yield start, i
            start = i + 1
    if hi > start:
        yield start, hi


def _raw_call_positions(toks, lo, hi):
    out = []
    for i in range(lo, hi - 2):
        if toks[i].text == "." and toks[i + 1].text == "raw" \
                and toks[i + 2].text == "(":
            out.append(i)
    return out


def pass_r1_raw_arith(scan, suppressed, findings):
    """R1b: two .raw() results combined by +,-,*,/,%."""
    if _exempt(scan.rel):
        return
    toks = scan.toks
    for lo, hi in _statements(toks):
        raws = _raw_call_positions(toks, lo, hi)
        if len(raws) < 2:
            continue
        between = toks[raws[0] + 3:raws[-1]]
        if any(t.text in ARITH_OPS for t in between):
            findings.add(
                scan, toks[raws[0]].line, "R1",
                "arithmetic combines two .raw() escapes; this math "
                "belongs inside the strong types "
                "(util/strong_types.hh operators)", suppressed)


def _strong_members(model):
    """Names of all strong-typed members in the model (R1c)."""
    return {
        m for info in model.classes.values()
        for m, ty in info.members.items()
        if any(ty.split()[-1] == st or ty == st
               for st in STRONG_TYPES)}


def pass_r1_reentry(scan, strong_members, suppressed, findings):
    """R1c: strong-type ctor / strong member init fed raw arithmetic."""
    if _exempt(scan.rel):
        return
    toks = scan.toks
    n = len(toks)
    for i in range(n - 1):
        t = toks[i]
        if toks[i + 1].text != "(" or t.kind != "id":
            continue
        is_strong_ctor = t.text in STRONG_TYPES and (
            i == 0 or toks[i - 1].text not in ("class", "struct",
                                               "::", "new"))
        is_member_init = t.text in strong_members
        if not (is_strong_ctor or is_member_init):
            continue
        close = _find_matching(toks, i + 1, "(", ")")
        args = toks[i + 2:close]
        has_raw = any(
            args[k].text == "." and k + 1 < len(args)
            and args[k + 1].text == "raw" for k in range(len(args)))
        if has_raw and any(a.text in ARITH_OPS for a in args):
            what = ("constructor" if is_strong_ctor
                    else "member initializer")
            findings.add(
                scan, t.line, "R1",
                f"strong-type {what} '{t.text}(...)' is fed .raw() "
                f"arithmetic — the value escaped the domain and "
                f"re-enters unchecked; use the strong-type operators "
                f"instead", suppressed)


def pass_r4_trace_purity(scan, suppressed, findings):
    """R4: side effects inside PSB_TRACE* argument lists."""
    rel = str(scan.rel).replace("\\", "/")
    if rel.endswith(("util/trace.hh", "util/trace.cc")):
        return  # the macro definitions themselves
    toks = scan.toks
    n = len(toks)
    for i in range(n - 1):
        if toks[i].kind == "id" and toks[i].text in TRACE_MACROS \
                and toks[i + 1].text == "(":
            close = _find_matching(toks, i + 1, "(", ")")
            for a in toks[i + 2:close]:
                if a.text in ("++", "--") or a.text in ASSIGN_OPS:
                    findings.add(
                        scan, a.line, "R4",
                        f"side effect ('{a.text}') inside "
                        f"{toks[i].text} arguments; trace arguments "
                        f"are skipped when tracing is off, so this "
                        f"changes behavior with tracing on/off", suppressed)
                    break


# ------------- src/-scoped raw primitives (R8) and R10 ---------------

def pass_r8_raw_primitives(scan, suppressed, findings):
    """R8: raw std synchronization primitives in src/ outside
    util/thread_annotations.hh, which clang -Wthread-safety cannot
    see. One finding per line."""
    if _top_dir(scan.rel) != "src" or str(scan.rel).replace(
            "\\", "/").endswith("util/thread_annotations.hh"):
        return
    toks = scan.toks
    hits = {}
    for i, t in enumerate(toks[:-2]):
        if t.text == "std" and toks[i + 1].text == "::" \
                and toks[i + 2].text in R8_RAW_PRIMITIVES:
            hits.setdefault(t.line, toks[i + 2].text)
    for line, what in sorted(hits.items()):
        findings.add(scan, line, "R8",
                     f"raw std::{what} in src/; use psb::Mutex/"
                     f"MutexLock/CondVar (util/thread_annotations.hh) "
                     f"so clang -Wthread-safety can prove the locking",
                     suppressed)


def pass_r10_marker(rel, toks, suppressed, findings):
    """R10 marker placement: PSB_HOT_PATH roots src/'s call graph, so
    it must sit on a function declaration (a `(` before the next
    `;`, `{`, `}` or `=`), and it does not belong in tests/ or
    tools/ at all."""
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text != HOT_PATH_MARKER:
            continue
        if _top_dir(rel) in ("tests", "tools"):
            findings.add(
                rel, t.line, "R10",
                "PSB_HOT_PATH outside src/; the hot-path annotation "
                "belongs on the simulator's per-cycle roots, not in "
                "tests or tools", suppressed)
            continue
        k = i + 1
        while k < n and toks[k].text not in ("(", ";", "{", "}", "="):
            k += 1
        if k >= n or toks[k].text != "(":
            findings.add(
                rel, t.line, "R10",
                "PSB_HOT_PATH must annotate a function declaration "
                "(it roots the hot-path call graph)", suppressed)


def _resolve_type(name, scan_locals, cls_info, model, depth=0):
    """Resolve an identifier to a declared type string, via aliases."""
    if depth > 4:
        return ""
    ty = scan_locals.get(name, "")
    if not ty and cls_info is not None:
        ty = cls_info.members.get(name, "")
    if not ty:
        ty = ""
    out = []
    for w in ty.split():
        if w in model.aliases:
            out.append(model.aliases[w])
        else:
            out.append(w)
    resolved = " ".join(out)
    if resolved in model.aliases:
        return model.aliases[resolved]
    return resolved


def _collect_locals(toks, lo, hi):
    """Very light local-decl harvest: `Type [&|*] name =|{|;` inside a
    body (the `:` alternative catches range-for bindings)."""
    out = {}
    for s, e in _statements(toks, lo, hi):
        span = toks[s:e]
        for k in range(1, len(span)):
            prev_is_type = span[k - 1].kind == "id" or (
                span[k - 1].text in ("&", "*") and k >= 2
                and span[k - 2].kind == "id")
            if span[k].kind == "id" and k + 1 < len(span) \
                    and span[k + 1].text in ("=", "{", ";", ":") \
                    and prev_is_type:
                out.setdefault(span[k].text,
                               _type_str(span[:k]))
                break
    return out


def pass_r3_determinism(scan, model, suppressed, findings):
    """R3: unordered iteration into observable state; pointer keys."""
    toks = scan.toks
    n = len(toks)

    # Pointer-keyed associative containers, aliases resolved.
    for s, e in _statements(toks):
        ty = _type_str(toks[s:e])
        expanded = " ".join(
            model.aliases.get(w, w) for w in ty.split())
        if re.search(r"\b(?:unordered_)?(?:map|set)\s*<[^,>]*\*",
                     expanded):
            findings.add(
                scan, toks[s].line, "R3",
                "pointer-keyed associative container (possibly via "
                "an alias); iteration order is allocator-dependent "
                "and can leak into stats", suppressed)

    # Range-for over unordered containers writing observable state.
    for fn in scan.functions:
        lo, hi = fn.body_lo, fn.body_hi
        cls_info = model.classes.get(fn.cls)
        locals_ = _collect_locals(toks, lo, hi)
        i = lo
        while i < hi:
            if toks[i].text == "for" and i + 1 < hi \
                    and toks[i + 1].text == "(":
                close = _find_matching(toks, i + 1, "(", ")")
                head = toks[i + 2:close]
                colon = next((k for k, t in enumerate(head)
                              if t.text == ":"), None)
                if colon is not None:
                    cont = [t for t in head[colon + 1:]
                            if t.kind == "id"]
                    ty = ""
                    for c in cont:
                        ty = _resolve_type(c.text, locals_, cls_info,
                                           model)
                        if ty:
                            break
                        if c.text in ("unordered_map",
                                      "unordered_set"):
                            ty = c.text
                            break
                    if "unordered_map" in ty or "unordered_set" in ty:
                        body_lo = close + 1
                        if body_lo < hi and toks[body_lo].text == "{":
                            body_hi = _find_matching(
                                toks, body_lo, "{", "}")
                        else:
                            body_hi = next(
                                (k for k in range(body_lo, hi)
                                 if toks[k].text == ";"), hi)
                        body = toks[body_lo:body_hi]
                        writes = any(
                            t.text in OBSERVABLE_IN_LOOP
                            or t.text in ("++", "--")
                            or t.text in ASSIGN_OPS
                            for t in body)
                        if writes:
                            findings.add(
                                scan, toks[i].line, "R3",
                                "iteration over an unordered "
                                "container writes stats/trace/"
                                "output; the visit order is hash-"
                                "seed and allocator noise — use an "
                                "ordered container or sort first", suppressed)
                i = close + 1
                continue
            i += 1


# ------------------------- R2: stats completeness -------------------

MUTATION_STMT_PRECEDERS = {";", "{", "}", ")", ":", "else", "do"}


def collect_r2_facts(scan, model):
    """Harvest bumps, registered identifiers, and other reads."""
    toks = scan.toks

    def member_path(idx):
        """Parse `_x` or `_s.f` starting at idx; ('' if not id)."""
        if idx >= len(toks) or toks[idx].kind != "id":
            return None, idx
        base = toks[idx].text
        if idx + 2 < len(toks) and toks[idx + 1].text == "." \
                and toks[idx + 2].kind == "id":
            return (base, toks[idx + 2].text), idx + 3
        return (base, None), idx + 1

    def owns_member(info, name, seen=None):
        """Member of the class or, transitively, of a base class."""
        if info is None:
            return False
        if name in info.members:
            return True
        seen = seen or set()
        seen.add(info.name)
        return any(
            owns_member(model.classes.get(b), name, seen)
            for b in info.bases
            if b in model.classes and b not in seen)

    for fn in scan.functions:
        cls_name, fname = fn.cls, fn.name
        lo, hi = fn.body_lo, fn.body_hi
        info = model.classes.get(cls_name)
        in_register = fname == "registerStats"
        in_reset = fname == "resetStats"
        # a pure accessor's `return _x;` is not a "real" read
        is_accessor = (info is not None
                       and info.accessors.get(fname) is not None)
        if in_register:
            for t in toks[lo:hi]:
                if t.kind == "id":
                    model.registered_ids.add(t.text)
            continue
        i = lo
        while i < hi:
            t = toks[i]
            prev = toks[i - 1] if i > lo else None
            # prefix:  ++_x;   ++_s.f;
            if t.text in ("++", "--") and (
                    prev is None
                    or prev.text in MUTATION_STMT_PRECEDERS):
                path, after = member_path(i + 1)
                if path and owns_member(info, path[0]) \
                        and after < hi and toks[after].text == ";":
                    _note_bump(model, info, path, scan.rel,
                               toks[i].line)
                    i = after + 1
                    continue
            # statement-initial member path: postfix bump, += or read
            if t.kind == "id" and owns_member(info, t.text) and (
                    prev is None
                    or prev.text in MUTATION_STMT_PRECEDERS):
                path, after = member_path(i)
                if path and after < hi:
                    nxt = toks[after].text
                    if nxt in ("++", "--") and after + 1 < hi \
                            and toks[after + 1].text == ";":
                        _note_bump(model, info, path, scan.rel,
                                   toks[i].line)
                        i = after + 2
                        continue
                    if nxt == "+=":
                        _note_bump(model, info, path, scan.rel,
                                   toks[i].line)
                        i = after + 1
                        continue
            # any other appearance of a member id = a "real" read,
            # unless we are inside resetStats or a pure accessor
            if t.kind == "id" and info is not None \
                    and t.text in info.members \
                    and not in_reset and not is_accessor:
                nxt = toks[i + 1].text if i + 1 < hi else ""
                prev_t = prev.text if prev is not None else ""
                is_bump_ctx = nxt in ("++", "--", "+=") \
                    or prev_t in ("++", "--")
                if not is_bump_ctx:
                    model.other_reads.add((cls_name, t.text))
            i += 1

    # accessor bodies don't count as reads; they were parsed from the
    # class body scan and are exactly `return _x;`


def _note_bump(model, info, path, rel, line):
    base, field = path
    cls_name = info.name if info is not None else ""
    key = (cls_name, base if field is None else f"{base}.{field}")
    model.bumps.setdefault(key, []).append((str(rel), line))


def _class_in_stats_scope(info, model, rel_files):
    """True when the class participates in the stats system."""
    seen = set()

    def walk(ci):
        if ci.name in seen:
            return False
        seen.add(ci.name)
        if "registerStats" in ci.declares or "resetStats" in \
                ci.declares:
            return True
        return any(walk(model.classes[b]) for b in ci.bases
                   if b in model.classes)

    if walk(info):
        return True
    # directory scope: component code participates even without its
    # own registerStats (its owner may register through accessors)
    return any(any(d in str(f) for d in STATS_SCOPE_DIRS)
               for f in rel_files)


def pass_r2_completeness(model, suppressions_by_file, findings):
    """Cross-TU: every pure counter bump must be registered."""
    # accessor name -> member, for every class (global indirection)
    accessor_member = {}
    for info in model.classes.values():
        for acc, member in info.accessors.items():
            accessor_member.setdefault(acc, set()).add(
                (info.name, member))

    registered_members = set(model.registered_ids)
    for acc in model.registered_ids:
        for _cls, member in accessor_member.get(acc, ()):
            registered_members.add(member)

    for (cls_name, member), sites in sorted(model.bumps.items()):
        info = model.classes.get(cls_name)
        if info is None:
            continue
        base, _, field = member.partition(".")
        leaf = field or base
        # Only uint64_t counters; struct fields (e.g. _stats.hits)
        # are checked by their leaf name.
        if not field:
            ty = info.members.get(base, "")
            if "uint64_t" not in ty:
                continue
            if (cls_name, base) in model.other_reads:
                continue  # feeds simulation logic; not a pure stat
        site_file, site_line = sites[0]
        if not _class_in_stats_scope(info, model, info.files):
            continue
        # A class that itself declares the stats protocol is checked
        # wherever it lives (fixtures included); otherwise require the
        # bump site to be component code under the stats-scope dirs.
        declares_protocol = _class_in_stats_scope(info, model, [])
        if not declares_protocol \
                and not any(d in site_file for d in STATS_SCOPE_DIRS):
            continue
        if leaf in registered_members:
            continue
        sup = suppressions_by_file.get(site_file, {})
        findings.add(
            site_file, site_line, "R2",
            f"counter '{member}' of {cls_name} is bumped here but "
            f"never registered: it appears in no registerStats() "
            f"body and no accessor returning it is called from one, "
            f"so it is missing from the stats JSON", sup)


# --------------------------------------------------------------------
# Dataflow layer: def-use chains + cross-TU call summaries (R7, R9)
# --------------------------------------------------------------------

#: Builtin scalar types whose uninitialized locals R7 tracks. Class
#: types default-construct, so only these can hold garbage.
SCALAR_TYPES = {"int", "unsigned", "long", "short", "uint64_t",
                "uint32_t", "uint16_t", "uint8_t", "int64_t", "int32_t",
                "size_t", "ssize_t", "double", "float", "bool", "char"}

_SINK_FN_RE = re.compile(R7_SINK_FN_PATTERN)
_BARRIER_FN_RE = re.compile(R7_BARRIER_FN_PATTERN)


def _parse_params(toks, sig_lo, sig_hi):
    """[(name, type-ish text), ...] for a parameter-list token span."""
    params = []
    chunks = []
    depth = 0
    start = sig_lo
    for i in range(sig_lo, sig_hi):
        t = toks[i].text
        if t in ("(", "<", "[", "{"):
            depth += 1
        elif t in (")", ">", "]", "}"):
            depth = max(0, depth - 1)
        elif t == ">>":
            depth = max(0, depth - 2)
        elif t == "," and depth == 0:
            chunks.append((start, i))
            start = i + 1
    if sig_hi > start:
        chunks.append((start, sig_hi))
    for lo, hi in chunks:
        span = toks[lo:hi]
        eq = next((k for k, t in enumerate(span) if t.text == "="),
                  len(span))
        span = span[:eq]
        ids = [t for t in span if t.kind == "id"]
        if not ids:
            continue
        name = ids[-1].text if len(ids) >= 2 else ""
        params.append((name, _type_str(span)))
    return params


class FuncSummary:
    """What a callee does with taint, keyed by bare function name.
    Overloads and same-named methods are merged (conservative)."""

    __slots__ = ("returns_taint", "returns_raw", "param_sinks")

    def __init__(self):
        self.returns_taint = None  # reason string, or None
        self.returns_raw = False   # returns a .raw()-derived value
        self.param_sinks = {}      # param index -> sink description


class Dataflow:
    """Per-function def-use walk with cross-TU summaries.

    Two summary rounds propagate facts through call chains and member
    assignments (round one records leaf facts, round two folds them
    into callers — enough for the helper-into-member-into-sink chains
    this codebase actually has), then an emission round reports:

      R7: a nondeterministic value (unordered iteration order, clock,
          pointer cast, uninitialized read — possibly via a callee's
          return value or a struct member) reaching a stats
          registration call or a JSON/golden/merge emitter, with no
          sort/normalize barrier in between.
      R9: a .raw() value round-tripping through locals/returns into
          arithmetic or a strong-type constructor — the multi-
          statement, cross-function version of R1.
    """

    def __init__(self, scans, model):
        self.scans = scans      # [(FileScan, suppressions), ...]
        self.model = model
        self.summaries = {}     # fname -> FuncSummary
        self.member_taint = {}  # (class, member) -> reason

    def run(self, findings):
        for _round in range(2):
            for scan, sup in self.scans:
                for fn in scan.functions:
                    self._walk(scan, fn, None, sup)
        for scan, sup in self.scans:
            if _exempt(scan.rel):
                continue
            for fn in scan.functions:
                self._walk(scan, fn, findings, sup)

    # -- helpers ----------------------------------------------------

    def _type_of(self, name, locals_ty, cls_info):
        ty = locals_ty.get(name, "")
        if not ty and cls_info is not None:
            ty = cls_info.members.get(name, "")
        out = []
        for w in ty.split():
            out.append(self.model.aliases.get(w, w))
        return " ".join(out)

    def _member_reason(self, base, field, locals_ty, cls_info):
        """Taint of `base.field` via the declared type of `base`."""
        ty = self._type_of(base, locals_ty, cls_info)
        for w in ty.split():
            reason = self.member_taint.get((w, field))
            if reason:
                return reason
        return None

    def _is_barrier(self, name):
        return name in R7_BARRIER_CALLS or \
            _BARRIER_FN_RE.search(name) is not None

    #: Operators that end an arithmetic chain: a raw value merely
    #: *compared* (or selected, or passed alongside) is not escaping.
    _RESET_OPS = {"==", "!=", "<", ">", "<=", ">=", "&&", "||", "?",
                  ":", ",", ";", "=", "<<", ">>", "&", "|", "^", "!"}

    def _eval(self, toks, lo, hi, env):
        """Evaluate an expression span.

        Returns (reason, raw_ids, raw_combo, direct_raw): the first
        nondeterminism reason found (or None), the set of raw-value
        carriers read by the span, whether a raw value is an
        *operand* of +,-,*,/,% here (or already was one, for "arith"
        carriers) — adjacency matters: `a == b` or arithmetic on
        unrelated operands in the same statement does not count —
        and the number of direct .raw() calls.
        """
        taint, rawv, uninit, locals_ty, cls_info, own_cls = env
        reason = None
        raw_ids = set()
        raw_combo = False
        direct_raw = 0
        last_raw = False      # most recent operand was raw-derived
        pending_arith = False  # an ARITH op awaits its right operand

        def operand(is_raw):
            nonlocal last_raw, pending_arith, raw_combo
            if pending_arith and (is_raw or last_raw):
                raw_combo = True
            pending_arith = False
            last_raw = is_raw

        k = lo
        while k < hi:
            t = toks[k]
            if t.text in ARITH_OPS:
                if last_raw:
                    raw_combo = True
                pending_arith = True
                k += 1
                continue
            if t.text in self._RESET_OPS:
                last_raw = False
                pending_arith = False
                k += 1
                continue
            if t.text == "." and k + 2 < hi \
                    and toks[k + 1].text == "raw" \
                    and toks[k + 2].text == "(":
                direct_raw += 1
                operand(True)
                k += 3
                continue
            if t.kind == "num":
                operand(False)
                k += 1
                continue
            if t.kind != "id":
                k += 1
                continue
            nxt = toks[k + 1].text if k + 1 < hi else ""
            if t.text in R7_POINTER_SOURCES:
                reason = reason or "pointer-value cast " \
                    f"('{t.text}')"
            elif t.text in R7_CLOCK_SOURCES:
                reason = reason or f"wall-clock/time source " \
                    f"('{t.text}')"
            elif nxt == "(" and t.text not in CONTROL_KEYWORDS:
                sm = self.summaries.get(t.text)
                is_raw_call = False
                if sm is not None and not self._is_barrier(t.text):
                    if sm.returns_taint and reason is None:
                        reason = f"{sm.returns_taint}, via " \
                            f"{t.text}()"
                    if sm.returns_raw:
                        raw_ids.add(t.text + "()")
                        is_raw_call = True
                operand(is_raw_call)
            else:
                if reason is None and t.text in taint:
                    reason = taint[t.text]
                if reason is None and t.text in uninit:
                    reason = f"read of uninitialized '{t.text}'"
                if reason is None and own_cls is not None:
                    reason = self.member_taint.get(
                        (own_cls, t.text))
                if reason is None and nxt == "." and k + 2 < hi \
                        and toks[k + 2].kind == "id":
                    reason = self._member_reason(
                        t.text, toks[k + 2].text, locals_ty,
                        cls_info)
                is_carrier = t.text in rawv
                if is_carrier:
                    raw_ids.add(t.text)
                    if rawv[t.text] == "arith":
                        raw_combo = True
                operand(is_carrier)
            k += 1
        return reason, raw_ids, raw_combo, direct_raw

    # -- the walk ---------------------------------------------------

    def _walk(self, scan, fn, findings, sup):
        toks = scan.toks
        model = self.model
        cls_info = model.classes.get(fn.cls) if fn.cls else None
        params = _parse_params(toks, fn.sig_lo, fn.sig_hi)
        summary = self.summaries.setdefault(fn.name, FuncSummary())
        sink_fn = _SINK_FN_RE.search(fn.name) is not None

        taint = {}      # local/loop var -> reason
        rawv = {}       # var -> "plain" | "arith"
        uninit = set()  # declared scalars with no initializer yet
        locals_ty = {}  # name -> declared type text
        param_names = []
        for pname, pty in params:
            if pname:
                locals_ty[pname] = pty
                param_names.append(pname)
        env = (taint, rawv, uninit, locals_ty, cls_info, fn.cls)

        for s, e in _statements(toks, fn.body_lo, fn.body_hi):
            if s >= e:
                continue

            # `using clock = std::chrono::steady_clock;` — taint the
            # alias name so `clock::now()` reads as a clock source.
            if toks[s].text == "using" and s + 2 < e \
                    and toks[s + 2].text == "=":
                if any(toks[k].kind == "id"
                       and toks[k].text in R7_CLOCK_SOURCES
                       for k in range(s + 3, e)):
                    taint[toks[s + 1].text] = \
                        "wall-clock/time source (aliased)"
                continue

            # for-heads: bind the loop variable, then process any
            # trailing single-statement body as part of this span.
            if toks[s].text == "for" and s + 1 < e \
                    and toks[s + 1].text == "(":
                close = _find_matching(toks, s + 1, "(", ")")
                if close < e:
                    colon = next(
                        (k for k in range(s + 2, close)
                         if toks[k].text == ":"), None)
                    if colon is not None:
                        before = [toks[k] for k in range(s + 2, colon)
                                  if toks[k].kind == "id"]
                        loopvar = before[-1].text if before else None
                        creason = None
                        for k in range(colon + 1, close):
                            t = toks[k]
                            if t.kind != "id":
                                continue
                            if k + 1 < close \
                                    and toks[k + 1].text == "(" \
                                    and self._is_barrier(t.text):
                                # iterating a barrier call's result:
                                # the order is normalized by name
                                break
                            if t.text in ("unordered_map",
                                          "unordered_set"):
                                creason = ("unordered-container "
                                           "iteration order")
                                break
                            ty = self._type_of(t.text, locals_ty,
                                               cls_info)
                            if "unordered_map" in ty \
                                    or "unordered_set" in ty:
                                creason = (
                                    f"iteration order of unordered "
                                    f"container '{t.text}'")
                                break
                            if t.text in taint:
                                creason = taint[t.text]
                                break
                        if loopvar and creason:
                            taint[loopvar] = creason
                    s = close + 1
                else:
                    s = s + 2  # classic for: skip `for (`, keep init
                if s >= e:
                    continue

            # Pre-scan: barriers clear their arguments; a scalar
            # passed to any call (or address-taken) may be written,
            # so it stops counting as uninitialized.
            k = s
            while k < e - 1:
                t = toks[k]
                if t.text == "&" and toks[k + 1].kind == "id":
                    uninit.discard(toks[k + 1].text)
                if t.kind == "id" and toks[k + 1].text == "(" \
                        and t.text not in CONTROL_KEYWORDS:
                    close = _find_matching(toks, k + 1, "(", ")")
                    for a in range(k + 2, min(close, e)):
                        if toks[a].kind == "id":
                            uninit.discard(toks[a].text)
                    if self._is_barrier(t.text):
                        for a in range(k + 2, min(close, e)):
                            if toks[a].kind == "id":
                                taint.pop(toks[a].text, None)
                k += 1

            # return: feed the summary.
            if toks[s].text == "return":
                reason, raw_ids, _rc, direct = self._eval(
                    toks, s + 1, e, env)
                if reason and summary.returns_taint is None:
                    summary.returns_taint = reason
                if direct or raw_ids:
                    summary.returns_raw = True

            # Sink scan. In summary rounds this records param->sink
            # facts; in the emit round it reports tainted arguments.
            k = s
            while k < e - 1:
                t = toks[k]
                if t.kind == "id" and toks[k + 1].text == "(" \
                        and t.text not in CONTROL_KEYWORDS:
                    close = min(_find_matching(toks, k + 1, "(", ")"),
                                e)
                    sink_desc = None
                    if t.text in R7_SINK_CALLS:
                        sink_desc = f"stats sink '{t.text}()'"
                    else:
                        sm = self.summaries.get(t.text)
                        if sm is not None and sm.param_sinks \
                                and not self._is_barrier(t.text):
                            sink_desc = (
                                f"'{t.text}()', which passes it to "
                                + next(iter(sorted(
                                    sm.param_sinks.values()))))
                    if sink_desc:
                        for pi, pname in enumerate(param_names):
                            if any(toks[a].kind == "id"
                                   and toks[a].text == pname
                                   for a in range(k + 2, close)):
                                summary.param_sinks.setdefault(
                                    pi, sink_desc)
                        if findings is not None:
                            reason, _ri, _rc, _d = self._eval(
                                toks, k + 2, close, env)
                            if reason:
                                findings.add(
                                    scan, t.line, "R7",
                                    f"nondeterministic value "
                                    f"({reason}) reaches "
                                    f"{sink_desc} without a sort/"
                                    f"normalize barrier; the golden "
                                    f"output would differ run to "
                                    f"run", sup)
                k += 1

            # Inside a JSON/golden/merge emitter, appending or
            # streaming tainted data is itself a sink.
            if findings is not None and sink_fn:
                op_pos = next(
                    (k for k in range(s, e)
                     if toks[k].text in ("+=", "<<")), None)
                if op_pos is not None:
                    reason, _ri, _rc, _d = self._eval(
                        toks, op_pos + 1, e, env)
                    if reason:
                        findings.add(
                            scan, toks[op_pos].line, "R7",
                            f"nondeterministic value ({reason}) is "
                            f"appended to ordered output inside "
                            f"'{fn.name}()'; sort or normalize it "
                            f"first",
                            sup)

            # R9 whole-statement checks (emit round only).
            if findings is not None:
                reason, raw_ids, raw_combo, direct = \
                    self._eval(toks, s, e, env)
                if len(raw_ids) + min(direct, 1) >= 2 \
                        and raw_combo and direct < 2 and raw_ids:
                    names = ", ".join(sorted(raw_ids))
                    findings.add(
                        scan, toks[s].line, "R9",
                        f"arithmetic combines .raw() escapes that "
                        f"round-tripped through locals/returns "
                        f"({names}); keep this math inside the "
                        f"strong types (util/strong_types.hh)", sup)
                k = s
                while k < e - 1:
                    t = toks[k]
                    if t.kind == "id" and t.text in STRONG_TYPES \
                            and toks[k + 1].text == "(" \
                            and (k == 0 or toks[k - 1].text not in
                                 ("class", "struct", "::", "new")):
                        close = min(
                            _find_matching(toks, k + 1, "(", ")"), e)
                        a_reason, a_raw, a_combo, a_direct = \
                            self._eval(toks, k + 2, close, env)
                        if a_raw and a_direct == 0 and a_combo:
                            names = ", ".join(sorted(a_raw))
                            findings.add(
                                scan, t.line, "R9",
                                f"strong-type constructor "
                                f"'{t.text}(...)' re-wraps .raw() "
                                f"values that escaped earlier "
                                f"({names}) after arithmetic — an "
                                f"interprocedural escape-and-"
                                f"re-enter round trip", sup)
                    k += 1

            # Assignment / declaration: update the def-use state.
            depth = 0
            op_k = None
            op = None
            for k in range(s, e):
                tt = toks[k].text
                if tt in ("(", "[", "{"):
                    depth += 1
                elif tt in (")", "]", "}"):
                    depth = max(0, depth - 1)
                elif depth == 0 and tt in ASSIGN_OPS:
                    op_k = k
                    op = tt
                    break
            if op_k is not None:
                lhs_ids = []
                lhs_path = False  # member access / subscript on LHS
                depth = 0
                for k in range(s, op_k):
                    tt = toks[k].text
                    if tt in ("(", "[", "{"):
                        lhs_path = lhs_path or tt == "["
                        depth += 1
                    elif tt in (")", "]", "}"):
                        depth = max(0, depth - 1)
                    elif depth == 0 and tt in (".", "->"):
                        lhs_path = True
                    elif depth == 0 and toks[k].kind == "id":
                        lhs_ids.append(toks[k].text)
                if not lhs_ids:
                    continue
                target = lhs_ids[-1]
                reason, raw_ids, raw_combo, direct = \
                    self._eval(toks, op_k + 1, e, env)
                is_decl = len(lhs_ids) >= 2 and not lhs_path \
                    and toks[s].text not in ("if", "while")
                if is_decl:
                    # `Type name = ...`: record the declared type.
                    locals_ty.setdefault(
                        target,
                        " ".join(lhs_ids[:-1]))
                uninit.discard(target)
                # Raw-carrier tracking is restricted to plain scalar
                # locals: a struct field or strong-typed variable
                # cannot hold a raw escape, and tracking leaf names
                # of member paths conflates unrelated state.
                ty_words = locals_ty.get(target, "").split()
                scalar_ok = not ty_words or any(
                    w in SCALAR_TYPES or w == "auto"
                    for w in ty_words)
                track_raw = not lhs_path and scalar_ok
                is_raw = bool(raw_ids) or direct > 0
                if op == "=":
                    if not lhs_path:
                        if reason:
                            taint[target] = reason
                        else:
                            taint.pop(target, None)
                    if track_raw:
                        if is_raw:
                            rawv[target] = \
                                "arith" if raw_combo else "plain"
                        else:
                            rawv.pop(target, None)
                else:
                    if reason and not lhs_path:
                        taint[target] = reason
                    if track_raw and (is_raw or target in rawv):
                        rawv[target] = "arith"
                # Member writes feed the cross-function member map:
                # `_x = ...` (this-member) or `obj.field = ...` with
                # a resolvable object type.
                if reason:
                    base = lhs_ids[0]
                    if cls_info is not None \
                            and base in cls_info.members:
                        if len(lhs_ids) == 1:
                            self.member_taint.setdefault(
                                (fn.cls, base), reason)
                        else:
                            for w in self._type_of(
                                    base, locals_ty,
                                    cls_info).split():
                                if w in model.classes:
                                    self.member_taint.setdefault(
                                        (w, lhs_ids[1]), reason)
                    elif len(lhs_ids) >= 2:
                        for w in self._type_of(
                                base, locals_ty, cls_info).split():
                            if w in model.classes:
                                self.member_taint.setdefault(
                                    (w, lhs_ids[-1]), reason)
            else:
                # Declaration with no initializer: `uint64_t x;`
                span = toks[s:e]
                texts = [t.text for t in span]
                if len(span) >= 2 and span[0].kind == "id" \
                        and span[0].text not in CONTROL_KEYWORDS \
                        and "(" not in texts \
                        and any(w in SCALAR_TYPES for w in texts):
                    ids = [t.text for t in span if t.kind == "id"
                           and t.text not in SCALAR_TYPES
                           and t.text not in ("std", "signed",
                                              "static")]
                    if len(ids) == 1:
                        uninit.add(ids[0])
                        locals_ty.setdefault(
                            ids[0], _type_str(span[:-1]))


def pass_r7_r9_dataflow(scans, model, findings):
    """Run the dataflow engine over every scanned file."""
    Dataflow(scans, model).run(findings)


# ------------------------- R8: lock discipline -----------------------

def _r8_member_decls(toks, lo, hi):
    """Member-declaration spans of a class body (functions skipped)."""
    out = []
    i = lo
    start = lo
    while i < hi:
        t = toks[i].text
        if t == "{":
            prev = toks[i - 1].text if i > lo else ""
            close = _find_matching(toks, i, "{", "}")
            if prev == ")" or prev in ("const", "override",
                                       "noexcept", "final", "else",
                                       "try"):
                # function body: discard the pending statement
                i = close + 1
                start = i
                continue
            i = close + 1  # brace init: skip it, statement continues
            continue
        if t == ";":
            if i > start:
                out.append(toks[start:i])
            start = i + 1
            i += 1
            continue
        if t in ("public", "private", "protected") and i + 1 < hi \
                and toks[i + 1].text == ":":
            start = i + 2
            i += 2
            continue
        i += 1
    return out


_R8_SKIP_LEADERS = {"using", "typedef", "friend", "static_assert",
                    "template", "enum", "class", "struct", "union",
                    "public", "private", "protected", "operator",
                    "explicit", "virtual"}


def _r8_classify(span):
    """(member-name or None, annotated) for one member-decl span.

    Returns (None, _) when the span is not a mutable unsynchronized
    data member (function declarations, constants, sync types, and
    already-annotated members all come back None).
    """
    if span[0].text in _R8_SKIP_LEADERS:
        return None, False
    annotated = False
    core = []
    k = 0
    while k < len(span):
        t = span[k]
        if t.kind == "id" and t.text in R8_ALL_ANNOTATIONS:
            if t.text in R8_GUARD_ANNOTATIONS:
                annotated = True
            if k + 1 < len(span) and span[k + 1].text == "(":
                k = _find_matching(span, k + 1, "(", ")") + 1
            else:
                k += 1
            continue
        core.append(t)
        k += 1
    if annotated:
        return None, True
    texts = [t.text for t in core]
    if "(" in texts:
        return None, False  # function/constructor declaration
    if any(w in texts for w in ("const", "constexpr", "constinit")):
        return None, False
    if any(w in texts for w in R8_SYNC_TYPES):
        return None, False
    stop = texts.index("=") if "=" in texts else len(core)
    ids = [t.text for t in core[:stop]
           if t.kind == "id" and t.text not in ("std", "mutable",
                                                "static", "unsigned",
                                                "signed", "long",
                                                "short")]
    if len(ids) < 2:
        return None, False  # need at least `Type name`
    return ids[-1], False


def pass_r8_lock_discipline(scan, suppressed, findings):
    """R8: annotation coverage for mutex-owning classes.

    Any class that owns a mutex (Mutex / std::mutex member) or already
    annotates at least one member must annotate *every* mutable
    non-sync data member with PSB_GUARDED_BY / PSB_PT_GUARDED_BY.
    Half-annotated classes are how stale lock discipline slips past
    clang (-Wthread-safety only checks what is annotated). Bare
    namespace-scope state in a concurrency object is R6's, checked on
    the built objects (tests/symbol_bans/).
    """
    if _exempt(scan.rel):
        return
    toks = scan.toks

    for cname, lo, hi in scan.class_spans:
        decls = _r8_member_decls(toks, lo, hi)
        classified = [(_r8_classify(span), span) for span in decls]
        in_scope = any(ann for (name, ann), _s in classified) or any(
            any(t.kind == "id" and t.text in R8_MUTEX_TYPES
                for t in span)
            for span in decls)
        if not in_scope:
            continue
        for (name, _ann), span in classified:
            if name is None:
                continue
            findings.add(
                scan, span[0].line, "R8",
                f"member '{cname}::{name}' is mutable, shares the "
                f"class with a mutex, but carries no PSB_GUARDED_BY "
                f"annotation — clang -Wthread-safety cannot check "
                f"accesses to it (util/thread_annotations.hh)", suppressed)


# --------------------------------------------------------------------
# Hot-path call-graph layer (R10, R11, R12)
# --------------------------------------------------------------------

#: Bare (receiver-less) stdlib calls that throw — the sto* family.
#: The rest of R11_THROWING_CALLS (.at(), .value(), .substr()) only
#: means "throwing" as a method call on a receiver.
_R11_BARE_THROWING = frozenset(
    c for c in R11_THROWING_CALLS if c.startswith("sto"))

#: Rules enforced over the hot-path call graph.
HOT_RULES = ("R10", "R11", "R12")


class HotPathGraph:
    """Interprocedural call graph rooted at PSB_HOT_PATH functions.

    Built once over the merged cross-TU model (deterministic: scans
    arrive in sorted path order and every walk below iterates sorted
    keys), then queried per rule:

      R10  any reachable heap allocation: operator new, malloc-family
           or make_* calls, growth methods on std containers, sized
           container/string construction.
      R11  any reachable throw statement, throwing stdlib call
           (.at(), sto*, optional::value, substr), or recursion cycle
           inside the hot subgraph.
      R12  virtual or indirect dispatch that cannot be resolved to a
           complete in-tree callee set: std::function invocation,
           `(*fp)(...)` calls, virtual calls with no in-tree
           implementation or an unresolvable receiver.

    Call edges: bare calls resolve through the caller's own class
    hierarchy and the free-function table; `recv.m()` / `recv->m()`
    resolve the receiver's declared type through locals, parameters,
    members (including inherited ones), smart-pointer/container
    element types, and call-result return types. A virtual call on an
    in-tree class fans out to every in-tree override in the subtree —
    the whole override set becomes hot, which is exactly the
    devirtualization contract R12 audits.

    Suppression prunes the graph per rule: `allow(Rn)` on a call-site
    line cuts that edge (the sanctioned-subtree escape hatch — e.g.
    workload trace generation under PSB_ALLOC_GUARD_PAUSE), and
    `allow(Rn)` on a function's declaration removes the function from
    rule Rn's graph entirely (matching Model.decl_allows semantics).
    """

    def __init__(self, scans, model):
        self.scans = scans
        self.model = model
        self.funcs = {}     # (cls-or-"", name) -> [(scan, fn, sup)]
        self.children = {}  # class -> set of direct derived classes
        self.edges = {}     # key -> [ {callee, scan, line, allows} ]
        self.prims = {}     # key -> [(rule, scan, line, msg, sup)]
        self.hot_keys = []  # resolved root keys, sorted
        self._subtree_cache = {}
        self._build()

    # -- construction ------------------------------------------------

    def _build(self):
        model = self.model
        for scan, sup in self.scans:
            for fn in scan.functions:
                key = (fn.cls or "", fn.name)
                self.funcs.setdefault(key, []).append((scan, fn, sup))
        for name, info in model.classes.items():
            for b in info.bases:
                self.children.setdefault(b, set()).add(name)

        roots = set()
        for cls, name in sorted(model.hot_roots):
            key = self._impl(cls, name) if cls else (
                ("", name) if ("", name) in self.funcs else None)
            if key is not None:
                roots.add(key)
            # a virtual root pulls in its in-tree overrides too: the
            # annotation on the interface makes every implementation
            # hot (Prefetcher::tick -> all prefetchers' tick).
            if cls and self._is_virtual(cls, name):
                for t in self._virtual_targets(cls, name):
                    roots.add(t)
        self.hot_keys = sorted(roots)

        for key in sorted(self.funcs):
            for scan, fn, sup in self.funcs[key]:
                self._extract(key, scan, fn, sup)

    # -- hierarchy helpers -------------------------------------------

    def _bases(self, cls):
        info = self.model.classes.get(cls)
        return info.bases if info else ()

    def _is_virtual(self, cls, name, seen=None):
        seen = seen if seen is not None else set()
        if cls in seen:
            return False
        seen.add(cls)
        if (cls, name) in self.model.virtuals:
            return True
        return any(self._is_virtual(b, name, seen)
                   for b in self._bases(cls))

    def _impl(self, cls, name, seen=None):
        """Nearest implementation of `name` at or above `cls`."""
        seen = seen if seen is not None else set()
        if cls in seen:
            return None
        seen.add(cls)
        if (cls, name) in self.funcs:
            return (cls, name)
        for b in self._bases(cls):
            found = self._impl(b, name, seen)
            if found:
                return found
        return None

    def _subtree(self, cls):
        """`cls` plus every in-tree class transitively derived."""
        if cls in self._subtree_cache:
            return self._subtree_cache[cls]
        out = {cls}
        work = [cls]
        while work:
            c = work.pop()
            for d in sorted(self.children.get(c, ())):
                if d not in out:
                    out.add(d)
                    work.append(d)
        self._subtree_cache[cls] = out
        return out

    def _virtual_targets(self, cls, name):
        """Every in-tree implementation a virtual call can reach."""
        targets = {(d, name) for d in self._subtree(cls)
                   if (d, name) in self.funcs}
        up = self._impl(cls, name)
        if up:
            targets.add(up)
        return sorted(targets)

    def _member_type(self, cls, name, seen=None):
        seen = seen if seen is not None else set()
        if not cls or cls in seen:
            return ""
        seen.add(cls)
        info = self.model.classes.get(cls)
        if info is None:
            return ""
        if name in info.members:
            return info.members[name]
        for b in info.bases:
            ty = self._member_type(b, name, seen)
            if ty:
                return ty
        return ""

    def _type_words(self, ty):
        out = []
        for w in ty.split():
            for w2 in self.model.aliases.get(w, w).split():
                out.append(self.model.aliases.get(w2, w2))
        return out

    # -- extraction ---------------------------------------------------

    def _allows_at(self, sup, line):
        out = set()
        for ln in (line, line - 1):
            out |= sup.get(ln, set())
        return out

    def _edge(self, key, callee, scan, line, sup):
        allows = self._allows_at(sup, line) | \
            self.model.decl_allows.get(callee, set())
        self.edges.setdefault(key, []).append(
            {"callee": callee, "scan": scan, "line": line,
             "allows": allows})

    def _prim(self, key, rule, scan, line, msg, sup):
        self.prims.setdefault(key, []).append(
            (rule, scan, line, msg, sup))

    def _recv_words(self, key, scan, fn, locals_ty, i):
        """Declared-type words of the receiver ending at token i
        (the token before `.`/`->`). Empty list = unresolvable."""
        toks = scan.toks
        r = toks[i]
        if r.kind == "id":
            if r.text == "this":
                return [fn.cls] if fn.cls else []
            ty = locals_ty.get(r.text, "") or \
                self._member_type(fn.cls or "", r.text)
            if not ty and r.text in self.model.classes:
                return [r.text]  # static-ish `Class.m` — unusual
            if not ty and i - 1 > fn.body_lo \
                    and toks[i - 1].text in (".", "->"):
                # chained member access: `base.member.m(...)` — type
                # the member through the base's resolved class
                for w in self._recv_words(key, scan, fn,
                                          locals_ty, i - 2):
                    if w in self.model.classes:
                        ty = self._member_type(w, r.text)
                        if ty:
                            break
            if not ty:
                # last resort: the name is a member of in-tree classes
                # with one unambiguous type (e.g. a public `priority`
                # reached through an unresolved receiver)
                cand = {
                    info.members[r.text]
                    for info in self.model.classes.values()
                    if r.text in info.members
                }
                if len(cand) == 1:
                    ty = next(iter(cand))
            return self._type_words(ty)
        if r.text == "]":
            # container element access: `base[i].m(...)`
            j = i
            depth = 0
            while j > fn.body_lo:
                if toks[j].text == "]":
                    depth += 1
                elif toks[j].text == "[":
                    depth -= 1
                    if depth == 0:
                        break
                j -= 1
            if j > fn.body_lo and toks[j - 1].kind == "id":
                base = toks[j - 1].text
                ty = locals_ty.get(base, "") or \
                    self._member_type(fn.cls or "", base)
                words = self._type_words(ty)
                # Indexing a container yields the *element* type:
                # `_pht[i].value()` dispatches on SatCounter, not on
                # the std::vector holding it.
                if any(w in R10_ALLOC_CONTAINERS for w in words):
                    words = [w for w in words
                             if w != "std"
                             and w not in R10_ALLOC_CONTAINERS]
                return words
            return []
        if r.text == ")":
            # call result: `g(...).m(...)` — use g's return type
            j = i
            depth = 0
            while j > fn.body_lo:
                if toks[j].text == ")":
                    depth += 1
                elif toks[j].text == "(":
                    depth -= 1
                    if depth == 0:
                        break
                j -= 1
            if j > fn.body_lo and toks[j - 1].kind == "id":
                g = toks[j - 1].text
                tkey = None
                if fn.cls:
                    tkey = self._impl(fn.cls, g)
                if tkey is None and ("", g) in self.funcs:
                    tkey = ("", g)
                if tkey is not None:
                    ret = self.funcs[tkey][0][1].ret
                    return self._type_words(ret)
            return []
        return []

    def _extract(self, key, scan, fn, sup):
        toks = scan.toks
        lo, hi = fn.body_lo, fn.body_hi
        locals_ty = {}
        for pname, pty in _parse_params(toks, fn.sig_lo, fn.sig_hi):
            if pname:
                locals_ty[pname] = pty
        locals_ty.update(_collect_locals(toks, lo, hi))

        i = lo
        while i < hi:
            t = toks[i]
            nxt = toks[i + 1].text if i + 1 < hi else ""
            if t.kind == "id" and t.text == "throw":
                self._prim(key, "R11", scan, t.line,
                           "throw statement", sup)
            elif t.kind == "id" and t.text == "new" \
                    and (i == lo or toks[i - 1].text not in
                         ("operator", "delete")):
                self._prim(key, "R10", scan, t.line,
                           "operator new", sup)
            elif t.text == "(" and i + 4 < hi \
                    and toks[i + 1].text == "*" \
                    and toks[i + 2].kind == "id" \
                    and toks[i + 3].text == ")" \
                    and toks[i + 4].text == "(":
                self._prim(key, "R12", scan, t.line,
                           f"indirect call through "
                           f"'(*{toks[i + 2].text})'", sup)
            elif t.kind == "id" and nxt == "<" \
                    and t.text in R10_ALLOC_CALLS:
                # template-call syntax: make_unique<T>(...)
                self._prim(key, "R10", scan, t.line,
                           f"allocating call '{t.text}<...>()'", sup)
            elif t.kind == "id" and nxt == "(" \
                    and t.text not in CONTROL_KEYWORDS:
                self._call_site(key, scan, fn, sup, locals_ty, i)
            i += 1

    def _call_site(self, key, scan, fn, sup, locals_ty, i):
        toks = scan.toks
        name = toks[i].text
        line = toks[i].line
        prev = toks[i - 1] if i > 0 else None

        if prev is not None and prev.text in (".", "->"):
            self._method_call(key, scan, fn, sup, locals_ty, i)
            return
        # `Type name(...)` constructor-style declaration
        if prev is not None and prev.kind == "id":
            if prev.text in R10_ALLOC_CONTAINERS:
                self._prim(key, "R10", scan, line,
                           f"construction of allocating "
                           f"'std::{prev.text}'", sup)
                return
            if prev.text in self.model.classes:
                ctor = (prev.text, prev.text)
                if ctor in self.funcs:
                    self._edge(key, ctor, scan, line, sup)
                return
        # sized construction of a templated container:
        # `std::vector<X> v(n)` — prev token is the closing '>'
        if prev is not None and prev.text == ">":
            j = i - 1
            depth = 0
            while j > fn.body_lo:
                if toks[j].text == ">":
                    depth += 1
                elif toks[j].text == "<":
                    depth -= 1
                    if depth == 0:
                        break
                j -= 1
            if j > fn.body_lo and toks[j - 1].kind == "id" \
                    and toks[j - 1].text in R10_ALLOC_CONTAINERS:
                self._prim(key, "R10", scan, line,
                           f"construction of allocating "
                           f"'std::{toks[j - 1].text}<...>'", sup)
            return
        if name in self.model.classes:
            ctor = (name, name)
            if ctor in self.funcs:
                self._edge(key, ctor, scan, line, sup)
            return
        if name in R10_ALLOC_CALLS:
            self._prim(key, "R10", scan, line,
                       f"allocating call '{name}()'", sup)
            return
        if name in _R11_BARE_THROWING:
            self._prim(key, "R11", scan, line,
                       f"throwing call '{name}()'", sup)
            return
        # indirect call through a std::function-typed local/member
        ty = locals_ty.get(name, "") or \
            self._member_type(fn.cls or "", name)
        words = self._type_words(ty)
        if any(w in R12_INDIRECT_TYPES for w in words):
            self._prim(key, "R12", scan, line,
                       f"indirect call through std::function "
                       f"'{name}'", sup)
            return
        # own-class method (virtual-aware: a bare call is `this->`)
        if fn.cls:
            if self._is_virtual(fn.cls, name):
                for tkey in self._virtual_targets(fn.cls, name):
                    self._edge(key, tkey, scan, line, sup)
                return
            impl = self._impl(fn.cls, name)
            if impl is not None:
                self._edge(key, impl, scan, line, sup)
                return
        if ("", name) in self.funcs:
            self._edge(key, ("", name), scan, line, sup)

    def _method_call(self, key, scan, fn, sup, locals_ty, i):
        toks = scan.toks
        name = toks[i].text
        line = toks[i].line
        if i < 2:
            return
        words = self._recv_words(key, scan, fn, locals_ty, i - 2)
        # The receiver's *principal* type word decides the dispatch:
        # for `std::deque<RobEntry>` that is the container (deque),
        # not the element class, so container growth on a class-typed
        # element is still caught. Smart-pointer and cv words are
        # transparent (`std::unique_ptr<OoOCore>` dispatches on
        # OoOCore).
        principal = next(
            (w for w in words
             if w not in ("std", "const", "mutable", "unique_ptr",
                          "shared_ptr", "::", "<", ">", ",", "*",
                          "&")),
            None)
        if principal in R10_ALLOC_CONTAINERS:
            if name in R10_GROWTH_METHODS:
                self._prim(key, "R10", scan, line,
                           f"'.{name}()' grows 'std::{principal}'", sup)
            elif name in R11_THROWING_CALLS:
                self._prim(key, "R11", scan, line,
                           f"throwing call '.{name}()'", sup)
            # other container methods (size/begin/operator[]) are fine
            return
        if principal in self.model.classes:
            recv_cls = principal
            if self._is_virtual(recv_cls, name):
                targets = self._virtual_targets(recv_cls, name)
                if targets:
                    for tkey in targets:
                        # A fan-out edge from an override back onto
                        # itself through an explicit receiver is the
                        # decorator-forwarding pattern (wrapper calls
                        # inner.f() and the wrapper's own override is
                        # in the callee set) — not provable recursion.
                        # Bare self-calls still form cycles.
                        if tkey == key:
                            continue
                        self._edge(key, tkey, scan, line, sup)
                else:
                    self._prim(
                        key, "R12", scan, line,
                        f"virtual call '.{name}()' on "
                        f"'{recv_cls}' has no in-tree "
                        f"implementation to devirtualize to", sup)
            else:
                impl = self._impl(recv_cls, name)
                if impl is not None:
                    self._edge(key, impl, scan, line, sup)
            return
        if any(w in R12_INDIRECT_TYPES for w in words):
            self._prim(key, "R12", scan, line,
                       f"indirect call '.{name}()' through a "
                       f"std::function object", sup)
            return
        if any(w in R10_ALLOC_CONTAINERS for w in words) \
                and name in R10_GROWTH_METHODS:
            cont = next(w for w in words
                        if w in R10_ALLOC_CONTAINERS)
            self._prim(key, "R10", scan, line,
                       f"'.{name}()' grows 'std::{cont}'", sup)
            return
        if name in R11_THROWING_CALLS:
            self._prim(key, "R11", scan, line,
                       f"throwing call '.{name}()'", sup)
            return
        if not words and any(k[1] == name
                             for k in self.model.virtuals):
            self._prim(key, "R12", scan, line,
                       f"cannot resolve the receiver of virtual "
                       f"call '.{name}()' — the callee set is "
                       f"unknown", sup)

    # -- reachability and reporting ----------------------------------

    def _label(self, key):
        cls, name = key
        return f"{cls}::{name}" if cls else name

    def _reach(self, rule):
        """BFS from the hot roots; returns {key: parent-or-None}.

        `allow(rule)` on a call-site line cuts that edge and
        `allow(rule)` on a declaration removes the function.
        """
        def banned(k):
            return rule in self.model.decl_allows.get(k, ())

        parent = {}
        queue = []
        for r in self.hot_keys:
            if r not in parent and not banned(r):
                parent[r] = None
                queue.append(r)
        qi = 0
        while qi < len(queue):
            k = queue[qi]
            qi += 1
            for e in self.edges.get(k, ()):
                if rule in e["allows"]:
                    continue
                c = e["callee"]
                if c not in parent and not banned(c):
                    parent[c] = k
                    queue.append(c)
        return parent

    def _path(self, parent, key):
        chain = []
        k = key
        while k is not None:
            chain.append(self._label(k))
            k = parent.get(k)
        chain.reverse()
        if len(chain) > 5:
            chain = chain[:2] + ["..."] + chain[-2:]
        return " -> ".join(chain)

    def _report_cycles(self, rule, parent, findings):
        """Recursion cycles inside the rule's hot subgraph (R11)."""
        color = {}  # 0 absent, 1 on stack, 2 done
        reported = set()

        def edges_of(k):
            out = []
            for e in self.edges.get(k, ()):
                if rule in e["allows"]:
                    continue
                if e["callee"] in parent:
                    out.append(e)
            return out

        for root in sorted(parent):
            if color.get(root):
                continue
            stack = [(root, iter(edges_of(root)))]
            color[root] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for e in it:
                    c = e["callee"]
                    if color.get(c) == 1:
                        pair = (node, c)
                        if pair not in reported:
                            reported.add(pair)
                            findings.add(
                                e["scan"], e["line"], rule,
                                f"recursion cycle on the per-cycle "
                                f"hot path: '{self._label(node)}' "
                                f"calls '{self._label(c)}' which is "
                                f"already on the call stack — "
                                f"unbounded recursion cannot be "
                                f"proven allocation- and "
                                f"overflow-free",
                                e["scan"].sup)
                    elif not color.get(c):
                        color[c] = 1
                        stack.append((c, iter(edges_of(c))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    stack.pop()

    def run(self, findings):
        for rule in HOT_RULES:
            parent = self._reach(rule)
            for fkey in sorted(parent):
                for (r, scan, line, msg, sup) in \
                        self.prims.get(fkey, ()):
                    if r != rule:
                        continue
                    findings.add(
                        scan, line, rule,
                        f"{msg} in '{self._label(fkey)}' on the "
                        f"per-cycle hot path (reachable as "
                        f"{self._path(parent, fkey)}); "
                        f"{RULES[rule][1]}", sup)
            if rule == "R11":
                self._report_cycles(rule, parent, findings)


# --------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------

def analyze_files(files, root):
    """Run the token/scope + dataflow engine over `files`.

    Every file is scanned, in sorted path order, straight into one
    cross-TU Model; the rule passes run after the whole model exists.
    """
    model = Model()
    scans = []
    suppressions = {}
    for path in sorted(files):
        rel = path.relative_to(root) if path.is_absolute() else path
        text = path.read_text(errors="replace")
        toks, sup = tokenize(text)
        scan = FileScan(rel, toks, sup=sup)
        scan.scan(model)
        scans.append((scan, sup))
        suppressions[str(rel)] = sup

    for scan, _sup in scans:
        collect_r2_facts(scan, model)

    findings = Findings()
    strong_members = _strong_members(model)
    for scan, sup in scans:
        pass_r1_params(scan, model, sup, findings)
        pass_r1_raw_arith(scan, sup, findings)
        pass_r1_reentry(scan, strong_members, sup, findings)
        pass_r3_determinism(scan, model, sup, findings)
        pass_r4_trace_purity(scan, sup, findings)
        pass_r8_raw_primitives(scan, sup, findings)
        pass_r10_marker(scan.rel, scan.toks, sup, findings)
        pass_r8_lock_discipline(scan, sup, findings)
    pass_r2_completeness(model, suppressions, findings)
    pass_r7_r9_dataflow(scans, model, findings)
    graph = HotPathGraph(scans, model)
    graph.run(findings)
    _apply_decl_allows(scans, model, findings)
    return findings


def _apply_decl_allows(scans, model, findings):
    """Satellite of the allow() contract: a suppression on a
    function's *declaration* (header) also suppresses findings inside
    the matching out-of-line *definition* — for every rule, not just
    the call-graph ones (which already prune their graph on it)."""
    if not model.decl_allows:
        return
    spans = []  # (file, line_lo, line_hi, rules)
    for scan, _sup in scans:
        toks = scan.toks
        for fn in scan.functions:
            rules = model.decl_allows.get((fn.cls or "", fn.name))
            if not rules or fn.body_lo >= len(toks):
                continue
            lo_line = toks[max(fn.body_lo - 1, 0)].line
            hi_line = toks[min(fn.body_hi, len(toks) - 1)].line
            spans.append((str(scan.rel), lo_line, hi_line, rules))
    if not spans:
        return
    kept = []
    for f in findings.items:
        drop = any(f["file"] == file and lo <= f["line"] <= hi
                   and f["rule"] in rules
                   for file, lo, hi, rules in spans)
        if not drop:
            kept.append(f)
    findings.items = kept


def _marker_only_files(root, engine_files):
    """tests/ and tools/ sources the engine does not scan, minus the
    fixture corpus: R10 checks them for a stray PSB_HOT_PATH."""
    skip = set(engine_files)
    out = []
    for sub in ("tests", "tools"):
        d = root / sub
        for path in sorted(d.rglob("*.hh")) + sorted(d.rglob("*.cc")):
            if path in skip or path.relative_to(root).parts[:2] == (
                    "tests", "analyze"):
                continue
            out.append(path)
    return out


def run_tree(args):
    root = pathlib.Path(args.root).resolve()
    src = root / "src"
    if not src.is_dir():
        print(f"psb_analyze: no src/ under {root}", file=sys.stderr)
        return EXIT_ERROR
    files = sorted(src.rglob("*.hh")) + sorted(src.rglob("*.cc"))
    # The rules apply to the offline tooling too: a nondeterministic
    # merge key in psb-sweep or a tainted report field corrupts
    # golden output the same way simulator code would.
    files += sorted((root / "tools").glob("*.cc"))
    findings = analyze_files(files, root)
    for path in _marker_only_files(root, files):
        text = path.read_text(errors="replace")
        if HOT_PATH_MARKER in text:
            toks, sup = tokenize(text)
            pass_r10_marker(path.relative_to(root), toks, sup, findings)

    fresh = findings.sorted()
    if args.json:
        payload = {"root": str(root), "findings": fresh}
        pathlib.Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")

    for f in fresh:
        print(format_finding(f["file"], f["line"], f["rule"],
                             f["message"]))
    if fresh:
        print(f"psb_analyze: {len(fresh)} finding(s)",
              file=sys.stderr)
        return EXIT_FINDINGS
    print("psb_analyze: clean")
    return EXIT_CLEAN


#: Rules whose allow() plumbing the self-test proves end to end.
ROUNDTRIP_RULES = ("R7", "R8", "R9", "R10", "R11", "R12")


def run_self_test(args):
    if args.root == ".":
        # default: tests/analyze next to this script's repo root
        fixture_dir = (pathlib.Path(__file__).resolve().parent.parent
                       / "tests" / "analyze")
    else:
        fixture_dir = pathlib.Path(args.root).resolve()
    golden_path = fixture_dir / "golden_findings.json"
    if not golden_path.exists():
        print(f"psb_analyze: no golden_findings.json in {fixture_dir}",
              file=sys.stderr)
        return EXIT_ERROR
    golden = json.loads(golden_path.read_text())

    failures = []
    for name, expected_rules in sorted(golden.items()):
        path = fixture_dir / name
        if not path.exists():
            failures.append(f"{name}: fixture missing")
            continue
        findings = analyze_files([path], fixture_dir)
        # One entry per finding: the count is pinned, not just the
        # rule set, so a detector that loses one pattern fails here.
        got = sorted(f["rule"] for f in findings.items
                     if f["file"] == name)
        want = sorted(expected_rules)
        if got != want:
            detail = "; ".join(
                format_finding(f['file'], f['line'], f['rule'],
                               f['message'])
                for f in findings.sorted() if f["file"] == name)
            failures.append(
                f"{name}: expected findings {want}, got {got}"
                + (f" [{detail}]" if detail else ""))

    # Suppression round trip: inserting one `// psb-analyze:
    # allow(Rn)` above the first finding must silence exactly that
    # finding and nothing else — proving the suppression plumbing
    # reaches the pass (the bad fixtures carry at least two findings
    # each so "exactly one" is a real assertion, not 1 -> 0).
    import tempfile
    for rule in ROUNDTRIP_RULES:
        name = next((n for n, rules in sorted(golden.items())
                     if rule in rules), None)
        if name is None:
            failures.append(f"roundtrip {rule}: no bad fixture "
                            f"declares this rule in the golden file")
            continue
        path = fixture_dir / name
        if not path.exists():
            continue  # already reported missing above
        findings = analyze_files([path], fixture_dir)
        mine = sorted(
            (f for f in findings.items
             if f["rule"] == rule and f["file"] == name),
            key=lambda f: f["line"])
        if not mine:
            failures.append(f"roundtrip {rule}: {name} produced no "
                            f"{rule} findings to suppress")
            continue
        before = len(mine)
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(mine[0]["line"] - 1,
                     f"// psb-analyze: allow({rule})\n")
        with tempfile.TemporaryDirectory() as td:
            tmp = pathlib.Path(td) / name
            tmp.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text("".join(lines))
            redo = analyze_files([tmp], pathlib.Path(td))
            after = len([f for f in redo.items
                         if f["rule"] == rule and f["file"] == name])
        if after != before - 1:
            failures.append(
                f"roundtrip {rule}: allow() above line "
                f"{mine[0]['line']} of {name} changed the finding "
                f"count {before} -> {after}, expected "
                f"{before - 1}")

    # Declaration-site suppression round trip: an allow() on a method
    # *declaration* must also silence the matching out-of-line
    # *definition*. The clean fixture carries exactly that shape;
    # stripping the allow comment must surface the finding again —
    # proving the suppression is doing the work, not the fixture
    # being accidentally clean.
    decl_fixture = fixture_dir / "r10_decl_allow_clean.hh"
    if decl_fixture.exists():
        text = decl_fixture.read_text()
        stripped_lines = [
            ln for ln in text.splitlines(keepends=True)
            if "psb-analyze:" not in ln]
        if len(stripped_lines) == len(text.splitlines(keepends=True)):
            failures.append("decl-allow: r10_decl_allow_clean.hh has "
                            "no psb-analyze: allow() comment to "
                            "strip")
        else:
            with tempfile.TemporaryDirectory() as td:
                tmp = pathlib.Path(td) / decl_fixture.name
                tmp.write_text("".join(stripped_lines))
                redo = analyze_files([tmp], pathlib.Path(td))
                surfaced = [f for f in redo.items
                            if f["rule"] == "R10"]
            if not surfaced:
                failures.append(
                    "decl-allow: stripping the declaration-site "
                    "allow() from r10_decl_allow_clean.hh surfaced "
                    "no R10 finding — the clean fixture is not "
                    "exercising declaration-site suppression")
    else:
        failures.append("decl-allow: fixture r10_decl_allow_clean.hh "
                        "missing")

    if failures:
        for f in failures:
            print(f"psb_analyze --self-test FAIL: {f}")
        print(f"psb_analyze: self-test {len(failures)} failure(s)",
              file=sys.stderr)
        return EXIT_FINDINGS
    print(f"psb_analyze: self-test ok "
          f"({len(golden)} fixtures, exact finding match; suppression "
          f"round trip for {', '.join(ROUNDTRIP_RULES)}; "
          f"declaration-site allow() round trip)")
    return EXIT_CLEAN


def main():
    ap = argparse.ArgumentParser(
        description="Static analyzer for the PSB tree (rules R1-R4 "
                    "and R7-R12; --list-rules prints the catalog).")
    ap.add_argument("root", nargs="?", default=".",
                    help="repo root (default .) or, with "
                         "--self-test, the fixture directory")
    ap.add_argument("--json", help="write findings JSON here")
    ap.add_argument("--self-test", action="store_true",
                    help="run the tests/analyze fixture corpus")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        for rid, (slug, why) in RULES.items():
            print(f"{rid}  {slug:22s} {why}")
        return EXIT_CLEAN
    if args.self_test:
        return run_self_test(args)
    return run_tree(args)


if __name__ == "__main__":
    sys.exit(main())
