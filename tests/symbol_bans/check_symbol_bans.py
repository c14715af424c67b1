#!/usr/bin/env python3
"""Check the determinism, output and shared-state bans on built objects.

    check_symbol_bans.py NM LIB_DIR FIXTURE_OBJECTS

Reads `NM -f sysv -C` of every libpsb_*.a in LIB_DIR and of each
`;`-separated fixture object. The compiler has resolved every spelling
of a call (`std::rand()`, `::rand()`, `steady_clock::now()` after a
using-directive) to one symbol, so the bans read symbols, not tokens:

  R3  an undefined rand, srand, time, gettimeofday, clock_gettime,
      std::chrono::*_clock::now() or std::random_device member;
  R5  an undefined printf (or __printf_chk), puts, std::cout, std::cerr;
  R6  a psb:: symbol in a writable data section (not .data.rel.ro) of a
      sweep*.cc.o or logging.cc.o object; function-local statics read
      psb::f()::x, and typeinfo, vtables and guards are not psb:: names.

One finding per object, rule and banned name. Each bad/ fixture must
yield exactly its BAD_FIXTURES rules and each clean/ one none; the
archives must yield exactly the ALLOW entries. Round trips: dropping an
entry fails the archives, and an entry matching nothing is stale. Only
linked code is seen: an inline header function no src/ object calls is
in no archive. Exits 0 when every check passes, 1 otherwise.
"""

import pathlib
import re
import subprocess
import sys

#: (rule, pattern): a pattern matching the start of an undefined symbol
#: is a finding named by the matched text.
BANNED_CALLS = (
    ("R3", r"s?rand$|time$|gettimeofday$|clock_gettime$"),
    ("R3", r"std::chrono::(\w+::)*\w+_clock::now\(\)$"),
    ("R3", r"std::random_device(?=::)"),
    ("R5", r"printf$|__printf_chk$|puts$|std::cout$|std::cerr$"),
)
MESSAGES = {
    "R3": "calls {}; results must be a function of config + seed",
    "R5": "writes through {}; use util/logging or PSB_TRACE instead",
    "R6": "defines writable {}; sweep jobs are shared-nothing",
}
R6_OBJECTS = re.compile(r"(sweep.*|logging)\.cc\.o$")
WRITABLE = re.compile(r"\.(bss|data|tbss|tdata)(?!\.rel\.ro)")

#: (object, symbol or its trailing `::` part, reason): the findings
#: the archives keep.
ALLOW = (
    ("sweep.cc.o", "steady_clock::now()",
     "progress timing only; wall time never reaches a result"),
    ("trace.cc.o", "std::cout", "the trace sinks' default stream"),
    ("logging.cc.o", "g_reportMu",
     "the psb::Mutex keeping report lines whole across workers"),
)

BAD_FIXTURES = {
    "plain_calls.cc.o": ["R3"] * 7 + ["R5"] * 4,
    "qualified_calls.cc.o": ["R3"] * 3 + ["R5"],
    "global_calls.cc.o": ["R3", "R5"],
    "sweep_shared_state.cc.o": ["R6"] * 4,
    "logging.cc.o": ["R6"] * 2,
}


def elf_target(path):
    """`--target=elfNN-ENDIAN` for a file holding GCC fat LTO objects.

    On such objects nm's LTO plugin lists the bytecode's symbols, with
    no sections and no internal symbols, which would leave R6 nothing
    to read. The generic ELF target reads the real code instead.
    """
    data = pathlib.Path(path).read_bytes()
    elf = data.find(b"\x7fELF")
    if elf < 0 or b".gnu.lto_" not in data:
        return []
    bits = {1: "32", 2: "64"}[data[elf + 4]]
    endian = {1: "little", 2: "big"}[data[elf + 5]]
    return [f"--target=elf{bits}-{endian}"]


def read_symbols(nm, path):
    """{object name: [(symbol, class, section)]} of an object/archive."""
    out = subprocess.run([nm, "-f", "sysv", "-C", *elf_target(path), path],
                         check=True, capture_output=True, text=True).stdout
    table, current = {}, None
    for line in out.splitlines():
        if line.startswith("Symbols from "):
            # `lib.a[obj.o]:` (GNU nm), `lib.a(obj.o):` or `dir/obj.o:`
            name = re.split(r"[\[(/]", line[:-1].rstrip("])"))[-1]
            current = table.setdefault(name, [])
        elif current is not None and line.count("|") >= 6:
            sym, _, cls, _, _, _, section = line.rsplit("|", 6)
            current.append((sym.strip(), cls.strip(), section.strip()))
    return table


def findings_of(obj, symbols):
    found = set()
    for sym, cls, section in symbols:
        if cls == "U":
            found |= {(rule, m.group(0)) for rule, pattern in BANNED_CALLS
                      for m in [re.match(pattern, sym)] if m}
        elif sym.startswith("psb::") and WRITABLE.match(section) \
                and R6_OBJECTS.match(obj):
            found.add(("R6", sym))
    return sorted(found)


def check_tree(tree, allow):
    """(findings outside `allow`, `allow` entries matching nothing)."""
    def ok(obj, what, entry):
        return obj == entry[0] and (what == entry[1]
                                    or what.endswith("::" + entry[1]))
    hits = [(a, o, r, w) for (a, o), found in tree.items()
            for r, w in found]
    rest = [h for h in hits if not any(ok(h[1], h[3], e) for e in allow)]
    stale = [e for e in allow if not any(ok(h[1], h[3], e) for h in hits)]
    return rest, stale


def main():
    if len(sys.argv) != 4:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    nm, lib_dir, objects = sys.argv[1:]
    archives = sorted(pathlib.Path(lib_dir).glob("libpsb_*.a"))
    fixtures = [pathlib.Path(f) for f in objects.split(";") if f]
    failures = []

    built = set()
    for path in fixtures:
        kind, obj = path.parent.name, path.name
        built.add((kind, obj))
        found = findings_of(obj, read_symbols(nm, path).get(obj, []))
        want = BAD_FIXTURES.get(obj, []) if kind == "bad" else []
        if [r for r, _ in found] != sorted(want):
            failures.append(f"fixture {kind}/{obj}: expected "
                            f"{sorted(want)}, got {found}")
    failures += [f"fixture bad/{obj} not built" for obj in BAD_FIXTURES
                 if ("bad", obj) not in built]

    tree = {(a.name, obj): findings_of(obj, syms) for a in archives
            for obj, syms in read_symbols(nm, a).items()}
    rest, stale = check_tree(tree, ALLOW)
    failures += [f"{a}({o}): [{r}] {MESSAGES[r].format(w)}"
                 for a, o, r, w in rest]
    failures += [f"stale allowlist entry {e[:2]}" for e in stale]
    if not check_tree(tree, ALLOW[1:])[0]:
        failures.append(f"round trip: no finding without {ALLOW[0][:2]}")
    if check_tree(tree, ALLOW + (("sweep.cc.o", "nothing", ""),))[1] \
            != [("sweep.cc.o", "nothing", "")]:
        failures.append("round trip: a stale entry went unreported")

    print("\n".join(failures) or f"check_symbol_bans: ok ({len(archives)} "
          f"archives, {len(fixtures)} fixtures, {len(ALLOW)} allowed)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
