#!/usr/bin/env python3
"""Summarize and validate a psb-sim event trace.

Reads a trace produced by ``psb-sim --trace ... --trace-format
jsonl|chrome`` and checks it against the schema the simulator promises:

* every record carries the expected fields with the expected types;
* flag names are drawn from the known set;
* event cycles are monotonically non-decreasing (the trace is written
  in simulation order);
* span (begin/end) events balance: every stream-buffer alloc has a
  matching dealloc/replace, with no end before a begin — the lifetime
  accounting the Chrome view depends on.

Exit status is 0 when every check passes, 1 otherwise.

Usage:
  tools/psb_trace.py TRACE [--format jsonl|chrome] [--quiet]
"""

import argparse
import collections
import json
import sys

VALID_FLAGS = ("psb", "sched", "sfm", "markov", "bus", "cache", "mshr",
               "cpu", "prefetch")

JSONL_FIELDS = {
    "cycle": int,
    "flag": str,
    "kind": str,
    "name": str,
    "track": int,
    "args": str,
}


class TraceError(Exception):
    pass


def parse_jsonl(path):
    """Yield (cycle, flag, kind, name, track) tuples from a JSONL trace."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"{path}:{lineno}: bad JSON: {exc}")
            for field, typ in JSONL_FIELDS.items():
                if field not in rec:
                    raise TraceError(
                        f"{path}:{lineno}: missing field '{field}'")
                if not isinstance(rec[field], typ):
                    raise TraceError(
                        f"{path}:{lineno}: field '{field}' is not "
                        f"{typ.__name__}")
            if rec["kind"] not in ("I", "B", "E"):
                raise TraceError(
                    f"{path}:{lineno}: bad kind '{rec['kind']}'")
            yield (rec["cycle"], rec["flag"], rec["kind"], rec["name"],
                   rec["track"], rec["args"])


def parse_chrome(path):
    """Yield event tuples from a Chrome trace-event JSON array."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            events = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{path}: bad JSON: {exc}")
    if not isinstance(events, list):
        raise TraceError(f"{path}: top level is not a JSON array")
    kind_of = {"B": "B", "E": "E", "i": "I"}
    for n, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise TraceError(f"{path}: event {n} is not an object")
        ph = ev.get("ph")
        if ph == "M":  # metadata (process names)
            continue
        if ph not in kind_of:
            raise TraceError(f"{path}: event {n} has bad ph '{ph}'")
        cat = ev.get("cat")
        if cat == "meta":
            continue
        for field in ("name", "cat", "ts", "pid", "tid"):
            if field not in ev:
                raise TraceError(
                    f"{path}: event {n} missing field '{field}'")
        yield (int(ev["ts"]), ev["cat"], kind_of[ph], ev["name"],
               int(ev["tid"]) - 1,
               ev.get("args", {}).get("detail", ""))


class PrefetchLifecycle:
    """Per-lineage-track state for the prefetch lifecycle check.

    The attribution layer promises: each track opens at most one "pf"
    span (issue), closes it exactly once, and reports its terminal
    outcome ("pf.outcome" instant) exactly once.  Tracks whose span is
    still open when the trace window closes get a synthetic end at the
    final emitted cycle, with no outcome — those are exempted; an
    outcome without a begin means the issue fell before the window
    opened, which is also legal.
    """

    __slots__ = ("begins", "outcomes", "end_cycle", "has_end")

    def __init__(self):
        self.begins = 0
        self.outcomes = 0
        self.end_cycle = None
        self.has_end = False


def check_prefetch_event(pf_tracks, label, cycle, kind, name, track):
    if kind in ("B", "E") and name != "pf":
        raise TraceError(
            f"{label}: prefetch span event named '{name}' at cycle "
            f"{cycle}; lifecycle spans must be named 'pf'")
    if kind == "I" and name != "pf.outcome":
        raise TraceError(
            f"{label}: prefetch instant named '{name}' at cycle "
            f"{cycle}; terminal outcomes must be named 'pf.outcome'")
    state = pf_tracks.setdefault(track, PrefetchLifecycle())
    if kind == "B":
        state.begins += 1
        if state.begins > 1:
            raise TraceError(
                f"{label}: track {track} issued twice (second 'pf' "
                f"begin at cycle {cycle}); lineage ids are unique")
    elif kind == "E":
        state.has_end = True
        state.end_cycle = cycle
    else:
        state.outcomes += 1
        if state.outcomes > 1:
            raise TraceError(
                f"{label}: track {track} has a second terminal "
                f"outcome at cycle {cycle}; outcomes are "
                f"exactly-once per lineage")


def check_prefetch_lifecycles(pf_tracks, label, last_cycle):
    """Post-stream check: every opened lineage settled exactly once."""
    for track, state in sorted(pf_tracks.items()):
        if state.begins == 0:
            continue  # outcome/end only: issue predates the window
        if state.outcomes == 1:
            continue
        # A span force-closed at the trace's final emitted cycle is
        # the writer's synthetic end for a window-clipped lifetime.
        if state.has_end and state.end_cycle == last_cycle:
            continue
        raise TraceError(
            f"{label}: prefetch track {track} was issued but never "
            f"reported a terminal outcome — the conservation "
            f"invariant (issued == settled) is broken in the trace")


def validate_events(events, label):
    """Run all event-stream checks; return (counts, spans, n_events)."""
    counts = collections.Counter()
    kind_counts = collections.Counter()
    open_spans = collections.Counter()
    pf_tracks = {}
    last_cycle = None
    n = 0
    for cycle, flag, kind, name, track, _args in events:
        n += 1
        if flag not in VALID_FLAGS:
            raise TraceError(f"{label}: unknown flag '{flag}'")
        if last_cycle is not None and cycle < last_cycle:
            raise TraceError(
                f"{label}: cycle went backwards ({last_cycle} -> "
                f"{cycle})")
        last_cycle = cycle
        counts[flag] += 1
        kind_counts[kind] += 1
        if flag == "prefetch":
            check_prefetch_event(pf_tracks, label, cycle, kind, name,
                                 track)
        key = (flag, name, track)
        if kind == "B":
            open_spans[key] += 1
        elif kind == "E":
            if open_spans[key] == 0:
                raise TraceError(
                    f"{label}: end without begin for {key} at cycle "
                    f"{cycle}")
            open_spans[key] -= 1
    unbalanced = {k: v for k, v in open_spans.items() if v}
    if unbalanced:
        raise TraceError(
            f"{label}: {len(unbalanced)} span(s) never closed "
            f"(first: {sorted(unbalanced)[0]}) — every alloc needs a "
            f"matching dealloc/replace")
    check_prefetch_lifecycles(pf_tracks, label, last_cycle)
    return counts, kind_counts, n


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="trace file to validate")
    ap.add_argument("--format", choices=("jsonl", "chrome"),
                    default="jsonl", help="trace format (default jsonl)")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress the summary; errors only")
    args = ap.parse_args()

    try:
        parse = parse_chrome if args.format == "chrome" else parse_jsonl
        counts, kinds, n = validate_events(parse(args.trace), args.trace)
        if not args.quiet:
            print(f"{args.trace}: {n} events OK")
            for flag in VALID_FLAGS:
                if counts[flag]:
                    print(f"  {flag:8s} {counts[flag]}")
            print(f"  kinds: instant={kinds['I']} begin="
                  f"{kinds['B']} end={kinds['E']}")
    except (TraceError, OSError) as exc:
        print(f"psb_trace: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
