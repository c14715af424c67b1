#!/usr/bin/env python3
"""Pin the exit-status contract of benchmark/compare.py, the CI gate.

    python3 tests/bench_gate/check_compare.py REPO_ROOT

Builds one minimal result document in memory, writes variants of it
to a temporary directory, and runs compare.py on set A against set B:

    identical sets                       -> 0
    a changed stats_digest               -> 1  (deterministic mismatch)
    cells_failed > 0                     -> 1
    differing metadata (seconds)         -> 1
    sim_insts_per_s 30% lower in B       -> 3  (worse than its bound)
    sim_insts_per_s 30% higher in B      -> 0  (improvements never fail)
    wall_s 30% higher in B               -> 3

Reads compare.py and BENCHMARK.json and edits neither. Exits 0 when
every case matches, 1 otherwise.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile


def base_document(bench):
    """One untraced run with every end-to-end metric of BENCHMARK.json."""
    return {
        "metadata": {"workload": "fig5-base", "seed": 1, "traced": False,
                     "seconds": 6, "nproc": 4, "compiler": "GNU 13",
                     "build_type": "Release", "warmup_insts": 1000,
                     "measured_insts": 2000, "workers": 1},
        "passes": 3,
        "cells_run": 3,
        "cells_failed": 0,
        "metrics": {m["name"]: {"value": 100.0, "unit": m["unit"]}
                    for m in bench["end_to_end"]},
        "deterministic": {
            "cells_per_pass": 1,
            "merged_digest": "00000000000000aa",
            "cells": [{"key": "health/Base", "seed": 1, "insts": 2000,
                       "cycles": 4000, "ipc": 0.5,
                       "stats_digest": "00000000000000bb"}],
        },
        "cells": [{"key": "health/Base", "setup_ms": 1.0, "run_ms": 2.0,
                   "export_ms": 0.1}],
    }


def variant(doc, edit):
    out = copy.deepcopy(doc)
    edit(out)
    return out


def scale_metric(name, factor):
    def edit(d):
        d["metrics"][name]["value"] *= factor
    return edit


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = argv[0]
    compare = os.path.join(root, "benchmark", "compare.py")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)

    a = base_document(bench)

    def set_digest(d):
        d["deterministic"]["cells"][0]["stats_digest"] = "00000000000000cc"

    def set_failed(d):
        d["cells_failed"] = 1

    def set_seconds(d):
        d["metadata"]["seconds"] = 7

    cases = [
        ("identical sets", a, 0),
        ("changed stats_digest", variant(a, set_digest), 1),
        ("cells_failed > 0", variant(a, set_failed), 1),
        ("differing metadata (seconds)", variant(a, set_seconds), 1),
        ("sim_insts_per_s 30% lower",
         variant(a, scale_metric("sim_insts_per_s", 0.7)), 3),
        ("sim_insts_per_s 30% higher",
         variant(a, scale_metric("sim_insts_per_s", 1.3)), 0),
        ("wall_s 30% higher", variant(a, scale_metric("wall_s", 1.3)), 3),
    ]

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        path_a = os.path.join(tmp, "A.json")
        with open(path_a, "w") as f:
            json.dump(a, f)
        for i, (name, b, want) in enumerate(cases):
            path_b = os.path.join(tmp, f"B{i}.json")
            with open(path_b, "w") as f:
                json.dump(b, f)
            proc = subprocess.run(
                [sys.executable, compare, path_a, "--", path_b],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True)
            verdict = "ok" if proc.returncode == want else "FAIL"
            print(f"check_compare: {verdict}: {name}: exit "
                  f"{proc.returncode}, expected {want}")
            if proc.returncode != want:
                failures += 1
                print(proc.stdout, end="")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
