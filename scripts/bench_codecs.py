"""Per-call cost of the witness layers: codecs, color classes, verification.

    python3 scripts/bench_codecs.py [--repeats 5]

Run from the root of a checkout.  For n = 11, 62 and 128 (a partition-batch
graph, and the random colorings of the witness-pipeline) it times
coloring_to_text and coloring_from_text on a random 2-coloring of K_n,
EdgeColoring.color_class(0) on it, and graph6_encode and graph6_decode on
its color-0 class; at n = 128 it also times verify_lower_bound of the
coloring against C4,K4, which rejects it with a copy as the
witness-pipeline does, and coloring_from_text of the canonical text of a
random 11-coloring, whose two-character tokens the per-n template cannot
hold, so the line loop reads it (c11_read_n128).  For n = 11, 29 (the
size of the paper's partition witnesses) and 128 it times the
EdgeColoring constructor on a list of random colors 0..2
(edge_coloring_c3_n<N>).  Each figure is the minimum over --repeats
timeit runs of the time per call, in microseconds.

Cold cases, per n, each the minimum over --repeats fresh interpreters, in
microseconds: the first calls of coloring_to_text, coloring_from_text,
color_class, graph6_encode and graph6_decode in turn, with every per-n
table still to build (first_calls_cold_n<N>); the same five calls right
after (first_calls_warm_n<N>); and, where graphs has them, the first
builds of the n = N tables alone, in an interpreter that has run nothing
else: the bit-matrix network and the coloring-text template
(tables_cold_n<N>).  Prints the cases as a JSON list, in the case format
of the BENCH_*.json files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import c4ramsey as cr  # noqa: E402

ORDERS = (11, 62, 128)
CONSTRUCT_ORDERS = (11, 29, 128)
TARGETS = cr.parse_target_sequence("C4,K4")


def _rejected_copy(coloring):
    try:
        cr.verify_lower_bound(coloring, TARGETS)
    except cr.BadWitnessError as e:
        return e.vertices
    raise AssertionError("a random 2-coloring of K_128 was accepted for C4,K4")


# Runs in a fresh interpreter.  "calls": prints the microseconds of the
# cold and the warm calls; "tables": of the table builds, or null where
# graphs has no tables.
COLD = """
import json, random, sys, time
import c4ramsey as cr
from c4ramsey import graphs

n, mode = int(sys.argv[1]), sys.argv[2]
if mode == "tables":
    if not hasattr(graphs, "_bit_network"):
        print("null")
        sys.exit()
    start = time.perf_counter()
    graphs._bit_network(1 << max(n - 1, 7).bit_length())
    graphs._text_template(n)
    print((time.perf_counter() - start) * 1e6)
    sys.exit()
rng = random.Random(n)
coloring = cr.EdgeColoring(n, 2, [rng.randrange(2) for _ in range(n * (n - 1) // 2)])


def calls():
    start = time.perf_counter()
    text = cr.coloring_to_text(coloring)
    cr.coloring_from_text(text)
    cr.graph6_decode(cr.graph6_encode(coloring.color_class(0)))
    return (time.perf_counter() - start) * 1e6


print(json.dumps([calls(), calls()]))
"""


def _fresh(n: int, mode: str):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", COLD, str(n), mode], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def _cold_cases(n: int, repeats: int) -> dict[str, float]:
    calls = [_fresh(n, "calls") for _ in range(repeats)]
    cases = {"first_calls_cold": min(c[0] for c in calls), "first_calls_warm": min(c[1] for c in calls)}
    tables = [_fresh(n, "tables") for _ in range(repeats)]
    if tables[0] is not None:
        cases["tables_cold"] = min(tables)
    return cases


def _timed(case: str, call, number: int, repeats: int, env: dict) -> dict:
    runs = timeit.repeat(call, number=number, repeat=repeats)
    return {"case": case, "us_per_call_min": round(min(runs) / number * 1e6, 2), "calls_per_run": number, **env}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    env = {"repeats": args.repeats, "python": platform.python_version(), "cpu_count": os.cpu_count()}
    cases = []
    for n in ORDERS:
        rng = random.Random(n)
        coloring = cr.EdgeColoring(n, 2, [rng.randrange(2) for _ in range(n * (n - 1) // 2)])
        graph = coloring.color_class(0)
        calls = {
            "coloring_to_text": (cr.coloring_to_text, coloring),
            "coloring_from_text": (cr.coloring_from_text, cr.coloring_to_text(coloring)),
            "color_class": (coloring.color_class, 0),
            "graph6_encode": (cr.graph6_encode, graph),
            "graph6_decode": (cr.graph6_decode, cr.graph6_encode(graph)),
        }
        if n == 128:
            calls["verify_lower_bound"] = (_rejected_copy, coloring)
            eleven = cr.EdgeColoring(n, 11, [rng.randrange(11) for _ in range(n * (n - 1) // 2)])
            calls["c11_read"] = (cr.coloring_from_text, cr.coloring_to_text(eleven))
        number = max(20, 20_000 // n)
        for name, (fn, arg) in calls.items():
            cases.append(_timed(f"{name}_n{n}", lambda: fn(arg), number, args.repeats, env))
        for name, us in _cold_cases(n, args.repeats).items():
            cases.append({"case": f"{name}_n{n}", "us_per_call_min": round(us, 2), "calls_per_run": 1, **env})
    for n in CONSTRUCT_ORDERS:
        rng = random.Random(n)
        colors = [rng.randrange(3) for _ in range(n * (n - 1) // 2)]
        cases.append(_timed(f"edge_coloring_c3_n{n}", lambda: cr.EdgeColoring(n, 3, colors),
                            max(20, 20_000 // n), args.repeats, env))
    print(json.dumps(cases, indent=1))


if __name__ == "__main__":
    main()
