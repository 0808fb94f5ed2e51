"""Per-instance cost of the search-ladder decisions.

    python3 scripts/bench_ladder.py [--repeats 3] > run1.json
    python3 scripts/bench_ladder.py --pool run1.json run2.json ...

Run from the root of a checkout.  Runs search_coloring on each instance of
the perfbench search-ladder (perfbench's workloads.ladder_instances()),
--repeats times, and reports its status, nodes, the median wall time and
nodes per second.  It also runs each instance on one core, through
search._search_edges(..., split=False), so that the kernel's speed reads
apart from whether a split search's helper had a core of its own
(one_core_* fields), and times the capped search S4,S4 at n = 9 with
degree caps [6, 8] on one core (case S4_S4_9_caps).  The figures are raw
wall times: scaling them by a speed kernel timed around each search moved
them by up to 2x between runs of one tree while the raw ones agreed.  Also
reports pair_speed: the time of PAIR_CALLS calls of perfbench's pure-Python
speed kernel (run._kernel) alone over their time while a forked copy of this
process makes the same calls, about 1.0 where a second core is free and 0.5
where the two share one, which tells whether a split search's helper had a
core of its own; one reading swings widely, so PAIR_READINGS are taken and
their median reported.  Also reports this process's peak
RSS and that of its reaped children (ru_maxrss of RUSAGE_SELF and
RUSAGE_CHILDREN): the helper processes a long search forks.  Prints the
cases of one run as a JSON list.

With --pool, reads the outputs of several runs instead and prints their
cases pooled: per instance the median of every run's raw times
(wall_s_raw_median) and nodes per second over it, for the split and the
one-core runs; every run's pair_speed readings pooled, with their median
and quartiles; the peak RSS figures of every run.  Runs must agree on
statuses and node counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import c4ramsey as cr  # noqa: E402
from c4ramsey import search  # noqa: E402
from c4ramsey.graphs import pair_iter  # noqa: E402
from run import _kernel  # noqa: E402
from workloads import ladder_instances  # noqa: E402

PAIR_CALLS = 40
PAIR_READINGS = 5
CAPPED = ("S4,S4", 9, [6, 8])  # 31,870 nodes, below the split


def _kernel_s(times: int) -> float:
    start = time.perf_counter()
    for _ in range(times):
        _kernel()
    return (time.perf_counter() - start) / times


def _pair_speed(times: int = PAIR_CALLS) -> float:
    alone = _kernel_s(times)
    pid = os.fork()
    if pid == 0:
        try:
            _kernel_s(times)
        finally:
            os._exit(0)
    try:
        paired = _kernel_s(times)
    finally:
        os.waitpid(pid, 0)
    return alone / paired


def _one_core(n: int, targets, degree_caps=None) -> tuple[str, int]:
    """search_coloring's search, run in this process only."""
    edges = [(u, v, 1 << u, 1 << v) for u, v in pair_iter(n)]
    status, _, nodes = search._search_edges(n, edges, targets, cr.SearchBudget(), degree_caps, split=False)
    return status, nodes


def _timed(call, repeats: int) -> tuple[tuple[str, int], list[float]]:
    """call() repeats times: its one outcome, and the wall time of each
    call."""
    raw, outcomes = [], set()
    for _ in range(repeats):
        start = time.perf_counter()
        outcomes.add(call())
        raw.append(time.perf_counter() - start)
    (outcome,) = outcomes
    return outcome, raw


def _timings(prefix: str, nodes: int, raw: list[float]) -> dict:
    wall = statistics.median(raw)
    return {
        f"{prefix}wall_s_raw": round(wall, 6), f"{prefix}nodes_per_s_raw": round(nodes / wall),
        f"{prefix}wall_s_raw_by_repeat": [round(t, 6) for t in raw],
    }


def _pooled(prefix: str, nodes: int, by_run: tuple) -> dict:
    raw = [t for c in by_run for t in c[f"{prefix}wall_s_raw_by_repeat"]]
    wall = statistics.median(raw)
    return {
        f"{prefix}wall_s_raw_median": round(wall, 6), f"{prefix}wall_s_raw_by_repeat": raw,
        f"{prefix}nodes_per_s_raw": round(nodes / wall),
    }


def pool(runs: list[list[dict]]) -> list[dict]:
    """The cases of several runs of this script pooled."""
    if len({tuple(c["case"] for c in cases) for cases in runs}) != 1:
        raise ValueError("runs hold different cases")
    cases = []
    for by_run in zip(*runs):
        first = by_run[0]
        if first["case"] == "pair_speed":
            readings = [r for c in by_run for r in c["readings"]]
            q1, _, q3 = statistics.quantiles(readings, n=4)
            cases.append({"case": "pair_speed", "median": round(statistics.median(readings), 3),
                          "quartiles": [round(q1, 3), round(q3, 3)], "readings": readings,
                          "kernel_calls": first["kernel_calls"]})
            continue
        if first["case"] == "peak_rss_mb":
            cases.append({"case": "peak_rss_mb", "self_by_run": [c["self"] for c in by_run],
                          "children_by_run": [c["children"] for c in by_run]})
            continue
        if any((c["case"], c["status"], c["nodes"]) != (first["case"], first["status"], first["nodes"])
               for c in by_run):
            raise ValueError(f"runs disagree on {first['case']}")
        prefixes = [p for p in ("", "one_core_") if f"{p}wall_s_raw_by_repeat" in first]
        cases.append({
            "case": first["case"], "status": first["status"], "nodes": first["nodes"],
            **{k: v for p in prefixes for k, v in _pooled(p, first["nodes"], by_run).items()},
            "runs": len(by_run), "repeats": first["repeats"], "python": first["python"],
            "cpu_count": first["cpu_count"],
        })
    return cases


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--pool", nargs="+", metavar="RUN_JSON", help="pool the outputs of earlier runs")
    args = ap.parse_args()
    if args.pool:
        print(json.dumps(pool([json.loads(Path(p).read_text()) for p in args.pool]), indent=1))
        return 0
    env = {"repeats": args.repeats, "python": platform.python_version(), "cpu_count": os.cpu_count()}
    cases = []
    for spec, n in ladder_instances():
        targets = cr.parse_target_sequence(spec)

        def split():
            out = cr.search_coloring(n, targets)
            return out.status, out.nodes_explored

        (status, nodes), raw = _timed(split, args.repeats)
        one_core, one_raw = _timed(lambda: _one_core(n, targets), args.repeats)
        if one_core != (status, nodes):
            raise AssertionError(f"{spec}@{n}: one core gave {one_core}, the split {(status, nodes)}")
        cases.append({"case": f"{spec.replace(',', '_')}_{n}", "status": status, "nodes": nodes,
                      **_timings("", nodes, raw), **_timings("one_core_", nodes, one_raw), **env})
    spec, n, caps = CAPPED
    targets = cr.parse_target_sequence(spec)
    (status, nodes), raw = _timed(lambda: _one_core(n, targets, caps), args.repeats)
    cases.append({"case": f"{spec.replace(',', '_')}_{n}_caps", "degree_caps": caps, "status": status, "nodes": nodes,
                  **_timings("one_core_", nodes, raw), **env})
    readings = [round(_pair_speed(), 3) for _ in range(PAIR_READINGS)]
    cases.append({"case": "pair_speed", "median": statistics.median(readings), "readings": readings,
                  "kernel_calls": PAIR_CALLS})
    cases.append({
        "case": "peak_rss_mb",
        "self": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "children": round(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1),
    })
    print(json.dumps(cases, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
