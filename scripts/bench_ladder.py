"""Per-instance cost of the search-ladder decisions, raw and speed-scaled.

    python3 scripts/bench_ladder.py [--repeats 3] > run1.json
    python3 scripts/bench_ladder.py --pool run1.json run2.json ...

Run from the root of a checkout.  Runs search_coloring on each instance of
the perfbench search-ladder (C4,S5 at N = 7, 8; C4,B3 at 8, 9; K3,K4 at 8,
9), --repeats times, and reports its status, nodes, the median wall time and
nodes per second.  Each search is bracketed by timings of perfbench's
pure-Python speed kernel (run._kernel, 2.5 ms at the reference speed), and
the scaled figures are the raw ones times 2.5 ms over the mean kernel time
around that search, as perfbench scales.  Also reports this process's peak
RSS and that of its reaped children (ru_maxrss of RUSAGE_SELF and
RUSAGE_CHILDREN): the helper processes a long search forks.  Prints the
cases of one run as a JSON list.

With --pool, reads the outputs of several runs instead and prints their
cases pooled, as the "before" and "after" lists of BENCH_17.json hold them:
per instance the median of every run's raw times (wall_s_raw_median), each
run's scaled median (wall_s_scaled_median_by_run), and nodes per second
over the raw median and over the median of the scaled ones; the peak RSS
figures of every run.  Runs must agree on statuses and node counts.
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
from run import KERNEL_REF_S, _kernel  # noqa: E402

LADDER = (("C4,S5", 7), ("C4,S5", 8), ("C4,B3", 8), ("C4,B3", 9), ("K3,K4", 8), ("K3,K4", 9))


def _kernel_s(times: int = 3) -> float:
    start = time.perf_counter()
    for _ in range(times):
        _kernel()
    return (time.perf_counter() - start) / times


def pool(runs: list[list[dict]]) -> list[dict]:
    """The cases of several runs of this script pooled, in BENCH_17.json's
    format."""
    cases = []
    for by_run in zip(*runs):
        first = by_run[0]
        if first["case"] == "peak_rss_mb":
            cases.append({"case": "peak_rss_mb", "self_by_run": [c["self"] for c in by_run],
                          "children_by_run": [c["children"] for c in by_run]})
            continue
        if any((c["case"], c["status"], c["nodes"]) != (first["case"], first["status"], first["nodes"])
               for c in by_run):
            raise ValueError(f"runs disagree on {first['case']}")
        raw = [t for c in by_run for t in c["wall_s_raw_by_repeat"]]
        scaled = [c["wall_s_scaled"] for c in by_run]
        wall = statistics.median(raw)
        cases.append({
            "case": first["case"], "status": first["status"], "nodes": first["nodes"],
            "wall_s_raw_median": round(wall, 4), "wall_s_scaled_median_by_run": scaled, "wall_s_raw_by_repeat": raw,
            "nodes_per_s_raw": round(first["nodes"] / wall),
            "nodes_per_s_scaled": round(first["nodes"] / statistics.median(scaled)),
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
    cases = []
    for spec, n in LADDER:
        targets = cr.parse_target_sequence(spec)
        raw, scaled, outcomes = [], [], set()
        for _ in range(args.repeats):
            before = _kernel_s()
            start = time.perf_counter()
            out = cr.search_coloring(n, targets)
            took = time.perf_counter() - start
            after = _kernel_s()
            outcomes.add((out.status, out.nodes_explored))
            raw.append(took)
            scaled.append(took * KERNEL_REF_S / ((before + after) / 2))
        (status, nodes), = outcomes
        wall, wall_scaled = statistics.median(raw), statistics.median(scaled)
        cases.append({
            "case": f"{spec.replace(',', '_')}_{n}", "status": status, "nodes": nodes,
            "wall_s_raw": round(wall, 4), "wall_s_scaled": round(wall_scaled, 4),
            "nodes_per_s_raw": round(nodes / wall), "nodes_per_s_scaled": round(nodes / wall_scaled),
            "wall_s_raw_by_repeat": [round(t, 4) for t in raw], "repeats": args.repeats,
            "python": platform.python_version(), "cpu_count": os.cpu_count(),
        })
    cases.append({
        "case": "peak_rss_mb",
        "self": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "children": round(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1),
    })
    print(json.dumps(cases, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
