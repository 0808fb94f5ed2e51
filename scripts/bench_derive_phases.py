"""Per-phase cost of `derive LIST --json`: planning, replay and encoding.

    python3 scripts/bench_derive_phases.py [--seed 7] [--repeats 5]

Run from the root of a checkout.  Phases are timed on the derive-cli lists
that perfbench makes from --seed, each phase summed over one pass of the
lists; the figure is the median over --repeats passes.  Then the encoding
of the C4,K500 and C4,K1200 chains is timed, median of --repeats.
"Encode" is building the exact text that `derive --json` prints: with
DerivationTree.to_json where the checkout has it, else json.dumps of
to_dict() with indent=2 under a raised recursion limit.  Prints the cases
as a JSON list, in the case format of the BENCH_*.json files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import c4ramsey as cr  # noqa: E402
from workloads import derive_make  # noqa: E402


def encode(tree) -> str:
    if hasattr(tree, "to_json"):
        return '{\n  "command": "derive",\n  "status": "ok",\n  "tree": ' + tree.to_json(1) + "\n}"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        return json.dumps({"command": "derive", "status": "ok", "tree": tree.to_dict()}, indent=2)
    finally:
        sys.setrecursionlimit(limit)


def phase_pass(lists, registry) -> dict[str, float]:
    totals = {"derive": 0.0, "replay": 0.0, "encode": 0.0}
    clock = time.perf_counter
    for text in lists:
        t0 = clock()
        try:
            tree = cr.derive(cr.parse_targets(text), registry)
        except cr.CannotDeriveError:
            totals["derive"] += clock() - t0
            continue
        t1 = clock()
        cr.replay(tree)
        t2 = clock()
        encode(tree)
        t3 = clock()
        totals["derive"] += t1 - t0
        totals["replay"] += t2 - t1
        totals["encode"] += t3 - t2
    return totals


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    env = {"repeats": args.repeats, "python": platform.python_version(), "cpu_count": os.cpu_count()}
    inputs = derive_make(random.Random(args.seed))
    lists, registry = inputs["lists"], inputs["registry"]
    passes = [phase_pass(lists, registry) for _ in range(args.repeats)]
    cases = [
        {"case": f"derive_cli_seed{args.seed}_{phase}", "lists": len(lists),
         "wall_s_median": round(statistics.median(p[phase] for p in passes), 4), **env}
        for phase in ("derive", "replay", "encode")
    ]
    for text in ("C4,K500", "C4,K1200"):
        tree = cr.derive(cr.parse_targets(text), registry)
        times, size = [], 0
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            size = len(encode(tree))
            times.append(time.perf_counter() - t0)
        cases.append({"case": f"encode_{text.replace(',', '_')}", "bytes": size,
                      "wall_s_median": round(statistics.median(times), 4), **env})
    print(json.dumps(cases, indent=1))


if __name__ == "__main__":
    main()
