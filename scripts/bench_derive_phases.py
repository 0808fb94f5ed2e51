"""Per-phase cost of `derive LIST --json`, and the cost of long plans.

    python3 scripts/bench_derive_phases.py [--seed 7] [--repeats 5]
    python3 scripts/bench_derive_phases.py --first-call LIST

Run from the root of a checkout.  For each derive-cli list that perfbench
makes from --seed, the phases of `c4ramsey derive LIST --json` are timed in
the order `cli._cmd_derive` runs them: registry (seed_registry(), which the
CLI calls once per command), parse (parse_targets), derive, replay (against
that registry, as the CLI replays), and encode (json.dumps of the printed
document: the node table with indent=2, or the one-line cannot-derive
answer).  Each phase is summed over one pass of the lists; the figure is the
median over --repeats passes, after one untimed pass.

Then the long lists C4,B20,B20,B20, C4,K5000 and C4,S30,S30,S30, one
derive() each with a fresh seed_registry(): the median of --repeats calls in
this process; the median of --repeats first calls, each in a fresh process
(`--first-call LIST`, which prints that one time); and, from one more call
under tracemalloc, the peak traced memory while it plans and the memory its
tree keeps once derive() returns.  Prints the cases as a JSON list, in the
case format of the BENCH_*.json files.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import c4ramsey as cr  # noqa: E402
from workloads import derive_make  # noqa: E402

PHASES = ("registry", "parse", "derive", "replay", "encode")
PLAN_LISTS = ("C4,B20,B20,B20", "C4,K5000", "C4,S30,S30,S30")


def phase_pass(lists) -> dict[str, float]:
    totals = dict.fromkeys(PHASES, 0.0)
    clock = time.perf_counter
    for text in lists:
        t0 = clock()
        registry = cr.seed_registry()
        t1 = clock()
        targets = cr.parse_targets(text)
        t2 = clock()
        try:
            tree = cr.derive(targets, registry)
        except cr.CannotDeriveError as e:
            t3 = clock()
            json.dumps({"command": "derive", "status": "cannot-derive", "missing": e.missing})
            t5 = t4 = clock()
        else:
            t3 = clock()
            cr.replay(tree, registry)
            t4 = clock()
            json.dumps({"command": "derive", "status": "ok", "tree": tree.to_dict()}, indent=2)
            t5 = clock()
        for phase, took in zip(PHASES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
            totals[phase] += took
    return totals


def plan(text: str) -> tuple[float, int]:
    """One derive() of text with a fresh seed_registry(): seconds, value."""
    targets, registry = cr.parse_targets(text), cr.seed_registry()
    t0 = time.perf_counter()
    value = cr.derive(targets, registry).value
    return time.perf_counter() - t0, value


def plan_memory(text: str) -> tuple[int, int]:
    """Traced bytes of one derive() of text: its peak, and what its tree keeps."""
    targets, registry = cr.parse_targets(text), cr.seed_registry()
    gc.collect()
    tracemalloc.start()
    tree = cr.derive(targets, registry)
    gc.collect()
    kept, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del tree
    return peak, kept


def first_call(text: str, repeats: int) -> list[float]:
    """--repeats first-call plan times of text, each in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--first-call", text]
    return [json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)["wall_s"]
            for _ in range(repeats)]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--first-call", metavar="LIST", help="print the plan time of LIST, planned first in this process")
    args = ap.parse_args()
    if args.first_call:
        took, value = plan(args.first_call)
        print(json.dumps({"list": args.first_call, "value": value, "wall_s": round(took, 4)}))
        return
    env = {"repeats": args.repeats, "python": platform.python_version(), "cpu_count": os.cpu_count()}
    lists = derive_make(random.Random(args.seed))["lists"]
    phase_pass(lists)  # untimed: lazy imports and the cached deletion orders
    passes = [phase_pass(lists) for _ in range(args.repeats)]
    cases = [
        {"case": f"derive_cli_seed{args.seed}_{phase}", "lists": len(lists),
         "wall_s_median": round(statistics.median(p[phase] for p in passes), 4), **env}
        for phase in PHASES
    ]
    for text in PLAN_LISTS:
        runs = [plan(text) for _ in range(args.repeats)]
        firsts = first_call(text, args.repeats)
        peak, kept = plan_memory(text)
        cases.append({"case": f"plan_{text.replace(',', '_')}", "value": runs[0][1],
                      "wall_s_median": round(statistics.median(t for t, _ in runs), 4),
                      "wall_s_first_median": round(statistics.median(firsts), 4),
                      "wall_s_first_by_run": [round(t, 4) for t in firsts],
                      "traced_peak_mb": round(peak / 2**20, 2), "tree_kept_mb": round(kept / 2**20, 2), **env})
    print(json.dumps(cases, indent=1))


if __name__ == "__main__":
    main()
