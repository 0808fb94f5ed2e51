"""Per-phase cost of `derive LIST --json`, phase by phase as the CLI runs it.

    python3 scripts/bench_derive_phases.py [--seed 7] [--repeats 5]

Run from the root of a checkout.  For each derive-cli list that perfbench
makes from --seed, the phases of `c4ramsey derive LIST --json` are timed in
the order `cli._cmd_derive` runs them: registry (seed_registry(), which the
CLI calls once per command), parse (parse_targets), derive, replay (against
that registry, as the CLI replays), and
encode (json.dumps of the printed document: the node table with indent=2,
or the one-line cannot-derive answer).  Each phase is summed over one pass
of the lists; the figure is the median over --repeats passes.  Then the
planning time of the long lists C4,K5000 and C4,B20,B20,B20 is timed, one
derive() each, median of --repeats, with the first (cold) call reported
apart.  Prints the cases as a JSON list, in the case format of the
BENCH_*.json files.
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

PHASES = ("registry", "parse", "derive", "replay", "encode")
PLAN_LISTS = ("C4,K5000", "C4,B20,B20,B20")


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


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    env = {"repeats": args.repeats, "python": platform.python_version(), "cpu_count": os.cpu_count()}
    lists = derive_make(random.Random(args.seed))["lists"]
    passes = [phase_pass(lists) for _ in range(args.repeats)]
    cases = [
        {"case": f"derive_cli_seed{args.seed}_{phase}", "lists": len(lists),
         "wall_s_median": round(statistics.median(p[phase] for p in passes), 4), **env}
        for phase in PHASES
    ]
    for text in PLAN_LISTS:
        targets = cr.parse_targets(text)
        times, value = [], None
        for _ in range(args.repeats):
            registry = cr.seed_registry()
            t0 = time.perf_counter()
            value = cr.derive(targets, registry).value
            times.append(time.perf_counter() - t0)
        cases.append({"case": f"plan_{text.replace(',', '_')}", "value": value,
                      "wall_s_median": round(statistics.median(times), 4),
                      "wall_s_first": round(times[0], 4), **env})
    print(json.dumps(cases, indent=1))


if __name__ == "__main__":
    main()
