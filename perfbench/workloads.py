"""The four benchmark workloads: inputs from a seed, one pass of operations,
and the checks on what a pass returned.

Each workload exposes
  make(rng) -> inputs            the fixed work of one pass, from the seed
  run(inputs, clock) -> iter[Op] one closed-loop pass, each op timed on clock
  check(inputs, ops, report)     oracles; returns the pass's exact counts

The program is always reached through attribute lookups on the c4ramsey
modules at call time, so the tracer's wrappers are seen when installed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import zlib
from dataclasses import dataclass, field

import c4ramsey as cr
import c4ramsey.cli as cr_cli

import oracles

FEASIBLE, INFEASIBLE = "feasible", "infeasible"


@dataclass
class Op:
    start: float  # on the run's clock
    seconds: float
    key: tuple
    result: object  # the call's return value, or the exception it raised


@dataclass
class Report:
    """What the checks found over a run; problems make the run incorrect."""

    problems: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def problem(self, msg: str) -> None:
        self.problems.append(msg)

    def failure(self, msg: str) -> None:
        self.failures.append(msg)


def timed(clock, key: tuple, fn, *args) -> Op:
    start = clock()
    try:
        result = fn(*args)
    except Exception as e:  # an operation's failure is data for the checks
        result = e
    return Op(start, clock() - start, key, result)


def _decided(key, res, report: Report) -> bool:
    """A search outcome that decided its question; anything else is a failed operation."""
    if isinstance(res, Exception):
        report.failure(f"{key}: raised {type(res).__name__}: {res}")
        return False
    if res.status not in (FEASIBLE, INFEASIBLE):
        report.failure(f"{key}: status {res.status} after {res.nodes_explored} nodes")
        return False
    return True


def _witness_good(report: Report, key, coloring, specs: list[str]) -> None:
    """A witness passes verify_lower_bound and the independent oracle."""
    try:
        fact = cr.verify_lower_bound(coloring, cr.parse_target_sequence(",".join(specs)))
    except ValueError as e:
        report.problem(f"{key}: witness rejected by verify_lower_bound: {e}")
        return
    if fact.value != coloring.n + 1:
        report.problem(f"{key}: verify_lower_bound claims {fact.value}, expected {coloring.n + 1}")
    if not oracles.is_good(coloring.n, coloring.colors, specs):
        report.problem(f"{key}: witness contains a target copy (oracle)")


# ---------------------------------------------------------------------------
# search-ladder: fixed decisions at R-1 (feasible) and R (infeasible) that
# between them use every incremental target kind: C4, star, book, clique.
# One operation is one rung, search_coloring at R-1 and at R, each search
# timed on the run's clock for the per-layer metrics; single decisions range
# from 0.03 ms to 4 s, and rungs make the percentiles compare like with like.
# Values: Radziszowski, Small Ramsey Numbers, EJC DS1.  Left out: C4,K5@13
# (8 s) and C4,K4@10 (78 s), so that a run holds three passes; C4,C4,K3@11,
# whose time swung between 0.55 and 1.5 s from run to run on the same
# machine, more than the speed scaling corrects; and the millisecond rungs
# C4,C4 5-6 and C4,K3 6-7, which add no target kind and would put the median
# on the 0.5 s C4,S5 rung, whose time swung by 20%.

LADDER_R = {"C4,C4": 6, "C4,K3": 7, "C4,S5": 8, "C4,B3": 9, "K3,K4": 9}
LADDER = (
    ("C4,S5", 7, 8),
    ("C4,B3", 8, 9),
    ("K3,K4", 8, 9),
)


def instance_name(spec: str, n: int) -> str:
    return f"{spec.replace(',', '_')}_{n}"


def ladder_instances():
    return [(spec, n) for spec, lo, hi in LADDER for n in range(lo, hi + 1)]


def ladder_make(rng: random.Random):
    # Color order stays as in the paper; the seed only orders the rungs,
    # since permuting colors changes the search's size, not only its noise.
    rungs = list(LADDER)
    rng.shuffle(rungs)
    return rungs


def _rung(clock, spec: str, lo: int, hi: int) -> tuple[dict, dict]:
    """({N: outcome}, {N: (start, seconds)}) over N = lo..hi, timed on clock."""
    targets = cr.parse_target_sequence(spec)
    outcomes, times = {}, {}
    for n in range(lo, hi + 1):
        start = clock()
        outcomes[n] = cr.search_coloring(n, targets)
        times[n] = (start, clock() - start)
    return outcomes, times


def ladder_run(rungs, clock):
    for spec, lo, hi in rungs:
        yield timed(clock, (spec, lo, hi), _rung, clock, spec, lo, hi)


def ladder_instance_times(ops: list[Op]) -> dict:
    """(spec, N) -> (start, seconds) of each search, for the per-layer metrics."""
    return {
        (op.key[0], n): t
        for op in ops
        if not isinstance(op.result, Exception)
        for n, t in op.result[1].items()
    }


def ladder_check(rungs, ops: list[Op], report: Report) -> dict:
    counts, statuses = {}, {}
    for op in ops:
        spec, lo, hi = op.key
        if isinstance(op.result, Exception):
            report.failure(f"{op.key}: raised {type(op.result).__name__}: {op.result}")
            continue
        outcomes = op.result[0]
        for n, out in outcomes.items():
            if not _decided((spec, n), out, report):
                continue
            counts[instance_name(spec, n)] = [out.status, out.nodes_explored]
            statuses[(spec, n)] = out.status
            expected = FEASIBLE if n < LADDER_R[spec] else INFEASIBLE
            if out.status != expected:
                report.problem(f"{spec}@{n}: {out.status}, expected {expected} (R = {LADDER_R[spec]})")
            if out.status == FEASIBLE:
                if out.witness is None or out.witness.n != n:
                    report.problem(f"{spec}@{n}: feasible without a K_{n} witness")
                else:
                    _witness_good(report, (spec, n), out.witness, spec.split(","))
        r = LADDER_R[spec] if hi == LADDER_R[spec] else None
        if r is not None and cr.computed_ramsey(outcomes) != r:
            report.problem(f"{spec}: computed_ramsey says {cr.computed_ramsey(outcomes)}, expected {r}")
    calls = sum(hi - lo + 1 for _spec, lo, hi in rungs)
    counts["search"] = [calls, len(statuses), sum(nodes for _status, nodes in counts.values())]
    for spec, r in LADDER_R.items():
        if statuses.get((spec, r - 1)) == FEASIBLE and statuses.get((spec, r)) == INFEASIBLE:
            counts[f"R({spec})"] = r
    return counts


# ---------------------------------------------------------------------------
# partition-batch: many short partition_check calls on maximal C4-free graphs
# given as graph6.  n stops at 11: at n = 12 and 13 about one graph in
# a few thousand needs 30k to 490k nodes, against medians of 85 and 123, so
# a batch's work would depend on whether its seed drew one.  At n <= 11 the
# most seen in 3,600 graphs was 178 nodes.

PARTITION_N = range(8, 12)
PARTITION_PER_N = 300
PARTITION_SPECS = ("C4", "K3", "K4")


def maximal_c4_free(rng: random.Random, n: int) -> list[set[int]]:
    """Greedy random maximal C4-free graph: add edges in random order unless
    one would close a 4-cycle."""
    adj = [set() for _ in range(n)]
    order = list(oracles.pairs(n))
    rng.shuffle(order)
    for u, v in order:
        # uv closes a C4 iff a path u-a-b-v of length 3 exists
        if not any(adj[a] & adj[v] - {u} for a in adj[u]):
            adj[u].add(v)
            adj[v].add(u)
    return adj


def batch_make(rng: random.Random):
    graphs = []
    for n in PARTITION_N:
        for _ in range(PARTITION_PER_N):
            adj = maximal_c4_free(rng, n)
            if oracles.contains(adj, "C4"):
                raise RuntimeError("generator produced a C4")
            graphs.append((oracles.graph6(n, adj), n, adj))
    rng.shuffle(graphs)
    return graphs


def batch_run(graphs, clock):
    for i, (g6, _n, _adj) in enumerate(graphs):
        yield timed(clock, (i,), lambda s: cr.partition_check(cr.graph6_decode(s)), g6)


def batch_check(graphs, ops: list[Op], report: Report) -> dict:
    nodes = feasible = 0
    for op in ops:
        g6, n, adj = graphs[op.key[0]]
        if not _decided(op.key, op.result, report):
            continue
        out = op.result
        nodes += out.nodes_explored
        if out.status == INFEASIBLE:
            # only provable here when the complement holds K9, as R(3,4) = 9
            comp = [set(range(n)) - adj[v] - {v} for v in range(n)]
            if not oracles.contains(comp, "K9"):
                report.problem(f"{g6}: infeasible claimed, complement has no K9")
            continue
        feasible += 1
        w = out.witness
        if w is None or w.n != n or w.c != 3:
            report.problem(f"{g6}: feasible without a 3-colored K_{n} witness")
            continue
        for (u, v), col in zip(oracles.pairs(n), w.colors):
            if (col == 0) != (v in adj[u]):
                report.problem(f"{g6}: pair {u} {v} has color {col}; input edges must be exactly color 0")
                break
        if not oracles.is_good(n, w.colors, PARTITION_SPECS):
            report.problem(f"{g6}: witness is not good for (C4,K3,K4) (oracle)")
    return {"calls": len(ops), "nodes": nodes, "feasible": feasible}


# ---------------------------------------------------------------------------
# derive-cli: target lists through cli.run(["derive", LIST, "--json"]).
# The family is every list of 1 or 2 C4s and 1 to 3 other entries drawn from
# the pools below.  A seed takes 90% of each (C4 count, width) stratum of one
# or two entries and all lists of three: taking most of a fixed family keeps
# the work nearly the same from seed to seed, where a free draw moved the
# pass time by 30%, and the three-entry lists hold the largest trees (up to
# 1.2 MB of JSON), so with all of them peak memory does not hang on the seed.

DERIVE_TABLE = {
    "C4,K11": 43,
    "C4,K12": 51,
    "C4,K4,K4": 66,
    "C4,K3,K3,K3": 57,
    "C4,C4,K3,K4": 75,
    "C4,C4,K4,K4": 177,
    "C4,K3,K4": 29,
}
DERIVE_POOLS = {
    1: [f"K{k}" for k in range(3, 13)]
    + [f"S{k}" for k in (2, 3, 5, 9, 17)]
    + [f"B{k}" for k in (2, 3, 5, 9, 17)]
    + ["K3+1K1", "K5+1K1", "S4+1K1", "B3+1K1", "3K1"],
    2: ["K3", "K4", "K5", "K6", "K8", "S5", "S9", "B3", "B8", "K4+1K1"],
    3: ["K3", "K4", "K5", "S5", "B3", "K3+1K1"],
}
DERIVE_SHARE = {1: 0.9, 2: 0.9, 3: 1.0}  # by width


def derive_family() -> dict[tuple[int, int], list[str]]:
    return {
        (m, w): [",".join(("C4",) * m + combo) for combo in itertools.combinations_with_replacement(pool, w)]
        for m in (1, 2)
        for w, pool in DERIVE_POOLS.items()
    }


def derive_make(rng: random.Random):
    lists = list(DERIVE_TABLE)
    for (_m, width), family in sorted(derive_family().items()):
        lists += rng.sample(family, round(len(family) * DERIVE_SHARE[width]))
    rng.shuffle(lists)
    return {"lists": lists, "registry": cr.seed_registry()}


def _cli_derive(text: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cr_cli.run(["derive", text, "--json"])
    return code, buf.getvalue()


def derive_run(inputs, clock):
    for text in inputs["lists"]:
        op = timed(clock, (text,), _cli_derive, text)
        if not isinstance(op.result, Exception):
            # held compressed until checked, so a pass's outputs do not pile up
            code, out = op.result
            op.result = (code, zlib.compress(out.encode()))
        yield op


def derive_check(inputs, ops: list[Op], report: Report) -> dict:
    registry = inputs["registry"]
    cannot = value_sum = 0
    for op in ops:
        text = op.key[0]
        if isinstance(op.result, Exception):
            report.failure(f"derive {text}: raised {type(op.result).__name__}: {op.result}")
            continue
        code, out = op.result
        try:
            doc = json.loads(zlib.decompress(out))
        except ValueError:
            report.failure(f"derive {text}: exit {code} without a JSON document")
            continue
        if code == 2 and doc.get("status") == "cannot-derive":
            # an honest "no rule chain" answer: counted, not a failure
            if not doc.get("missing"):
                report.problem(f"derive {text}: cannot-derive without missing facts")
            if text in DERIVE_TABLE:
                report.problem(f"derive {text}: cannot derive a table row")
            cannot += 1
            continue
        if code != 0 or doc.get("status") != "ok":
            report.failure(f"derive {text}: exit {code}, status {doc.get('status')}")
            continue
        try:
            tree = cr.DerivationTree.from_dict(doc["tree"])
            cr.replay(tree)
        except (ValueError, KeyError, TypeError) as e:
            report.problem(f"derive {text}: tree does not rebuild and replay: {e}")
            continue
        asked = cr.parse_targets(text)
        value = tree.value
        value_sum += value
        if tree.targets.key() != asked.key():
            report.problem(f"derive {text}: tree concludes on {tree.targets.key()}")
        if text in DERIVE_TABLE and value != DERIVE_TABLE[text]:
            report.problem(f"derive {text}: {value}, table says {DERIVE_TABLE[text]}")
        lower = registry.best_lower(asked)
        if lower is not None and value < lower.value:
            report.problem(f"derive {text}: upper bound {value} below known lower bound {lower.value}")
    return {"calls": len(ops), "cannot_derive": cannot, "value_sum": value_sum}


# ---------------------------------------------------------------------------
# witness-pipeline: a certificate chain from C4,K3@6 to C4,K6@15 and random
# colorings at n = 62 and 128 that must be rejected with a concrete copy.  One
# operation is one certificate step: coloring text out and in,
# verify_lower_bound, a graph6 round-trip of each color class and, along the
# chain, extend_with_disjoint_clique to the next N; the first step also runs
# the search that finds the C4,K3@6 witness.  A pass is 13 steps: three short
# ones, eight colorings at n = 128 and two long chain steps, so the median
# falls inside the block of like n = 128 steps and p90 inside the block of
# long ones, and neither percentile straddles two kinds of step.  The random
# colorings are dealt out between the chain steps: when five ran back to back,
# the machine's speed in that stretch set the median of a whole pass, and ten
# runs' medians spread by 0.05-0.10, against 0.02-0.05 dealt out.  The chain
# stops at N = 15: one verify at N = 18 takes 13 s.

WITNESS_TOP = 15
RANDOMS = ((62, 1), (128, 8))  # (n, count)


def _relabel(coloring, perm: list[int]):
    """The coloring with vertex v renamed perm[v]."""
    n = coloring.n
    colors = [0] * (n * (n - 1) // 2)
    for (u, v), col in zip(oracles.pairs(n), coloring.colors):
        a, b = sorted((perm[u], perm[v]))
        colors[b * (b - 1) // 2 + a] = col
    return cr.EdgeColoring(n, coloring.c, colors)


def witness_make(rng: random.Random):
    perm = list(range(6))
    rng.shuffle(perm)
    randoms = []
    for n, count in RANDOMS:
        for _ in range(count):
            specs = rng.choice((("C4", "K4"), ("K4", "C4")))
            colors = [rng.randrange(2) for _ in range(n * (n - 1) // 2)]
            randoms.append((cr.EdgeColoring(n, 2, colors), specs))
    return {"perm": perm, "top": WITNESS_TOP, "randoms": randoms}


def _step(coloring, specs, extend: bool) -> dict:
    targets = cr.parse_target_sequence(",".join(specs))
    out = {"text": cr.coloring_from_text(cr.coloring_to_text(coloring))}
    try:
        out["verify"] = cr.verify_lower_bound(coloring, targets)
    except cr.BadWitnessError as e:
        out["verify"] = e
    out["graph6"] = []
    for col in range(coloring.c):
        text = cr.graph6_encode(coloring.color_class(col))
        out["graph6"].append((text, cr.graph6_decode(text)))
    if extend:
        out["extend"] = cr.extend_with_disjoint_clique(coloring, targets, 3, 0, 1)
    return out


def _first_step(perm: list[int], top: int) -> dict:
    found = cr.search_coloring(6, cr.parse_target_sequence("C4,K3"))
    if found.witness is None:
        return {"search": found}
    w = _relabel(found.witness, perm)
    return {"search": found, "input": w, **_step(w, ("C4", "K3"), top >= 9)}


def witness_run(inputs, clock):
    """Keys are (kind, N, specs, input coloring); the first step's input
    is the relabeled search witness, returned under "input".  Chain step i
    is followed by every steps-th random coloring from the i-th on."""
    top = inputs["top"]
    steps = (top - 6) // 3 + 1

    def deal(i: int):
        for coloring, specs in inputs["randoms"][i::steps]:
            yield timed(clock, ("random", coloring.n, specs, coloring), _step, coloring, specs, False)

    op = timed(clock, ("chain", 6, ("C4", "K3"), None), _first_step, inputs["perm"], top)
    yield op
    yield from deal(0)
    s, i = 3, 0
    while not isinstance(op.result, Exception) and "extend" in op.result:
        w, s, i = op.result["extend"][0], s + 1, i + 1
        specs = ("C4", f"K{s}")
        op = timed(clock, ("chain", w.n, specs, w), _step, w, specs, w.n + 3 <= top)
        yield op
        yield from deal(i)
    for rest in range(i + 1, steps):  # the chain stopped early
        yield from deal(rest)


def _check_step(report: Report, kind, n, specs, coloring, out: dict) -> list | None:
    """Checks one step; returns [color, target, vertices] for a rejection."""
    classes = oracles.color_classes(n, coloring.c, coloring.colors)
    where = f"{kind} N={n} {','.join(specs)}"
    if out["text"] != coloring:
        report.problem(f"{where}: coloring text round-trip changed the coloring")
    for col, (text, back) in enumerate(out["graph6"]):
        if text != oracles.graph6(n, classes[col]):
            report.problem(f"{where} color {col}: graph6 text differs from the oracle encoder")
        if [{w for w in range(n) if back.adj[v] >> w & 1} for v in range(n)] != classes[col]:
            report.problem(f"{where} color {col}: graph6 round-trip changed the graph")
    fact = out["verify"]
    if kind == "random":
        if not isinstance(fact, cr.BadWitnessError):
            report.problem(f"{where}: a random coloring was accepted: {fact!r}")
            return None
        spec = specs[fact.color] if 0 <= fact.color < len(specs) else None
        if spec is None or str(fact.target) != spec:
            report.problem(f"{where}: names color {fact.color} target {fact.target}")
        elif not oracles.hosts(classes[fact.color], spec, fact.vertices):
            report.problem(f"{where}: vertices {fact.vertices} do not host {spec} in color {fact.color}")
        else:
            return [fact.color, spec, list(fact.vertices)]
        return None
    if isinstance(fact, Exception):
        report.problem(f"{where}: good witness rejected: {fact}")
    elif fact.value != n + 1 or fact.kind != "lower":
        report.problem(f"{where}: fact {fact.to_line()}, expected lower {n + 1}")
    if not oracles.is_good(n, coloring.colors, specs):
        report.problem(f"{where}: chain coloring is not good (oracle)")
    if "extend" in out:
        ext, promoted = out["extend"]
        s = int(specs[1][1:])
        if ext.n != n + 3 or [str(t) for t in promoted] != ["C4", f"K{s + 1}"]:
            report.problem(f"{where}: extension gave N={ext.n}, targets {promoted}")
        elif ext.colors[: len(coloring.colors)] != coloring.colors:
            report.problem(f"{where}: extension changed the old pairs")
    return None


def witness_check(inputs, ops: list[Op], report: Report) -> dict:
    chain, rejected = [], []
    decided = nodes = 0
    for op in ops:
        kind, n, specs, coloring = op.key
        if isinstance(op.result, Exception):
            report.failure(f"{kind} N={n}: raised {type(op.result).__name__}: {op.result}")
            continue
        out = op.result
        if "search" in out:
            if _decided(("C4,K3", 6), out["search"], report):
                decided += 1
                nodes += out["search"].nodes_explored
                if out["search"].status != FEASIBLE:
                    report.problem(f"C4,K3@6: {out['search'].status}, expected feasible")
                    continue
                _witness_good(report, ("C4,K3", 6), out["search"].witness, ["C4", "K3"])
            coloring = out.get("input")
            if coloring is None:
                continue
        rejection = _check_step(report, kind, n, specs, coloring, out)
        if rejection:
            rejected.append(rejection)
        elif kind == "chain" and not isinstance(out["verify"], Exception):
            chain.append(out["verify"].value)
    if len(chain) != (inputs["top"] - 6) // 3 + 1:
        report.problem(f"chain verified N+1 = {chain}, expected up to {inputs['top'] + 1}")
    return {"ops": len(ops), "chain": chain, "rejected": rejected, "search": [1, decided, nodes]}


WORKLOADS = {
    "search-ladder": (ladder_make, ladder_run, ladder_check),
    "partition-batch": (batch_make, batch_run, batch_check),
    "derive-cli": (derive_make, derive_run, derive_check),
    "witness-pipeline": (witness_make, witness_run, witness_check),
}
