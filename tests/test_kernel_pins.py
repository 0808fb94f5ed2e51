"""Search outcomes pinned on paths of the search kernel that
tests/data/split_sweep.json does not reach, and the degree caps the kernel
folds into its target tests checked against brute force.

tests/data/kernel_pins.json holds, per case, the status, node count and
witness (its colors as one digit string) that search_coloring or
partition_check gave before the kernel was generated from source:

- K5 and K6 targets, whose test goes through graphs._clique_in;
- targets too large for n, which get no test (one with binding caps);
- first-edge color lists with a gap or a cut tail (K3,K3,C4 tries colors 0
  and 2 on the first edge, C4,K3,C4 colors 0 and 1);
- P3 and B2 with binding degree caps;
- pairs of lists that differ only in their declared groups of identical
  targets and caps, which the first-edge reduction sees (see PAIRS),
  recorded before the reduction was compiled into the kernel;
- pairs of lists that differ only in n or only in the degree caps, which
  the kernel cache must tell apart (see KEY_PAIRS), recorded before
  that cache was keyed by them;
- the partition pairs (K5, K3) and (S4, B3);
- K4,C4,B2 at n = 15 and C4,B4,K4 at n = 16, whose C4, K4 and book tests
  scan with bit loops rather than tables (n above search._TABLE_N),
  recorded before the tables came in.

Regenerate with `PYTHONPATH=src python tests/test_kernel_pins.py` (it
prints the JSON) only on purpose: the file pins what kernel changes must
keep.
"""

import json
import random
from pathlib import Path

import pytest

from c4ramsey import SearchBudget, SimpleGraph, graph6_decode, partition_check, search, search_coloring
from c4ramsey.graphs import pair_iter
from c4ramsey.targets import CYCLE4, book, clique, parse_target_sequence, star

from conftest import brute_contains, spread

PINS_PATH = Path(__file__).parent / "data" / "kernel_pins.json"

# (n, targets, degree caps, node limit) for search_coloring
SEARCHES = [
    (6, "K5,K3", None, None),
    (6, "K3,K5", None, None),
    (6, "C4,K6", None, None),
    (6, "K6,K6", None, None),
    (9, "P3,K5", None, None),
    (11, "P3,K6", None, None),
    (10, "C4,K5", None, None),
    (14, "K5,K5", None, None),
    (13, "K3,K5", None, 100_000),
    (6, "C4,K7", None, None),
    (6, "S6,C4", None, None),
    (5, "C4,B4", None, None),
    (6, "K3,K8,C4", None, None),
    (6, "C4,K7", [5, 2], None),
    (5, "P3,P3,K3", None, None),
    (5, "P3,K3,P3", None, None),
    (5, "K3,K3,C4", None, None),
    (6, "K3,K3,C4", None, None),
    (12, "K3,K3,C4", None, None),
    (5, "C4,K3,C4", None, None),
    (10, "C4,K3,C4", None, None),
    (8, "C4,P3,C4", None, None),
    (11, "C4,K3,C4", None, 50_000),
    (7, "P3,K4", [1, 5], None),
    (5, "P3,B2", [1, 3], None),
    (6, "P3,K4", [1, 4], None),
    (8, "P3,B2", [1, 6], None),
    (6, "B2,C4", [3, 3], None),
    (7, "B2,K3", [4, 4], None),
    (6, "B2,P3", [4, 1], None),
    (9, "B2,C4", [4, 6], None),
    (6, "C4,C4", [5, 5], None),
    (6, "C4,C4", [5, 6], None),
    (7, "K3,K3", None, None),
    (7, "K3,K3+1K1", None, None),
    (6, "C4,C4", [3, 3], None),
    (6, "C4,C4", [3, 4], None),
    (4, "K5,C4", None, None),
    (6, "K5,C4", None, None),
    (7, "C4,K4", [2, 6], None),
    (7, "C4,K4", [3, 6], None),
    (15, "K4,C4,B2", None, None),
    (16, "C4,B4,K4", None, None),
]

# SEARCHES indices of pairs where only the first list has a repeated declared
# group.  In the first two the colors' effective targets and binding caps
# agree as well (a cap of n - 1 or more binds no more than none, and K3+1K1
# searches as K3), so only the reduction tells their kernels apart.
PAIRS = [(31, 32), (33, 34), (35, 36)]

# SEARCHES indices of pairs that differ only in n or only in the degree caps,
# which the kernel cache must tell apart: K5 fits on 6 vertices and
# not on 4, where color 0 refuses no edge, and cap 2 or 3 binds color 0.
KEY_PAIRS = [(37, 38), (39, 40)]

# (graph6, pair targets, node limit) for partition_check; "E???" and "H??????"
# are the edgeless graphs on 6 and 9 vertices
PARTITIONS = [
    ("E???", "K5,K3", None),
    ("E???", "S4,B3", None),
    ("Ka__Q?AwCWIs", "K5,K3", None),
    ("Ka__Q?AwCWIs", "S4,B3", None),
    ("JySKGcB_`@?", "K5,K3", None),
    ("JySKGcB_`@?", "S4,B3", None),
    ("GmOJ@G", "S4,B3", None),
    ("H??????", "K5,K3", None),
    ("H??????", "K3,K5", None),
    ("H??????", "S4,B3", 50_000),
]


def _witness(out):
    return "".join(map(str, out.witness.colors)) if out.witness else None


def _budget(node_limit):
    return SearchBudget(node_limit=node_limit) if node_limit else None


def _search(n, targets, caps, node_limit):
    out = search_coloring(n, parse_target_sequence(targets), _budget(node_limit), caps)
    return {"status": out.status, "nodes": out.nodes_explored, "witness": _witness(out)}, out.witness


def _partition(g6, targets, node_limit):
    out = partition_check(graph6_decode(g6), tuple(parse_target_sequence(targets)), _budget(node_limit))
    return {"status": out.status, "nodes": out.nodes_explored, "witness": _witness(out)}, out.witness


def _record():
    return {
        "search": [{"n": n, "targets": t, "caps": caps, "node_limit": limit, **_search(n, t, caps, limit)[0]}
                   for n, t, caps, limit in SEARCHES],
        "partition": [{"graph6": g6, "targets": t, "node_limit": limit, **_partition(g6, t, limit)[0]}
                      for g6, t, limit in PARTITIONS],
    }


PINS = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {"search": [], "partition": []}


def _classes_avoid(witness, targets):
    """Brute-force check of each color class of a small witness."""
    for i, t in enumerate(targets):
        g = SimpleGraph(witness.n, witness.color_class(i).edges())
        assert not brute_contains(g, t), (i, t)


def test_pins_cover_the_cases():
    assert [(r["n"], r["targets"], r["caps"], r["node_limit"]) for r in PINS["search"]] == SEARCHES
    assert [(r["graph6"], r["targets"], r["node_limit"]) for r in PINS["partition"]] == PARTITIONS


@pytest.mark.parametrize("rec", PINS["search"], ids=lambda r: f"{r['targets']}@{r['n']}:{r['caps']}:{r['node_limit']}")
def test_search_matches_pin(rec):
    got, witness = _search(rec["n"], rec["targets"], rec["caps"], rec["node_limit"])
    assert got == {k: rec[k] for k in ("status", "nodes", "witness")}
    if witness is not None and rec["n"] <= 6:
        _classes_avoid(witness, parse_target_sequence(rec["targets"]))


@pytest.mark.parametrize("rec", PINS["partition"], ids=lambda r: f"{r['graph6']}:{r['targets']}:{r['node_limit']}")
def test_partition_matches_pin(rec):
    got, witness = _partition(rec["graph6"], rec["targets"], rec["node_limit"])
    assert got == {k: rec[k] for k in ("status", "nodes", "witness")}
    if witness is not None and witness.n <= 6:
        _classes_avoid(witness, [CYCLE4, *parse_target_sequence(rec["targets"])])


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("pair", PAIRS)
def test_kernel_cache_tells_declared_groups_apart(pair, order):
    # both lists run in one process, from a cold cache: a kernel reused
    # across them would try the wrong colors on the first edge
    _run_from_cold_caches(pair[::-1] if order else pair)


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("pair", KEY_PAIRS)
def test_kernel_cache_tells_n_and_caps_apart(pair, order):
    # a kernel reused across n would test K5 on 4 vertices or skip it on 6
    # (a K6 in color 0, a bad witness); across caps, cap the wrong degree
    _run_from_cold_caches(pair[::-1] if order else pair)


def _run_from_cold_caches(indices):
    """The SEARCHES records at indices, run in order in this process from
    a cleared kernel cache, each against its pin."""
    search._kernel.cache_clear()
    for i in indices:
        rec = PINS["search"][i]
        got = _search(rec["n"], rec["targets"], rec["caps"], rec["node_limit"])[0]
        assert got == {k: rec[k] for k in ("status", "nodes", "witness")}


@pytest.mark.parametrize("n", [1, 2, 4])
def test_no_targets_is_refused(n):
    with pytest.raises(ValueError, match="need at least one target"):
        search_coloring(n, [])


def test_more_than_256_targets_are_refused_before_a_kernel_is_built():
    # a coloring has at most 256 colors, one byte a pair
    before = search._kernel.cache_info()
    with pytest.raises(ValueError, match=r"^need at most 256 targets \(one per color\), got 257$"):
        search_coloring(5, [clique(3)] * 257)
    assert search._kernel.cache_info() == before


@pytest.mark.parametrize("ns", [(5, 7), (15, 16)], ids=["tables", "loops"])
@pytest.mark.parametrize("cap", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("target", [CYCLE4, star(2), clique(3), clique(4), clique(5), star(3), book(2), None], ids=str)
def test_capped_test_matches_brute_force(target, cap, ns):
    # the kernel's test of a color with a binding cap, compiled on its own
    # for n vertices, n drawn from ns: uv is refused when it creates the
    # target (None: a target too large to fit, never created) or gives u or
    # v more than cap edges.  The graph has 5 to 7 vertices, spread over n.
    rng = random.Random(f"capped-{target}-{cap}-{ns}")
    answers = set()
    for round_ in range(6):
        n = rng.randint(*ns)
        test = search._test_function(search._snippet(target, cap), n)
        label = rng.sample(range(n), rng.randint(5, min(n, 7)))
        g = SimpleGraph(len(label))
        pairs = list(pair_iter(g.n))
        rng.shuffle(pairs)
        for u, v in pairs:
            grown = g.copy()
            grown.add_edge(u, v)
            over_cap = max(grown.degree(u), grown.degree(v)) > cap
            refused = over_cap or (target is not None and brute_contains(grown, target))
            assert test(spread(g, label, n), label[u], label[v]) == refused
            answers.add(refused)
            if not refused and rng.random() < (1.0 if round_ % 2 else 0.7):
                g = grown
    assert answers == ({True} if cap == 0 else {True, False})


if __name__ == "__main__":
    pins = _record()
    print("{")
    for key in ("search", "partition"):
        print(f' "{key}": [')
        print(",\n".join("  " + json.dumps(r) for r in pins[key]))
        print(" ]" + ("," if key == "search" else ""))
    print("}")
