"""partition_check against outcomes recorded from an earlier kernel.

tests/data/partition_sweep.json holds 300 seeded random maximal C4-free
graphs with n = 8..12 (as graph6), each with a pair of targets and a node
limit, and the outcome partition_check gave: status, node count and the
sha256 of the witness's coloring text.  About one run in five has a node
limit below the nodes its search needs, so it stops unknown.  Regenerate
with `PYTHONPATH=src python tests/test_partition_sweep.py` (it prints the
JSON) only on purpose: the file pins what changes to the kernel must keep.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from c4ramsey import SearchBudget, SimpleGraph, coloring_to_text, graph6_decode, graph6_encode, partition_check
from c4ramsey.graphs import pair_iter
from c4ramsey.targets import parse_target_sequence

SWEEP_PATH = Path(__file__).parent / "data" / "partition_sweep.json"
PAIRS = ("K3,K4", "K3,K3", "P3,K3", "S3,K4", "B2,K3", "K3+1K1,K4")
NODE_LIMIT = 50_000


def _outcome(g6, targets, node_limit):
    out = partition_check(graph6_decode(g6), tuple(parse_target_sequence(targets)), SearchBudget(node_limit=node_limit))
    witness = hashlib.sha256(coloring_to_text(out.witness).encode()).hexdigest() if out.witness else None
    return {"status": out.status, "nodes": out.nodes_explored, "witness": witness}


def _maximal_c4_free(rng, n):
    """Add the pairs in random order, each unless it closes a 4-cycle: a path
    u-a-b-v already present."""
    g = SimpleGraph(n)
    pairs = list(pair_iter(n))
    rng.shuffle(pairs)
    adj = g.adj
    for u, v in pairs:
        if not any(adj[a] & adj[v] & ~(1 << u) for a in range(n) if adj[u] >> a & 1):
            g.add_edge(u, v)
    return g


def _record(count=300, seed=21):
    rng = random.Random(seed)
    records = []
    for _ in range(count):
        g6 = graph6_encode(_maximal_c4_free(rng, rng.randint(8, 12)))
        targets = rng.choice(PAIRS)
        limit = NODE_LIMIT
        if rng.random() < 0.2:
            nodes = _outcome(g6, targets, limit)["nodes"]
            limit = rng.randint(1, max(1, min(nodes, limit + 1) - 1))
        records.append({"graph6": g6, "targets": targets, "node_limit": limit, **_outcome(g6, targets, limit)})
    return records


SWEEP = json.loads(SWEEP_PATH.read_text()) if SWEEP_PATH.exists() else []


def test_sweep_covers_every_pair_and_status():
    assert len(SWEEP) == 300
    assert {rec["targets"] for rec in SWEEP} == set(PAIRS)
    assert {rec["status"] for rec in SWEEP} == {"feasible", "infeasible", "unknown"}
    assert {graph6_decode(rec["graph6"]).n for rec in SWEEP} == set(range(8, 13))
    assert sum(rec["node_limit"] < NODE_LIMIT for rec in SWEEP) >= 40


@pytest.mark.parametrize("start", range(0, 300, 50))
def test_sweep_outcomes_are_reproduced(start):
    for rec in SWEEP[start:start + 50]:
        assert _outcome(rec["graph6"], rec["targets"], rec["node_limit"]) == {
            key: rec[key] for key in ("status", "nodes", "witness")
        }, rec


if __name__ == "__main__":
    print("[\n" + ",\n".join(json.dumps(rec, separators=(",", ":")) for rec in _record()) + "\n]")
