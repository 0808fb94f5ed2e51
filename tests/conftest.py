"""Shared helpers: independent brute-force oracles and small fixtures."""

from __future__ import annotations

import itertools
import random

import pytest

from c4ramsey import EdgeColoring, SimpleGraph
from c4ramsey import targets as tg
from c4ramsey.graphs import pair_iter


def oracle_vertex_count(t) -> int:
    """Target order, computed from the combinatorial definitions only."""
    return {
        tg.CLIQUE: t.k,
        tg.CYCLE4_KIND: 4,
        tg.STAR: t.k + 1,
        tg.BOOK: t.k + 2,
        tg.EMPTY: t.k,
    }[t.kind] if t.kind != tg.WITH_ISOLATED else oracle_vertex_count(t.base) + t.k


def oracle_edges(t) -> list[tuple[int, int]]:
    """Target edge lists, written out independently of the library."""
    if t.kind == tg.CLIQUE:
        return list(itertools.combinations(range(t.k), 2))
    if t.kind == tg.CYCLE4_KIND:
        return [(0, 1), (1, 2), (2, 3), (3, 0)]
    if t.kind == tg.STAR:
        return [(0, i + 1) for i in range(t.k)]
    if t.kind == tg.BOOK:
        return [(0, 1)] + [(s, p) for p in range(2, t.k + 2) for s in (0, 1)]
    if t.kind == tg.EMPTY:
        return []
    if t.kind == tg.WITH_ISOLATED:
        return oracle_edges(t.base)
    raise ValueError(t)


def brute_first_copy(g: SimpleGraph, t):
    """The first vertex tuple, in itertools.permutations order, hosting t."""
    edges = oracle_edges(t)
    for perm in itertools.permutations(range(g.n), oracle_vertex_count(t)):
        if all(g.has_edge(perm[a], perm[b]) for (a, b) in edges):
            return perm
    return None


def brute_contains(g: SimpleGraph, t) -> bool:
    """Subgraph containment by enumerating all vertex injections."""
    return brute_first_copy(g, t) is not None


def spread(g: SimpleGraph, label: list[int], n: int) -> list[int]:
    """The adjacency rows of g placed on n vertices, vertex i at label[i]."""
    adj = [0] * n
    for u, v in g.edges():
        adj[label[u]] |= 1 << label[v]
        adj[label[v]] |= 1 << label[u]
    return adj


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> SimpleGraph:
    g = SimpleGraph(n)
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            g.add_edge(u, v)
    return g


def two_five_cycles() -> EdgeColoring:
    """K5 split into two edge-disjoint Hamiltonian 5-cycles."""
    cycle = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    return EdgeColoring(5, 2, [0 if pair in cycle else 1 for pair in pair_iter(5)])


@pytest.fixture
def k5_two_cycles():
    return two_five_cycles()
