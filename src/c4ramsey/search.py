"""Backtracking search for good edge colorings at desk scale.

Edges are assigned in canonical pair order; after each assignment only the
subgraphs through the new edge are checked, so a partial class never
contains its target.  Infeasible is reported only after the full tree has
been enumerated (modulo the declared color-permutation reduction on the
first edge); budget exhaustion is always reported as Unknown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import targets as tg
from .graphs import (
    EdgeColoring,
    SimpleGraph,
    _clique_in,
    contains_target,
    is_good_coloring,
    pair_iter,
)
from .targets import CYCLE4, TargetGraph, clique

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SearchBudget:
    node_limit: int = 50_000_000
    time_limit: float = 600.0

    def __post_init__(self):
        if self.node_limit < 1 or not self.time_limit > 0:  # NaN is not > 0 either
            raise ValueError(f"budget limits must be positive, got {self.node_limit} nodes and {self.time_limit} s")


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # feasible | infeasible | unknown
    nodes_explored: int
    wall_time: float
    witness: Optional[EdgeColoring] = None
    certificate_note: str = ""

    def to_dict(self) -> dict:
        from .graphs import coloring_to_text

        return {
            "status": self.status,
            "nodes": self.nodes_explored,
            "wall_time": self.wall_time,
            "witness": coloring_to_text(self.witness) if self.witness else None,
            "certificate_note": self.certificate_note,
        }


def _effective_target(t: TargetGraph, n: int) -> Optional[TargetGraph]:
    """Reduce a target for an n-vertex search; None means it cannot fit.

    A fitting base + tK1 is present exactly when its base is, and
    with_isolated never makes the base itself a base + sK1."""
    if n < t.vertex_count:
        return None
    return t.base if t.kind == tg.WITH_ISOLATED else t


def _never(adj: list[int], u: int, v: int) -> bool:
    """The test of a target too large to fit: no edge creates it."""
    return False


def _creates_test(t: TargetGraph) -> Callable[[list[int], int, int], int]:
    """Compile target t into a test (adj, u, v) -> truthy.

    The test says whether adding edge uv to the class with adjacency adj
    would create a copy of t.  The class is assumed t-free before the
    addition, so only copies through the new edge need checking.
    """
    kind, k = t.kind, t.k
    if kind == tg.PATH3_KIND:
        return lambda adj, u, v: adj[u] or adj[v]
    if kind == tg.STAR:
        d = k - 1
        return lambda adj, u, v: adj[u].bit_count() >= d or adj[v].bit_count() >= d
    if kind == tg.CYCLE4_KIND:

        def c4(adj, u, v):
            # a new 4-cycle is uv plus a path u-a-b-v already in the class
            rest, av = adj[u], adj[v]
            while rest:
                b = rest & -rest
                if adj[b.bit_length() - 1] & av:
                    return True
                rest ^= b
            return False

        return c4
    if kind == tg.CLIQUE and k == 3:
        return lambda adj, u, v: adj[u] & adj[v]
    if kind == tg.CLIQUE and k == 4:

        def k4(adj, u, v):
            # a new K4 is uv plus an edge among the common neighbours
            rest = adj[u] & adj[v]
            while rest:
                b = rest & -rest
                rest ^= b
                if adj[b.bit_length() - 1] & rest:
                    return True
            return False

        return k4
    if kind == tg.CLIQUE:
        need = k - 2
        return lambda adj, u, v: _clique_in(adj, adj[u] & adj[v], need)
    if kind == tg.BOOK:
        pages = k - 1

        def bk(adj, u, v):
            # spine uv: the pages are the common neighbours of u and v
            common = adj[u] & adj[v]
            if common.bit_count() >= k:
                return True
            # page edge uv: the spine is ux (or vx) and v (or u) is its new
            # page, so x lies in N(u) & N(v).  Spine ux had |N(u) & N(x)|
            # pages before and gains v; the class was B_k-free, so the book
            # appears exactly when that count was k-1.  A neighbour x of u
            # outside N(v) gains no page, so no other x can complete a book.
            au, av = adj[u], adj[v]
            while common:
                b = common & -common
                common ^= b
                ax = adj[b.bit_length() - 1]
                if (au & ax).bit_count() >= pages or (av & ax).bit_count() >= pages:
                    return True
            return False

        return bk
    raise ValueError(f"unsupported incremental target {t}")


def _search_edges(
    n: int,
    edge_list: list[tuple[int, int]],
    targets: Sequence[TargetGraph],
    budget: SearchBudget,
    degree_caps: Optional[Sequence[int]] = None,
) -> tuple[str, Optional[list[int]], int]:
    """Core backtracking over a fixed edge list, as a loop over edge indices.

    Returns (status, assignment or None, nodes).  The assignment is indexed
    parallel to edge_list.  A node is one color tried on one edge.
    """
    targets = list(targets)
    c = len(targets)
    effective = [_effective_target(t, n) for t in targets]
    # an edgeless target that fits is in every color class
    if any(eff is not None and eff.kind == tg.EMPTY for eff in effective):
        return INFEASIBLE, None, 0
    # one slot per color: its compiled target test, its adjacency rows and its
    # degree cap (None: uncapped)
    slots = []
    for col, eff in enumerate(effective):
        test = _creates_test(eff) if eff is not None else _never
        slots.append((test, [0] * n, None if degree_caps is None else degree_caps[col]))
    # color-permutation reduction: on the first edge, only the first color of
    # each group of identical declared targets and degree caps is tried
    groups = targets if degree_caps is None else list(zip(targets, degree_caps))
    first = [i for i, g in enumerate(groups) if groups.index(g) == i]
    every = range(c)
    edges = [(u, v, 1 << u, 1 << v) for u, v in edge_list]
    m = len(edges)
    assignment = [-1] * m
    cursors = []  # cursors[i]: the colors not yet tried on edge i
    colors = iter(first)
    idx = nodes = 0
    node_limit = budget.node_limit
    deadline = time.monotonic() + budget.time_limit
    # the budget is checked at every multiple of 4096 nodes and at node_limit + 1
    check = min(4096, node_limit + 1)
    while idx < m:
        u, v, bu, bv = edges[idx]
        for col in colors:
            nodes += 1
            if nodes >= check:
                if nodes > node_limit or time.monotonic() > deadline:
                    return UNKNOWN, None, nodes
                check = min(check + 4096, node_limit + 1)
            test, a, cap = slots[col]
            if cap is not None and (a[u].bit_count() >= cap or a[v].bit_count() >= cap):
                continue
            if test(a, u, v):
                continue
            a[u] |= bv
            a[v] |= bu
            break
        else:
            # every color failed here: undo the previous edge and resume it
            if idx == 0:
                return INFEASIBLE, None, nodes
            idx -= 1
            colors = cursors.pop()
            u, v, bu, bv = edges[idx]
            a = slots[assignment[idx]][1]
            a[u] ^= bv
            a[v] ^= bu
            continue
        assignment[idx] = col
        cursors.append(colors)
        colors = iter(every)
        idx += 1
    return FEASIBLE, assignment, nodes


def search_coloring(
    n: int,
    targets: Sequence[TargetGraph],
    budget: Optional[SearchBudget] = None,
    degree_caps: Optional[Sequence[int]] = None,
) -> SearchOutcome:
    """Search for a good coloring of K_n avoiding targets[i] in color i."""
    if not 1 <= n <= 128:
        raise ValueError(f"n must be in [1, 128], got {n}")
    budget = budget or SearchBudget()
    start = time.monotonic()
    if degree_caps is not None:
        if len(degree_caps) != len(targets):
            raise ValueError(f"need {len(targets)} degree caps, got {len(degree_caps)}")
        if any(cap < 0 for cap in degree_caps):
            raise ValueError(f"degree caps must be >= 0, got {list(degree_caps)}")
        # counting cut: each vertex has n-1 edges and color i takes at most
        # degree_caps[i] of them, so no coloring exists when the caps sum lower
        if sum(degree_caps) < n - 1:
            return SearchOutcome(
                INFEASIBLE, 0, time.monotonic() - start, None,
                f"degree caps sum to {sum(degree_caps)} < n - 1 = {n - 1}",
            )
    edge_list = list(pair_iter(n))
    status, assignment, nodes = _search_edges(n, edge_list, targets, budget, degree_caps)
    wall = time.monotonic() - start
    # edge_list is the canonical pair order, so assignment is the coloring
    witness = EdgeColoring(n, len(targets), assignment) if status == FEASIBLE else None
    return _finished(status, nodes, wall, witness, list(targets), "witness verified",
                     "exhaustive modulo first-edge color-permutation reduction")


def _finished(status: str, nodes: int, wall: float, witness: Optional[EdgeColoring],
              targets: list[TargetGraph], found: str, exhausted: str) -> SearchOutcome:
    """The outcome of a search that ran: the witness of a feasible one,
    re-verified good for targets first, with the note found; an infeasible
    one with the note exhausted."""
    if status == FEASIBLE:
        if not is_good_coloring(witness, targets):
            raise RuntimeError("internal error: search produced a bad witness")
        return SearchOutcome(FEASIBLE, nodes, wall, witness, found)
    return SearchOutcome(status, nodes, wall, None, exhausted if status == INFEASIBLE else "budget exhausted")


def ramsey_by_search(
    targets: Sequence[TargetGraph],
    n_min: int,
    n_max: int,
    budget: Optional[SearchBudget] = None,
) -> dict[int, SearchOutcome]:
    """Per-N search outcomes over [n_min, n_max]."""
    if not 1 <= n_min <= n_max <= 128:
        raise ValueError(f"bad range [{n_min}, {n_max}]")
    return {
        n: search_coloring(n, targets, budget) for n in range(n_min, n_max + 1)
    }


def computed_ramsey(outcomes: dict[int, SearchOutcome]) -> Optional[int]:
    """Least infeasible N when all smaller N in range are feasible, else None."""
    for n in sorted(outcomes):
        st = outcomes[n].status
        if st == INFEASIBLE:
            return n
        if st != FEASIBLE:
            return None
    return None


def partition_check(
    g: SimpleGraph,
    pair_targets: tuple[TargetGraph, TargetGraph] = (clique(3), clique(4)),
    budget: Optional[SearchBudget] = None,
) -> SearchOutcome:
    """Can g's non-edges be split into two classes avoiding the pair targets?

    g must be C4-free.  A feasible outcome carries the full 3-colored
    witness (g's edges in color 0, the split in colors 1 and 2), verified
    good for (C4, pair_targets[0], pair_targets[1]).
    """
    if contains_target(g, CYCLE4):
        raise ValueError("input graph contains a C4; partition kernel requires C4-free input")
    budget = budget or SearchBudget()
    start = time.monotonic()
    comp_edges = g.complement().edges()
    status, assignment, nodes = _search_edges(g.n, comp_edges, pair_targets, budget)
    wall = time.monotonic() - start
    witness = None
    if status == FEASIBLE:
        # g's edges in color 0; comp_edges lists the non-edges in pair order
        split = iter(assignment)
        adj = g.adj
        witness = EdgeColoring(
            g.n, 3, [0 if adj[u] >> v & 1 else next(split) + 1 for u, v in pair_iter(g.n)]
        )
    swap = " modulo first-edge color swap" if pair_targets[0] == pair_targets[1] else ""
    return _finished(status, nodes, wall, witness, [CYCLE4, pair_targets[0], pair_targets[1]],
                     "3-colored witness verified", "exhaustive over all non-edge splits" + swap)

