"""Output checks written apart from the library.

Nothing here calls c4ramsey: colorings are read as flat color lists in the
documented canonical pair order, and targets are the spec strings the
workloads pass in ("C4", "K5", "S5", "B3").  A check that reused the
library's own containment code would pass whatever that code got wrong.
"""

from __future__ import annotations

import itertools


def pairs(n: int):
    """Vertex pairs in the canonical order: (0,1), (0,2), (1,2), (0,3), ..."""
    for v in range(1, n):
        for u in range(v):
            yield u, v


def color_classes(n: int, c: int, colors) -> list[list[set[int]]]:
    """Neighbor sets per color from a flat color list in canonical pair order."""
    classes = [[set() for _ in range(n)] for _ in range(c)]
    for (u, v), col in zip(pairs(n), colors):
        if not 0 <= col < c:
            raise ValueError(f"pair {u} {v} has color {col} outside [0, {c})")
        classes[col][u].add(v)
        classes[col][v].add(u)
    return classes


def target_edges(spec: str) -> list[tuple[int, int]]:
    """Edges of the target on vertices 0..order-1."""
    kind, k = spec[0], int(spec[1:])
    if spec == "C4":
        return [(0, 1), (1, 2), (2, 3), (3, 0)]
    if kind == "K":
        return list(itertools.combinations(range(k), 2))
    if kind == "S":
        return [(0, i) for i in range(1, k + 1)]
    if kind == "B":
        return [(0, 1)] + [(s, p) for p in range(2, k + 2) for s in (0, 1)]
    raise ValueError(f"no oracle for target {spec!r}")


def target_order(spec: str) -> int:
    return 1 + max(max(e) for e in target_edges(spec))


def contains(adj: list[set[int]], spec: str) -> bool:
    """Subgraph containment from the definitions of each target kind."""
    kind, k = spec[0], int(spec[1:])
    n = len(adj)
    if spec == "C4":
        return any(len(adj[u] & adj[v]) >= 2 for u, v in pairs(n))
    if kind == "S":
        return any(len(a) >= k for a in adj)
    if kind == "B":
        return any(len(adj[u] & adj[v]) >= k for u, v in pairs(n) if v in adj[u])
    if kind == "K":
        return _has_clique(adj, set(range(n)), k)
    raise ValueError(f"no oracle for target {spec!r}")


def _has_clique(adj: list[set[int]], cand: set[int], k: int) -> bool:
    if k == 0:
        return True
    for v in sorted(cand):
        if len(cand) < k:
            return False
        cand = cand - {v}
        if _has_clique(adj, cand & adj[v], k - 1):
            return True
    return False


def is_good(n: int, colors, specs) -> bool:
    """No color class i contains its target specs[i]."""
    classes = color_classes(n, len(specs), colors)
    return not any(contains(adj, spec) for adj, spec in zip(classes, specs))


def hosts(adj: list[set[int]], spec: str, vertices) -> bool:
    """Do the named vertices carry a copy of the target, in some order?"""
    vertices = list(vertices)
    if len(set(vertices)) != len(vertices) or len(vertices) != target_order(spec):
        return False
    if any(not 0 <= v < len(adj) for v in vertices):
        return False
    edges = target_edges(spec)
    return any(
        all(perm[b] in adj[perm[a]] for a, b in edges)
        for perm in itertools.permutations(vertices)
    )


def graph6(n: int, adj: list[set[int]]) -> str:
    """graph6 text of a graph on n <= 62 vertices, or up to 258047 with the long header."""
    if n <= 62:
        head = [n]
    else:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    bits = [1 if v in adj[u] else 0 for u, v in pairs(n)]
    bits += [0] * (-len(bits) % 6)
    body = [
        int("".join(map(str, bits[i : i + 6])), 2) for i in range(0, len(bits), 6)
    ]
    return "".join(chr(x + 63) for x in head + body)
