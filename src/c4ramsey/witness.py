"""Lower-bound witness verification and transformations."""

from __future__ import annotations

from typing import Sequence

from .graphs import EdgeColoring, find_target_copy, is_good_coloring
from .registry import RamseyFact
from .targets import CYCLE4_KIND, CLIQUE, TargetGraph, TargetList, clique


class BadWitnessError(ValueError):
    """The coloring contains a monochromatic target copy."""

    def __init__(self, color: int, target: TargetGraph, vertices: tuple[int, ...]):
        self.color = color
        self.target = target
        self.vertices = vertices
        super().__init__(
            f"color {color} contains a {target} on vertices {list(vertices)}"
        )


def verify_lower_bound(
    witness: EdgeColoring, targets: Sequence[TargetGraph], source: str = "witness"
) -> RamseyFact:
    """Certify R(targets) >= N+1 from a good coloring of K_N.

    Raises BadWitnessError otherwise, naming the lexicographically first
    violating copy (graphs.find_target_copy) in the lowest bad color.
    """
    targets = list(targets)
    if len(targets) != witness.c:
        raise ValueError(f"need {witness.c} targets, got {len(targets)}")
    if not witness.is_complete():
        raise ValueError("witness coloring is incomplete")
    for i, t in enumerate(targets):
        copy = find_target_copy(witness.color_class(i), t)
        if copy is not None:
            raise BadWitnessError(i, t, copy)
    return lower_bound_fact(targets, witness.n, source)


def lower_bound_fact(targets: Sequence[TargetGraph], n: int, source: str) -> RamseyFact:
    """The fact R(targets) >= n+1 that a verified good coloring of K_n gives."""
    return RamseyFact(
        targets=TargetList(tuple(targets)),
        kind="lower",
        value=n + 1,
        citation=f"computed: {source}",
        trust="computational",
    )


def extend_with_disjoint_clique(
    witness: EdgeColoring,
    targets: Sequence[TargetGraph],
    k: int,
    c4_color: int,
    clique_color_target: int,
) -> tuple[EdgeColoring, list[TargetGraph]]:
    """Grow a good (C4,...,K_s,...)-witness into one for K_{s+1}.

    Adds k new vertices forming a clique in the C4-free color (k is 2 or 3:
    a K4 holds a C4, so any larger k is refused before anything is built)
    with all cross edges in the promoted clique's color.  Returns the
    extended coloring and the promoted target list; the result is
    re-verified before returning.
    """
    targets = list(targets)
    if len(targets) != witness.c:
        raise ValueError(f"need {witness.c} targets, got {len(targets)}")
    if k not in (2, 3):
        raise ValueError(f"extension clique must have k = 2 or 3 (a K4 holds a C4), got {k}")
    for role in (c4_color, clique_color_target):
        if not 0 <= role < witness.c:
            raise ValueError(f"color {role} is not in 0..{witness.c - 1}")
    if c4_color == clique_color_target:
        raise ValueError("the two color roles must differ")
    if targets[c4_color].kind != CYCLE4_KIND:
        raise ValueError(f"color {c4_color} target is {targets[c4_color]}, expected C4")
    tgt = targets[clique_color_target]
    if tgt.kind != CLIQUE:
        raise ValueError(
            f"color {clique_color_target} target is {tgt}, expected a clique"
        )
    if not is_good_coloring(witness, targets):
        raise ValueError("input coloring is not good for the stated targets")

    n = witness.n
    # new vertex a's column, pairs (0, a) .. (a-1, a), follows the old ones
    colors = list(witness.colors)
    for a in range(n, n + k):
        colors += [clique_color_target] * n + [c4_color] * (a - n)
    out = EdgeColoring(n + k, witness.c, colors)
    promoted = list(targets)
    promoted[clique_color_target] = clique(tgt.k + 1)
    verify_lower_bound(out, promoted, source="disjoint-clique extension")
    return out, promoted
