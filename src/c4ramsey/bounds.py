"""Exact-integer evaluation of the upper-bound formulas.

Everything here is integer arithmetic: the ceil(m * sqrt(...)) terms are
rewritten as integer square roots of integer radicands, because the bounds
sit exactly on floor/ceil boundaries (sqrt(36), sqrt(49), ...) where any
floating-point rounding would be wrong.  Python ints are exact at any size,
so no bound has a width limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

def isqrt_floor(x: int) -> int:
    """floor(sqrt(x)) for x >= 0."""
    if x < 0:
        raise ValueError(f"negative input {x}")
    return math.isqrt(x)


def isqrt_ceil(x: int) -> int:
    """ceil(sqrt(x)): the smallest c with c*c >= x."""
    if x < 0:
        raise ValueError(f"negative input {x}")
    if x == 0:
        return 0
    return math.isqrt(x - 1) + 1


@dataclass(frozen=True)
class BoundQuery:
    """Parameters (m, r_1..r_n) of the bound formulas; n = len(r)."""

    m: int
    r: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(self.r))
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        for ri in self.r:
            if ri < 1:
                raise ValueError(f"r_i must be >= 1, got {ri}")

    @property
    def n(self) -> int:
        return len(self.r)

    @property
    def s(self) -> int:
        """sum(r_i) - n, the quantity every formula is built from."""
        return sum(self.r) - self.n


def theorem_mt_bound(q: BoundQuery) -> int:
    """Main upper bound: sum r_i - n + 1 + (m^2+m)/2 + ceil(m sqrt((m+1)^2/4 + S)).

    The paper's corollaries are this bound on their own r: Parsons' star
    bound R(C4,K_{1,k}) <= k + ceil(sqrt(k)) + 1 is m = 1, r = (k,); the book
    bound R(C4,B_k) <= s + ceil(sqrt(s)) + 1 is m = 1, r = (s,), s an upper
    bound on R(C4,K_{1,k}); the multicolor star bound is r = (k_1..k_n).
    """
    m, s = q.m, q.s
    if m == 1 and s < 1:
        if not q.r:
            raise ValueError("m=1 needs some r_i > 1, and no r_i was given")
        raise ValueError(
            "m=1 with all r_i=1 is excluded (some non-C4 target must exceed K2)"
        )
    # ceil(m * sqrt((m+1)^2/4 + s)) = ceil(sqrt(m^2 (m+1)^2 / 4 + m^2 s)),
    # and m^2 (m+1)^2 / 4 = (m(m+1)/2)^2 is an exact integer.
    return s + 1 + m * (m + 1) // 2 + isqrt_ceil((m * (m + 1) // 2) ** 2 + m * m * s)


def lemma_p3_bound(q: BoundQuery) -> int:
    """The P3-headed variant; always theorem_mt_bound(q) - 1."""
    return theorem_mt_bound(q) - 1


def lemma2_bound(q: BoundQuery) -> int:
    """A floor-form bound: s + 3 + m(m-1)/2 + floor(sqrt((m(m-1)/2)^2 + (m-1)^2 (s+1))).

    Its value is at most lemma_p3_bound's: on m = 1..7 with up to three r_i
    in 1, 4, ..., 37 it is below on 16,650 inputs and equal on 6 (m = 1,
    r = (7,) gives 9 against 10), and
    tests/test_bounds.py::TestLemmaBounds::test_p3_is_mt_minus_one_on_grid
    asserts lemma_p3_bound >= lemma2_bound.  PAPER.md holds only the
    abstract and names neither the target list this bounds nor the one
    lemma_p3_bound bounds, so the two are not known to bound the same list,
    and derive uses neither.
    """
    m, s = q.m, q.s
    radicand = (m * (m - 1) // 2) ** 2 + (m - 1) ** 2 * (s + 1)
    return s + 3 + m * (m - 1) // 2 + isqrt_floor(radicand)
