"""Exact-integer evaluation of Theorem MT, the package's one bound formula.

Every bound the paper's abstract states follows from Theorem MT on some
(m, r_1..r_n), so `derive` and `bound --m M --r R..` both evaluate
`theorem_mt_bound`.  Its ceil(m * sqrt(...)) term is rewritten as the
integer square root of an integer radicand, because the bounds sit exactly
on ceiling boundaries (sqrt(36), sqrt(49), ...) where any floating-point
rounding would be wrong.  Python ints are exact at any size, so no bound
has a width limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def isqrt_ceil(x: int) -> int:
    """ceil(sqrt(x)): the smallest c with c*c >= x."""
    if x < 0:
        raise ValueError(f"negative input {x}")
    if x == 0:
        return 0
    return math.isqrt(x - 1) + 1


@dataclass(frozen=True)
class BoundQuery:
    """Parameters (m, r_1..r_n) of Theorem MT; n = len(r)."""

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
        """sum(r_i) - n, the quantity Theorem MT is built from."""
        return sum(self.r) - self.n


def theorem_mt_bound(q: BoundQuery) -> int:
    """Main upper bound: sum r_i - n + 1 + (m^2+m)/2 + ceil(m sqrt((m+1)^2/4 + S)).

    The paper's corollaries are this bound on their own r: Parsons' star
    bound R(C4,K_{1,k}) <= k + ceil(sqrt(k)) + 1 is m = 1, r = (k,); the book
    bound R(C4,B_k) <= s + ceil(sqrt(s)) + 1 is m = 1, r = (s,), s an upper
    bound on R(C4,K_{1,k}), which `derive` takes from Parsons' bound or a
    registry fact; the multicolor star bound is r = (k_1..k_n).
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
