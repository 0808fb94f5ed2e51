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
from typing import Sequence

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
        if self.m < 0:
            raise ValueError(f"m must be >= 0, got {self.m}")
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


def _require_mt_preconditions(q: BoundQuery) -> None:
    if q.m < 1:
        raise ValueError(f"m must be >= 1, got {q.m}")
    if q.m == 1 and q.s < 1:
        if not q.r:
            raise ValueError("m=1 needs some r_i > 1, and no r_i was given")
        raise ValueError(
            "m=1 with all r_i=1 is excluded (some non-C4 target must exceed K2)"
        )


def _ceil_m_sqrt_term(m: int, s: int) -> int:
    # ceil(m * sqrt((m+1)^2/4 + s)) = ceil(sqrt(m^2 (m+1)^2 / 4 + m^2 s)),
    # and m^2 (m+1)^2 / 4 = (m(m+1)/2)^2 is an exact integer.
    return isqrt_ceil((m * (m + 1) // 2) ** 2 + m * m * s)


def theorem_mt_bound(q: BoundQuery) -> int:
    """Main upper bound: sum r_i - n + 1 + (m^2+m)/2 + ceil(m sqrt((m+1)^2/4 + S))."""
    _require_mt_preconditions(q)
    return q.s + 1 + q.m * (q.m + 1) // 2 + _ceil_m_sqrt_term(q.m, q.s)


def lemma_p3_bound(q: BoundQuery) -> int:
    """The P3-headed variant; always theorem_mt_bound(q) - 1."""
    _require_mt_preconditions(q)
    return q.s + q.m * (q.m + 1) // 2 + _ceil_m_sqrt_term(q.m, q.s)


def lemma2_bound(q: BoundQuery) -> int:
    """The weaker floor-form bound the P3 variant improves on."""
    if q.m < 1:
        raise ValueError(f"m must be >= 1, got {q.m}")
    m, s = q.m, q.s
    radicand = (m * (m - 1) // 2) ** 2 + (m - 1) ** 2 * (s + 1)
    return s + 3 + m * (m - 1) // 2 + isqrt_floor(radicand)


def parsons_bound(k: int) -> int:
    """Upper bound k + ceil(sqrt(k)) + 1 for one C4 versus the star K_{1,k}."""
    if k < 2:
        raise ValueError(f"star bound needs k >= 2, got {k}")
    return k + isqrt_ceil(k) + 1


def book_bound(k: int, star_fact=None) -> int:
    """Upper bound s + ceil(sqrt(s)) + 1 for one C4 versus the book B_k:
    Theorem MT with the one r_1 = s, an upper bound on R(C4, K_{1,k}).

    star_fact, if given, must be an exact or upper RamseyFact for
    (C4, S<k>); s is the smaller of its value and Parsons'.
    """
    if k < 2:
        raise ValueError(f"book bound needs k >= 2, got {k}")
    s = parsons_bound(k)
    if star_fact is not None:
        from .targets import CYCLE4, TargetList, star

        expected = TargetList((CYCLE4, star(k))).key()
        if star_fact.targets.key() != expected:
            raise ValueError(
                f"star fact is for {star_fact.targets.key()}, expected {expected}"
            )
        if star_fact.kind not in ("exact", "upper"):
            raise ValueError("star fact must carry an upper bound")
        s = min(s, star_fact.value)
    return theorem_mt_bound(BoundQuery(1, (s,)))


def stars_bound(m: int, k: Sequence[int]) -> int:
    """Multicolor bound for m C4's versus stars K_{1,k_1}, ..., K_{1,k_n}."""
    k = list(k)
    n = len(k)
    if m < 1 or n < 1 or any(ki < 1 for ki in k):
        raise ValueError("stars bound needs m, n, k_i >= 1")
    if m + sum(k) < n + 2:
        raise ValueError(f"stars bound needs m + sum(k) >= n + 2, got m={m}, k={k}")
    return theorem_mt_bound(BoundQuery(m, tuple(k)))
