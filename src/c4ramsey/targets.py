"""Closed family of forbidden target graphs.

The family is: cliques K_k, the 4-cycle C4, stars K_{1,k} (written S<k>),
books B_k = K2 + kK1, edgeless graphs kK1, the path P3, and any of those
with extra isolated vertices (base + tK1).  The family is closed under
single-vertex deletion, which is what makes the recursive bound planner
total.
"""

from __future__ import annotations

import bisect
import operator
import re
from dataclasses import dataclass, field
from typing import Iterator, Optional

CLIQUE = "clique"
CYCLE4_KIND = "cycle4"
STAR = "star"
BOOK = "book"
EMPTY = "empty"
PATH3_KIND = "path3"
WITH_ISOLATED = "with_isolated"


@dataclass(frozen=True)
class TargetGraph:
    """One member of the forbidden-graph family.

    Use the factory functions (clique, star, ...) instead of constructing
    directly: they normalize degenerate forms (K1 = 1K1, nested isolated
    unions are flattened) so that structural equality is plain ==.
    """

    kind: str
    k: int = 0
    base: Optional["TargetGraph"] = None
    # derived once here; equality, hashing and repr use (kind, k, base) only
    vertex_count: int = field(init=False, repr=False, compare=False)
    _name: str = field(init=False, repr=False, compare=False)
    _order: tuple = field(init=False, repr=False, compare=False)  # (vertex_count, _name): list order

    def __post_init__(self):
        kind, k = self.kind, self.k
        if kind == CLIQUE:
            count, name = k, f"K{k}"
        elif kind == CYCLE4_KIND:
            count, name = 4, "C4"
        elif kind == STAR:
            count, name = k + 1, f"S{k}"
        elif kind == BOOK:
            count, name = k + 2, f"B{k}"
        elif kind == EMPTY:
            count, name = k, f"{k}K1"
        elif kind == PATH3_KIND:
            count, name = 3, "P3"
        elif kind == WITH_ISOLATED:
            count, name = self.base.vertex_count + k, f"{self.base._name}+{k}K1"
        else:
            raise ValueError(f"unknown target kind {kind!r}")
        object.__setattr__(self, "vertex_count", count)
        object.__setattr__(self, "_name", name)
        object.__setattr__(self, "_order", (count, name))

    def __str__(self) -> str:
        return self._name

    def __hash__(self) -> int:
        # equal targets have equal names, and a str keeps its hash, so this
        # is quicker than hashing (kind, k, base) again on every lookup
        return hash(self._name)


CYCLE4 = TargetGraph(CYCLE4_KIND)
PATH3 = TargetGraph(PATH3_KIND)


def clique(k: int) -> TargetGraph:
    if k < 1:
        raise ValueError(f"clique size must be >= 1, got {k}")
    if k == 1:
        return empty_graph(1)
    return TargetGraph(CLIQUE, k)


def star(k: int) -> TargetGraph:
    if k < 1:
        raise ValueError(f"star K_{{1,k}} needs k >= 1, got {k}")
    return TargetGraph(STAR, k)


def book(k: int) -> TargetGraph:
    if k < 1:
        raise ValueError(f"book B_k needs k >= 1, got {k}")
    return TargetGraph(BOOK, k)


def empty_graph(k: int) -> TargetGraph:
    if k < 1:
        raise ValueError(f"kK1 needs k >= 1, got {k}")
    return TargetGraph(EMPTY, k)


def with_isolated(base: TargetGraph, t: int = 1) -> TargetGraph:
    if t < 1:
        raise ValueError(f"base + tK1 needs t >= 1, got {t}")
    # flatten: (b + sK1) + tK1 = b + (s+t)K1 ; kK1 + tK1 = (k+t)K1
    if base.kind == WITH_ISOLATED:
        return with_isolated(base.base, base.k + t)
    if base.kind == EMPTY:
        return empty_graph(base.k + t)
    return TargetGraph(WITH_ISOLATED, t, base)


def target_edges(t: TargetGraph) -> list[tuple[int, int]]:
    """Concrete edge list of t on vertices 0..vertex_count-1."""
    if t.kind == CLIQUE:
        return [(i, j) for j in range(t.k) for i in range(j)]
    if t.kind == CYCLE4_KIND:
        return [(0, 1), (1, 2), (2, 3), (0, 3)]
    if t.kind == STAR:
        return [(0, i) for i in range(1, t.k + 1)]
    if t.kind == BOOK:
        edges = [(0, 1)]
        for p in range(2, t.k + 2):
            edges += [(0, p), (1, p)]
        return edges
    if t.kind == EMPTY:
        return []
    if t.kind == PATH3_KIND:
        return [(0, 1), (1, 2)]
    if t.kind == WITH_ISOLATED:
        return target_edges(t.base)
    raise ValueError(f"unknown target kind {t.kind!r}")


def delete_options(t: TargetGraph) -> set[TargetGraph]:
    """All non-isomorphic results of deleting a single vertex from t."""
    if t.vertex_count < 2:
        raise ValueError(f"cannot delete a vertex from {t} (single vertex)")
    if t.kind == CLIQUE:
        return {clique(t.k - 1)}
    if t.kind == CYCLE4_KIND:
        return {PATH3}
    if t.kind == STAR:
        leaf = star(t.k - 1) if t.k >= 2 else empty_graph(1)
        return {leaf, empty_graph(t.k)}
    if t.kind == BOOK:
        page = book(t.k - 1) if t.k >= 2 else clique(2)
        return {star(t.k), page}
    if t.kind == EMPTY:
        return {empty_graph(t.k - 1)}
    if t.kind == PATH3_KIND:
        return {clique(2), empty_graph(2)}
    if t.kind == WITH_ISOLATED:
        opts = {with_isolated(b, t.k) for b in delete_options(t.base)}
        opts.add(t.base if t.k == 1 else with_isolated(t.base, t.k - 1))
        return opts
    raise ValueError(f"unknown target kind {t.kind!r}")


class TargetParseError(ValueError):
    """Raised on malformed target expressions; carries the error position."""

    def __init__(self, text: str, pos: int, message: str):
        super().__init__(f"{message} at position {pos} in {text!r}")
        self.text = text
        self.pos = pos


_SIMPLE_RE = re.compile(r"C4|P3|K(\d+)|S(\d+)|B(\d+)|(\d+)K1")


def _parse_simple(text: str, part: str, pos: int) -> TargetGraph:
    m = _SIMPLE_RE.fullmatch(part)
    if not m:
        raise TargetParseError(text, pos, f"unsupported target {part!r}")
    if part == "C4":
        return CYCLE4
    if part == "P3":
        return PATH3
    make = clique if m[1] else star if m[2] else book if m[3] else empty_graph
    k = int(m[m.lastindex])
    try:
        return make(k)
    except ValueError as e:  # a count below 1
        raise TargetParseError(text, pos, str(e)) from None


def _parse_entry(text: str, entry: str, start: int) -> TargetGraph:
    """Parse the target expression entry, which starts at offset start of
    text; an error gives text and the position in it."""
    if not entry.strip():
        raise TargetParseError(text, start, "empty target expression")
    result = None
    for part in entry.split("+"):
        p, pos = part.strip(), start + len(part) - len(part.lstrip())
        start += len(part) + 1
        if result is None:
            result = _parse_simple(text, p, pos)
            continue
        m = re.fullmatch(r"(\d*)K1", p)
        if not m:
            raise TargetParseError(text, pos, f"expected <t>K1 after '+', got {p!r}")
        t = int(m.group(1)) if m.group(1) else 1
        if t < 1:
            raise TargetParseError(text, pos, "isolated-vertex count must be >= 1")
        result = with_isolated(result, t)
    return result


def parse_target(text: str) -> TargetGraph:
    """Parse one target expression, e.g. "K11", "B17", "K3+1K1"."""
    return _parse_entry(text, text, 0)


_sort_key = operator.attrgetter("_order")


@dataclass(frozen=True)
class TargetList:
    """Canonically ordered target list: C4 entries first, rest sorted.

    m is the count of leading C4 entries; the rest are the others (the
    split the bound formulas operate on).
    """

    targets: tuple[TargetGraph, ...]
    # derived once here; equality and hashing use targets only
    m: int = field(init=False, repr=False, compare=False)
    _key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c4s = tuple(t for t in self.targets if t.kind == CYCLE4_KIND)
        rest = sorted((t for t in self.targets if t.kind != CYCLE4_KIND), key=_sort_key)
        ordered = c4s + tuple(rest)
        object.__setattr__(self, "targets", ordered)
        object.__setattr__(self, "m", len(c4s))
        object.__setattr__(self, "_key", ",".join(t._name for t in ordered))

    @property
    def others(self) -> tuple[TargetGraph, ...]:
        return self.targets[self.m:]

    def key(self) -> str:
        return self._key

    def __iter__(self) -> Iterator[TargetGraph]:
        return iter(self.targets)

    def __len__(self) -> int:
        return len(self.targets)

    def __str__(self) -> str:
        return self.key()

    @classmethod
    def _canonical(cls, targets: tuple[TargetGraph, ...], m: int) -> "TargetList":
        """A list from targets already in canonical order, m of them C4s;
        skips __post_init__'s sort."""
        tl = object.__new__(cls)
        fields = tl.__dict__  # where a frozen dataclass keeps its fields; the quickest way in
        fields["targets"], fields["m"], fields["_key"] = targets, m, ",".join([t._name for t in targets])
        return tl

    def replace_other(self, i: int, new: TargetGraph) -> "TargetList":
        """New list with the i-th non-C4 entry replaced (re-canonicalized).

        The other entries stay in order, so new is inserted at its sorted
        place among them, or joins the C4 prefix if it is a C4."""
        m, targets = self.m, self.targets
        j = m + i
        if new.kind == CYCLE4_KIND:
            return TargetList._canonical(targets[:m] + (new,) + targets[m:j] + targets[j + 1 :], m + 1)
        at = bisect.bisect_left(targets, new._order, m, key=_sort_key)
        if at <= j:  # new goes before the entry it replaces, or in its place
            return TargetList._canonical(targets[:at] + (new,) + targets[at:j] + targets[j + 1 :], m)
        return TargetList._canonical(targets[:j] + targets[j + 1 : at] + (new,) + targets[at:], m)


def parse_targets(text: str) -> TargetList:
    return TargetList(tuple(parse_target_sequence(text)))


def parse_target_sequence(text: str) -> list[TargetGraph]:
    """Parse a comma-separated target list preserving the given color order;
    an error gives its position in the whole list."""
    targets, start = [], 0
    for entry in text.split(","):
        targets.append(_parse_entry(text, entry, start))
        start += len(entry) + 1
    return targets


def strip_k2(targets: TargetList) -> TargetList:
    """Drop K2 entries: a color that may not contain a single edge is unused,
    so the Ramsey number is unchanged.  Keeps the list nonempty; a list
    without K2 comes back as the same object."""
    for t in targets.others:  # sorted by size: any K2 comes before every larger entry
        if t.vertex_count > 2:
            return targets
        if t.kind == CLIQUE:
            break
    else:
        return targets
    kept = tuple(t for t in targets if not (t.kind == CLIQUE and t.k == 2))
    if not kept:
        return targets
    return TargetList._canonical(kept, targets.m)
