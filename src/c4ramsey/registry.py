"""Provenance-carrying registry of known Ramsey facts.

File format, one fact per line:

    targets | kind | value | citation | trust

e.g. ``C4,K10 | exact | 36 | [LaLR] | paper``.  Facts are filed and looked
up under the canonical key (C4 entries first, rest sorted) of their list
without K2 entries, which leave a Ramsey number unchanged.  Contradictory
lower/upper pairs, and upper bounds below the trivial lower bound, are
rejected at insertion time.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Iterable, Optional

from ._record import Record, set_field
from .targets import EMPTY, TargetList, parse_targets, strip_k2

KINDS = ("exact", "upper", "lower")
TRUST_TAGS = ("paper", "computational", "derived", "user")


class RamseyFact(Record):
    _fields = ("targets", "kind", "value", "citation", "trust")

    def __init__(self, targets: TargetList, kind: str, value: int, citation: str = "", trust: str = "user"):
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        if trust not in TRUST_TAGS:
            raise ValueError(f"trust must be one of {TRUST_TAGS}, got {trust!r}")
        if value < 1:
            raise ValueError(f"fact value must be positive, got {value}")
        if citation != citation.strip() or "|" in citation or "#" in citation or len(citation.splitlines()) > 1:
            # to_line() could not be read back: '|' splits fields, '#' starts
            # a comment, a line break ends the line and outer blanks are stripped
            raise ValueError(f"citation {citation!r} has '|', '#', a line break or outer blanks")
        set_field(self, "targets", targets)
        set_field(self, "kind", kind)
        set_field(self, "value", value)
        set_field(self, "citation", citation)
        set_field(self, "trust", trust)

    def key(self) -> str:
        return self.targets.key()

    def to_line(self) -> str:
        return f"{self.key()} | {self.kind} | {self.value} | {self.citation} | {self.trust}"

    @staticmethod
    def from_line(line: str) -> "RamseyFact":
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 5:
            raise ValueError(
                f"bad fact line {line!r}; expected 'targets | kind | value | citation | trust'"
            )
        try:
            value = int(parts[2])
        except ValueError:
            raise ValueError(f"fact value must be an integer, got {parts[2]!r}") from None
        return RamseyFact(
            targets=parse_targets(parts[0]),
            kind=parts[1],
            value=value,
            citation=parts[3],
            trust=parts[4],
        )


class ContradictionError(ValueError):
    pass


class Registry:
    """Best known lower/upper fact per canonical target key, K2 entries left out."""

    def __init__(self, facts: Iterable[RamseyFact] = ()):
        self._lower: dict[str, RamseyFact] = {}
        self._upper: dict[str, RamseyFact] = {}
        for f in facts:
            self.add(f)

    def add(self, fact: RamseyFact) -> None:
        filed = strip_k2(fact.targets).key()
        key = fact.key()  # the messages name the fact's own list
        as_lower = fact.kind in ("exact", "lower")
        as_upper = fact.kind in ("exact", "upper")
        if as_lower:
            up = self._upper.get(filed)
            if up is not None and fact.value > up.value:
                raise ContradictionError(
                    f"lower bound {fact.value} for {key} exceeds upper bound {up.value}"
                )
        if as_upper:
            # R(L) >= T: K_{T-1} in the color of a largest entry avoids every
            # entry, where T is the largest entry's size or the least k of a kK1
            ts = fact.targets
            floor = min([max(t.vertex_count for t in ts)] + [t.k for t in ts if t.kind == EMPTY])
            if fact.value < floor:
                what = "upper bound" if fact.kind == "upper" else "exact value"
                raise ContradictionError(f"{what} {fact.value} for {key} is below the trivial lower bound {floor}")
            lo = self._lower.get(filed)
            if lo is not None and lo.value > fact.value:
                raise ContradictionError(
                    f"upper bound {fact.value} for {key} is below lower bound {lo.value}"
                )
        if as_lower:
            cur = self._lower.get(filed)
            if cur is None or fact.value > cur.value or fact.kind == "exact":
                self._lower[filed] = fact
        if as_upper:
            cur = self._upper.get(filed)
            if cur is None or fact.value < cur.value or fact.kind == "exact":
                self._upper[filed] = fact

    def best_upper(self, targets: TargetList) -> Optional[RamseyFact]:
        return self._upper.get(strip_k2(targets).key())

    def best_lower(self, targets: TargetList) -> Optional[RamseyFact]:
        return self._lower.get(strip_k2(targets).key())

    def exact(self, targets: TargetList) -> Optional[RamseyFact]:
        f = self._upper.get(strip_k2(targets).key())
        return f if f is not None and f.kind == "exact" else None

    def facts(self) -> list[RamseyFact]:
        # an exact fact sits in both tables as one object, so (key, kind) never ties
        return sorted({*self._upper.values(), *self._lower.values()}, key=lambda f: (f.key(), f.kind))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(render_registry(self))


def render_registry(reg: Registry) -> str:
    lines = ["# targets | kind | value | citation | trust"]
    lines += [f.to_line() for f in reg.facts()]
    return "\n".join(lines) + "\n"


def parse_registry(text: str) -> Registry:
    """The registry of a fact file.  A refused line raises its own error, of
    the same type, with "line N: " (1-based) put before the message."""
    reg = Registry()
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                reg.add(RamseyFact.from_line(line))
            except ValueError as e:
                e.args = (f"line {number}: {e}",)
                raise
    return reg


def load_registry(path: str | Path) -> Registry:
    return parse_registry(Path(path).read_text())


@functools.cache
def _parsed_seeds() -> Registry:
    # the packaged file cannot change while the process runs
    return parse_registry((Path(__file__).parent / "data" / "seeds.txt").read_text(encoding="utf-8"))


def seed_registry() -> Registry:
    """The registry of cited base facts shipped with the package.

    The file is parsed once per process.  Each call returns a fresh Registry
    holding those facts, so a fact one caller adds is never seen by another."""
    seeds = _parsed_seeds()
    reg = Registry()
    reg._lower = dict(seeds._lower)
    reg._upper = dict(seeds._upper)
    return reg
