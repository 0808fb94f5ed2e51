"""Recursive upper-bound derivation with an auditable, replayable tree.

Each node records the rule applied, the child derivations supplying its
inputs, and a notes ledger (rule parameters, precondition guards).  A tree
can be re-evaluated bottom-up and must reproduce its conclusion exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import targets as tg
from .bounds import BoundQuery, isqrt_ceil, parsons_bound, stars_bound, theorem_mt_bound
from .registry import RamseyFact, Registry
from .targets import TargetGraph, TargetList, parse_targets, strip_k2, union_k1_rewrite


@dataclass(frozen=True)
class DerivationTree:
    targets: TargetList
    rule: str
    value: int
    kind: str  # "exact" or "upper"
    children: tuple["DerivationTree", ...] = ()
    notes: dict = field(default_factory=dict)
    citation: str = ""

    @property
    def conclusion(self) -> RamseyFact:
        return RamseyFact(
            targets=self.targets,
            kind=self.kind,
            value=self.value,
            citation=self.citation or self.rule,
            trust="derived" if self.rule != "Registry" else "paper",
        )

    def to_dict(self) -> dict:
        return {
            "targets": self.targets.key(),
            "rule": self.rule,
            "value": self.value,
            "kind": self.kind,
            "citation": self.citation,
            "notes": self.notes,
            "children": [c.to_dict() for c in self.children],
        }

    @staticmethod
    def from_dict(d: dict) -> "DerivationTree":
        return DerivationTree(
            targets=parse_targets(d["targets"]),
            rule=d["rule"],
            value=d["value"],
            kind=d["kind"],
            children=tuple(DerivationTree.from_dict(c) for c in d["children"]),
            notes=dict(d["notes"]),
            citation=d.get("citation", ""),
        )

    def render_text(self, indent: int = 0) -> str:
        pad = "  " * indent
        rel = "=" if self.kind == "exact" else "<="
        cite = f"  [{self.citation}]" if self.citation else ""
        note_keys = ("deletions", "floors", "vertex_floor", "guard", "star_bound")
        shown = {k: v for k, v in self.notes.items() if k in note_keys and v}
        note = f"  {shown}" if shown else ""
        lines = [f"{pad}R({self.targets.key()}) {rel} {self.value}  via {self.rule}{cite}{note}"]
        lines += [c.render_text(indent + 1) for c in self.children]
        return "\n".join(lines)


class ReplayError(ValueError):
    pass


def replay(tree: DerivationTree) -> None:
    """Re-evaluate every node's rule on its children; raise on any mismatch."""
    for c in tree.children:
        replay(c)
    rule, notes = tree.rule, tree.notes
    if rule == "Registry":
        expected = tree.value
    elif rule == "TrivialEmpty":
        empties = [t.k for t in tree.targets if t.kind == tg.EMPTY]
        if not empties:
            raise ReplayError(f"TrivialEmpty node without an empty target: {tree.targets}")
        expected = min(empties)
    elif rule == "Parsons":
        expected = parsons_bound(notes["k"])
    elif rule == "BookCor":
        s = notes["star_bound"]
        if tree.children and tree.children[0].value != s:
            raise ReplayError("BookCor star bound disagrees with its child")
        expected = s + isqrt_ceil(s) + 1
    elif rule == "StarsCor":
        expected = stars_bound(notes["m"], notes["k"])
    elif rule == "UnionK1":
        expected = max([tree.children[0].value] + list(notes["floors"]))
    elif rule == "TheoremMT":
        r = tuple(c.value for c in tree.children)
        if list(r) != list(notes["r"]):
            raise ReplayError("TheoremMT r-values disagree with children")
        expected = theorem_mt_bound(BoundQuery(notes["m"], r))
    elif rule == "MaxWithVertexCount":
        expected = max(tree.children[0].value, notes["vertex_floor"])
    else:
        raise ReplayError(f"unknown rule {rule!r}")
    if expected != tree.value:
        raise ReplayError(
            f"rule {rule} on {tree.targets.key()} replays to {expected}, node says {tree.value}"
        )


class CannotDeriveError(ValueError):
    """No rule chain reaches the requested targets; lists the missing facts."""

    def __init__(self, missing: set[str]):
        self.missing = sorted(missing)
        super().__init__("cannot derive; missing facts for: " + ", ".join(self.missing))


def _option_sort_key(opt: TargetGraph) -> tuple:
    return (opt.vertex_count, str(opt))


def derive(targets: TargetList, registry: Registry, depth_limit: int = 8) -> DerivationTree:
    """Best upper bound derivable for the target list from the registry.

    Combines registry lookups with the rewrite rules (edgeless targets,
    union-with-K1, star/book shortcuts and the main recursive bound);
    among applicable rules the smallest bound wins.  Raises
    CannotDeriveError listing unresolvable leaves.
    """
    memo: dict[str, DerivationTree] = {}
    failed: dict[str, tuple[int, set[str]]] = {}  # key -> (depth tried, missing)

    def go(raw: TargetList, depth: int) -> DerivationTree:
        tl, _dropped = strip_k2(raw)
        key = tl.key()
        if key in memo:
            return memo[key]
        if key in failed and failed[key][0] >= depth:
            raise CannotDeriveError(failed[key][1])

        candidates: list[tuple[tuple, DerivationTree]] = []
        missing: set[str] = set()

        fact = registry.best_upper(tl)
        if fact is not None:
            candidates.append(
                (
                    (fact.value, 0),
                    DerivationTree(
                        targets=tl,
                        rule="Registry",
                        value=fact.value,
                        kind="exact" if fact.kind == "exact" else "upper",
                        citation=fact.citation,
                        notes={"trust": fact.trust},
                    ),
                )
            )

        empties = [t.k for t in tl if t.kind == tg.EMPTY]
        if empties:
            k = min(empties)
            candidates.append(
                (
                    (k, 1),
                    DerivationTree(
                        targets=tl,
                        rule="TrivialEmpty",
                        value=k,
                        kind="upper",
                        notes={"guard": f"{k}K1 needs only {k} vertices"},
                    ),
                )
            )

        m, others = tl.m, tl.others

        if m == 1 and len(others) == 1 and others[0].kind == tg.STAR and others[0].k >= 2:
            k = others[0].k
            candidates.append(
                (
                    (parsons_bound(k), 2),
                    DerivationTree(
                        targets=tl,
                        rule="Parsons",
                        value=parsons_bound(k),
                        kind="upper",
                        notes={"k": k},
                    ),
                )
            )

        if m == 1 and len(others) == 1 and others[0].kind == tg.BOOK and others[0].k >= 2:
            k = others[0].k
            star_list = TargetList((tg.CYCLE4, tg.star(k)))
            star_fact = registry.best_upper(star_list)
            children: tuple[DerivationTree, ...] = ()
            if star_fact is not None and star_fact.value <= parsons_bound(k):
                s = star_fact.value
                children = (
                    DerivationTree(
                        targets=star_list,
                        rule="Registry",
                        value=s,
                        kind="exact" if star_fact.kind == "exact" else "upper",
                        citation=star_fact.citation,
                        notes={"trust": star_fact.trust},
                    ),
                )
                source = "registry"
            else:
                s = parsons_bound(k)
                source = "parsons"
            value = s + isqrt_ceil(s) + 1
            candidates.append(
                (
                    (value, 2),
                    DerivationTree(
                        targets=tl,
                        rule="BookCor",
                        value=value,
                        kind="upper",
                        children=children,
                        notes={"k": k, "star_bound": s, "star_source": source},
                    ),
                )
            )

        if m >= 1 and others and all(t.kind == tg.STAR for t in others):
            ks = [t.k for t in others]
            if m + sum(ks) >= len(ks) + 2:
                value = stars_bound(m, ks)
                candidates.append(
                    (
                        (value, 2),
                        DerivationTree(
                            targets=tl,
                            rule="StarsCor",
                            value=value,
                            kind="upper",
                            notes={"m": m, "k": ks},
                        ),
                    )
                )

        if depth > 0 and m >= 1 and others:
            try:
                inner, floors = union_k1_rewrite(tl)
            except ValueError:
                inner = None
            if inner is not None:
                try:
                    child = go(inner, depth - 1)
                    value = max([child.value] + floors)
                    candidates.append(
                        (
                            (value, 3),
                            DerivationTree(
                                targets=tl,
                                rule="UnionK1",
                                value=value,
                                kind=child.kind,
                                children=(child,),
                                notes={"floors": floors},
                            ),
                        )
                    )
                except CannotDeriveError as e:
                    missing.update(e.missing)

        if depth > 0 and m >= 1 and all(t.vertex_count >= 2 for t in others):
            mt = _theorem_mt_candidate(tl, depth, go, missing)
            if mt is not None:
                candidates.append(((mt.value, 3), mt))

        if not candidates:
            if not missing:
                missing = {key}
            failed[key] = (depth, missing)
            raise CannotDeriveError(missing)

        best = min(candidates, key=lambda c: c[0])[1]
        memo[key] = best
        return best

    return go(targets, depth_limit)


def _theorem_mt_candidate(tl, depth, go, missing) -> Optional[DerivationTree]:
    m, others = tl.m, tl.others
    chosen: list[DerivationTree] = []
    deletions: list[str] = []
    for i, gi in enumerate(others):
        options = sorted(tg.delete_options(gi), key=_option_sort_key)
        best_child = None
        best_key = None
        best_opt = None
        for opt in options:
            try:
                child = go(tl.replace_other(i, opt), depth - 1)
            except CannotDeriveError as e:
                missing.update(e.missing)
                continue
            ck = (child.value,) + _option_sort_key(opt)
            if best_key is None or ck < best_key:
                best_child, best_key, best_opt = child, ck, opt
        if best_child is None:
            return None
        chosen.append(best_child)
        deletions.append(f"{gi}->{best_opt}")
    r = tuple(c.value for c in chosen)
    q = BoundQuery(m, r)
    if m == 1 and q.s < 1:
        return None
    formula = theorem_mt_bound(q)
    vertex_floor = max(t.vertex_count for t in tl)
    node = DerivationTree(
        targets=tl,
        rule="TheoremMT",
        value=formula,
        kind="upper",
        children=tuple(chosen),
        notes={
            "m": m,
            "n": len(others),
            "r": list(r),
            "deletions": deletions,
            "vertex_floor": vertex_floor,
            "guard": f"conclusion is valid as max(bound, {vertex_floor})",
        },
    )
    if vertex_floor > formula:
        node = DerivationTree(
            targets=tl,
            rule="MaxWithVertexCount",
            value=vertex_floor,
            kind="upper",
            children=(node,),
            notes={"vertex_floor": vertex_floor},
        )
    return node
