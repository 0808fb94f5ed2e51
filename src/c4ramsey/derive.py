"""Memoized upper-bound derivation with an auditable, replayable tree.

Each node records the rule applied, the child derivations supplying its
inputs, and a notes ledger (rule parameters, precondition guards).  A tree
can be re-evaluated bottom-up and must reproduce its conclusion exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Generator

from . import targets as tg
from .bounds import BoundQuery, book_from_star_bound, parsons_bound, stars_bound, theorem_mt_bound
from .registry import RamseyFact, Registry
from .targets import TargetGraph, TargetList, parse_targets, strip_k2, union_k1_rewrite


@dataclass(frozen=True, eq=False)
class DerivationTree:
    """One node of a derivation.  derive() shares a subtree between all the
    parents that use it, so nodes compare by identity; two trees are compared
    through their node tables, to_dict(), which are flat."""

    targets: TargetList
    rule: str
    value: int
    kind: str  # "exact" or "upper"
    children: tuple["DerivationTree", ...] = ()
    notes: dict = field(default_factory=dict)
    citation: str = ""

    def to_dict(self) -> dict:
        """The node table {"nodes": [...]}: each distinct node object once,
        children before their parents and the root last.  A node's
        "children" are indices of earlier nodes.  Built from an explicit
        stack, so depth needs no recursion limit."""
        index: dict[int, int] = {}
        nodes: list[dict] = []
        stack = [self]
        while stack:
            node = stack[-1]
            todo = [c for c in node.children if id(c) not in index]
            if todo:
                stack.extend(reversed(todo))
                continue
            stack.pop()
            if id(node) in index:  # reached again through another parent
                continue
            index[id(node)] = len(nodes)
            nodes.append(
                {
                    "targets": node.targets.key(),
                    "rule": node.rule,
                    "value": node.value,
                    "kind": node.kind,
                    "citation": node.citation,
                    "notes": node.notes,
                    "children": [index[id(c)] for c in node.children],
                }
            )
        return {"nodes": nodes}

    @staticmethod
    def from_dict(d: dict) -> "DerivationTree":
        """Inverse of to_dict: one forward pass over the node table."""
        nodes = d["nodes"]
        if not nodes:
            raise ValueError("empty derivation node table")
        built: list[DerivationTree] = []
        for i, n in enumerate(nodes):
            kids = n["children"]
            if not all(type(c) is int and 0 <= c < i for c in kids):
                raise ValueError(f"node {i}: children {kids} are not all earlier nodes")
            built.append(
                DerivationTree(
                    targets=parse_targets(n["targets"]),
                    rule=n["rule"],
                    value=n["value"],
                    kind=n["kind"],
                    children=tuple(built[c] for c in kids),
                    notes=dict(n["notes"]),
                    citation=n.get("citation", ""),
                )
            )
        return built[-1]

    def render_text(self) -> str:
        """One line per node in pre-order, children indented under parents.
        A node with children that is written already is written again as
        its own line marked "(see above)", without its children."""
        note_keys = ("deletions", "floors", "vertex_floor", "guard", "star_bound")
        lines = []
        seen: set[int] = set()
        stack = [(self, 0)]
        while stack:
            node, level = stack.pop()
            rel = "=" if node.kind == "exact" else "<="
            cite = f"  [{node.citation}]" if node.citation else ""
            shown = {k: v for k, v in node.notes.items() if k in note_keys and v}
            note = f"  {shown}" if shown else ""
            line = f"{'  ' * level}R({node.targets.key()}) {rel} {node.value}  via {node.rule}{cite}{note}"
            if node.children and id(node) in seen:
                lines.append(line + "  (see above)")
                continue
            seen.add(id(node))
            lines.append(line)
            stack.extend((c, level + 1) for c in reversed(node.children))
        return "\n".join(lines)


class ReplayError(ValueError):
    pass


def replay(tree: DerivationTree) -> None:
    """Re-evaluate every node's rule on its children; raise on any mismatch.

    Each distinct node object is checked once, so a subtree that derive()
    shares between parents costs one check."""
    seen: set[int] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.rule != "Registry":
            expected = _rule_value(node.rule, node.targets, node.children, node.notes)
            if expected != node.value:
                raise ReplayError(
                    f"rule {node.rule} on {node.targets.key()} replays to {expected}, "
                    f"node says {node.value}"
                )
        stack.extend(node.children)


def _rule_value(rule: str, targets: TargetList, children: tuple, notes: dict) -> int:
    """What a rule other than Registry concludes for targets from its
    children and notes.  The planner takes each node's value from here and
    replay() checks each node against it, so every rule is written once.
    Raises ReplayError where the node's inputs cannot hold under the rule."""
    if rule == "TrivialEmpty":
        empties = [t.k for t in targets if t.kind == tg.EMPTY]
        if not empties:
            raise ReplayError(f"TrivialEmpty node without an empty target: {targets}")
        return min(empties)
    if rule == "Parsons":
        return parsons_bound(notes["k"])
    if rule == "BookCor":
        s = notes["star_bound"]
        if children and children[0].value != s:
            raise ReplayError("BookCor star bound disagrees with its child")
        return book_from_star_bound(s)
    if rule == "StarsCor":
        return stars_bound(notes["m"], notes["k"])
    if rule == "UnionK1":
        return max([children[0].value] + list(notes["floors"]))
    if rule == "TheoremMT":
        r = [c.value for c in children]
        if r != list(notes["r"]):
            raise ReplayError("TheoremMT r-values disagree with children")
        return theorem_mt_bound(BoundQuery(notes["m"], r))
    if rule == "MaxWithVertexCount":
        return max(children[0].value, notes["vertex_floor"])
    raise ReplayError(f"unknown rule {rule!r}")


class CannotDeriveError(ValueError):
    """No rule chain reaches the requested targets; lists the missing facts."""

    def __init__(self, missing: set[str]):
        self.missing = sorted(missing)
        super().__init__("cannot derive; missing facts for: " + ", ".join(self.missing))


def _option_sort_key(opt: TargetGraph) -> tuple:
    return (opt.vertex_count, str(opt))


@functools.cache
def _ordered_deletions(t: TargetGraph) -> tuple[tuple[TargetGraph, tuple], ...]:
    """delete_options(t) in the order the planner tries them, each with its
    sort key.  Targets are frozen, so this is computed once per target."""
    options = sorted(tg.delete_options(t), key=_option_sort_key)
    return tuple((opt, _option_sort_key(opt)) for opt in options)


def derive(targets: TargetList, registry: Registry) -> DerivationTree:
    """Best upper bound derivable for the target list from the registry.

    Combines registry lookups with the rewrite rules (edgeless targets,
    union-with-K1, star/book shortcuts and the main recursive bound);
    among applicable rules the smallest bound wins.  Raises
    CannotDeriveError listing unresolvable leaves.

    Every rule's child lists have fewer vertices in total than the parent,
    so the evaluation ends without any cap.  It runs as one loop over a
    stack of _plan generators, not as Python recursion, so long chains such
    as C4,K1200 need no recursion limit.  Each list is planned once; its
    tree, or its set of missing facts, is memoized under its key.
    """
    memo: dict[str, DerivationTree | set[str]] = {}
    tl = strip_k2(targets)
    keys = [tl.key()]
    stack = [_plan(tl, registry)]
    result = None
    while stack:
        try:
            child = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = memo[keys.pop()] = done.value
            continue
        tl = strip_k2(child)
        key = tl.key()
        result = memo.get(key)
        if result is None:
            keys.append(key)
            stack.append(_plan(tl, registry))
    if isinstance(result, set):
        raise CannotDeriveError(result)
    return result


def _registry_leaf(tl: TargetList, fact: RamseyFact) -> DerivationTree:
    return DerivationTree(
        targets=tl,
        rule="Registry",
        value=fact.value,
        kind="exact" if fact.kind == "exact" else "upper",
        citation=fact.citation,
        notes={"trust": fact.trust},
    )


def _node(
    tl: TargetList, rule: str, notes: dict, children: tuple = (), kind: str = "upper"
) -> DerivationTree:
    value = _rule_value(rule, tl, children, notes)
    return DerivationTree(
        targets=tl, rule=rule, value=value, kind=kind, children=children, notes=notes
    )


# Among candidates with equal values, the lower rank wins; among equal ranks,
# the candidate planned first.
_RANK = {
    "Registry": 0,
    "TrivialEmpty": 1,
    "Parsons": 2,
    "BookCor": 2,
    "StarsCor": 2,
    "UnionK1": 3,
    "TheoremMT": 3,
    "MaxWithVertexCount": 3,
}


def _best(candidates: list[DerivationTree]) -> DerivationTree:
    return min(candidates, key=lambda c: (c.value, _RANK[c.rule]))


def _plan(tl: TargetList, registry: Registry) -> Generator[TargetList, object, object]:
    """Plan one K2-free list.  Yields each child list it needs and is sent
    back that list's tree, or its set of missing facts; returns this list's
    best tree, or its own set of missing facts."""
    candidates: list[DerivationTree] = []
    missing: set[str] = set()

    fact = registry.best_upper(tl)
    if fact is not None:
        candidates.append(_registry_leaf(tl, fact))

    empties = [t.k for t in tl if t.kind == tg.EMPTY]
    if empties:
        k = min(empties)
        candidates.append(_node(tl, "TrivialEmpty", {"guard": f"{k}K1 needs only {k} vertices"}))
        # No other rule can win here, whatever the registry holds: Parsons,
        # BookCor and StarsCor need star or book entries only; UnionK1's
        # floors include |V(kK1)| = k, and TheoremMT's value (and so
        # MaxWithVertexCount's) is at least its vertex floor, which is >= k.
        # Both rank after TrivialEmpty on a tie, so no child is planned.
        return _best(candidates)

    m, others = tl.m, tl.others

    if m == 1 and len(others) == 1 and others[0].kind == tg.STAR and others[0].k >= 2:
        candidates.append(_node(tl, "Parsons", {"k": others[0].k}))

    if m == 1 and len(others) == 1 and others[0].kind == tg.BOOK and others[0].k >= 2:
        k = others[0].k
        star_list = TargetList((tg.CYCLE4, tg.star(k)))
        star_fact = registry.best_upper(star_list)
        if star_fact is not None and star_fact.value <= parsons_bound(k):
            notes = {"k": k, "star_bound": star_fact.value, "star_source": "registry"}
            candidates.append(_node(tl, "BookCor", notes, (_registry_leaf(star_list, star_fact),)))
        else:
            notes = {"k": k, "star_bound": parsons_bound(k), "star_source": "parsons"}
            candidates.append(_node(tl, "BookCor", notes))

    if m >= 1 and others and all(t.kind == tg.STAR for t in others):
        ks = [t.k for t in others]
        if m + sum(ks) >= len(ks) + 2:
            candidates.append(_node(tl, "StarsCor", {"m": m, "k": ks}))

    # kK1 entries returned above, so the H + 1K1 shape is base + 1K1 here
    if m >= 1 and others and all(t.kind == tg.WITH_ISOLATED and t.k == 1 for t in others):
        inner, floors = union_k1_rewrite(tl)
        child = yield inner
        if isinstance(child, set):
            missing |= child
        else:
            candidates.append(_node(tl, "UnionK1", {"floors": floors}, (child,), child.kind))

    if m >= 1 and all(t.vertex_count >= 2 for t in others):
        chosen: list[DerivationTree] = []
        deletions: list[str] = []
        for i, gi in enumerate(others):
            best = None
            for opt, opt_key in _ordered_deletions(gi):
                child = yield tl.replace_other(i, opt)
                if isinstance(child, set):
                    missing |= child
                    continue
                ck = (child.value,) + opt_key
                if best is None or ck < best[0]:
                    best = (ck, child, opt)
            if best is None:
                break
            chosen.append(best[1])
            deletions.append(f"{gi}->{best[2]}")
        else:  # every entry has a derivable deletion
            r = [c.value for c in chosen]
            if not (m == 1 and sum(r) - len(r) < 1):  # Theorem MT needs s >= 1 when m = 1
                vertex_floor = max(t.vertex_count for t in tl)
                notes = {
                    "m": m,
                    "n": len(others),
                    "r": r,
                    "deletions": deletions,
                    "vertex_floor": vertex_floor,
                    "guard": f"conclusion is valid as max(bound, {vertex_floor})",
                }
                mt = _node(tl, "TheoremMT", notes, tuple(chosen))
                if vertex_floor > mt.value:
                    mt = _node(tl, "MaxWithVertexCount", {"vertex_floor": vertex_floor}, (mt,))
                candidates.append(mt)

    if not candidates:
        return missing or {tl.key()}
    return _best(candidates)
