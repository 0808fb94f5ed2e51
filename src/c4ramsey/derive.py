"""Memoized upper-bound derivation with an auditable, replayable tree.

A node's value, kind and notes (rule parameters, precondition guards) are
what its rule concludes from its target list and its child derivations, so
replay() rebuilds every node from those three and compares field for field.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Generator

from . import targets as tg
from .bounds import BoundQuery, book_from_star_bound, parsons_bound, stars_bound, theorem_mt_bound
from .registry import RamseyFact, Registry, seed_registry
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


def replay(tree: DerivationTree, registry: Registry | None = None) -> None:
    """Rebuild every node from its rule, targets and children, and raise
    ReplayError where its value, kind, notes or citation differ.  A Registry
    leaf is rebuilt from registry (None: seed_registry()), any other node after
    _check_children().  A node that derive() shares is checked once."""
    if registry is None:
        registry = seed_registry()
    seen: set[int] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        tl = node.targets
        try:
            if node.rule != "Registry":
                want = _node(tl, node.rule, node.children, _check_children(node))
            elif (fact := registry.best_upper(tl)) is None or node.children:
                raise ReplayError(f"Registry leaf on {tl} has children or no registry fact")
            else:
                want = _registry_leaf(tl, fact)
        except ReplayError:
            raise
        except ValueError as e:  # a bound formula refused the rebuilt inputs
            raise ReplayError(f"{node.rule} on {tl}: {e}") from e
        for name in ("notes", "value", "kind", "citation"):
            got, expected = getattr(node, name), getattr(want, name)
            if got != expected:
                if name == "notes" and isinstance(got, dict):  # name the keys, r as "r-values"
                    keys = [k for k in {**expected, **got} if got.get(k, ...) != expected.get(k, ...)]
                    name = f"notes ({', '.join(str(_NOTE_NAMES.get(k, k)) for k in keys)})"
                raise ReplayError(f"{node.rule} on {tl}: {name} {got!r} rebuilds as {expected!r}")
        stack.extend(node.children)


_NOTE_NAMES = {"r": "r-values", "star_bound": "star bound"}


def _check_children(node: DerivationTree) -> tuple[TargetGraph, ...]:
    """Raise ReplayError unless node.rule applies to node.targets and each
    child is on the list the rule names; return the deletion each TheoremMT
    child took.  The planner meets this by construction and never calls it."""
    rule, tl, kids = node.rule, node.targets, node.children
    m, others = tl.m, tl.others
    if rule == "TheoremMT":
        if m < 1 or len(kids) != len(others) or any(t.vertex_count < 2 for t in others):
            raise ReplayError(f"TheoremMT does not apply to {tl} with {len(kids)} children")
        return tuple(_deletion_taken(tl, i, kid.targets) for i, kid in enumerate(kids))
    one = others[0] if m == 1 and len(others) == 1 else tg.CYCLE4  # C4: no single entry
    lists: list[TargetList] = []
    if rule == "TrivialEmpty":  # _conclude() looks for the edgeless entry
        applies = True
    elif rule == "Parsons":  # parsons_bound() refuses k < 2
        applies = one.kind == tg.STAR
    elif rule == "StarsCor":  # stars_bound() checks m + sum(k) >= n + 2
        applies = m >= 1 and bool(others) and all(t.kind == tg.STAR for t in others)
    elif rule == "BookCor":  # the star bound from a Registry leaf, or else from Parsons
        applies = one.kind == tg.BOOK and one.k >= 2 and all(kid.rule == "Registry" for kid in kids)
        lists = [TargetList((tg.CYCLE4, tg.star(one.k)))] if applies and kids else []
    elif rule == "UnionK1":
        applies = m >= 1 and bool(others) and all(t.kind == tg.WITH_ISOLATED and t.k == 1 for t in others)
        lists = [strip_k2(union_k1_rewrite(tl)[0])] if applies else []
    elif rule == "MaxWithVertexCount":
        applies, lists = all(kid.rule == "TheoremMT" for kid in kids), [tl]
    else:
        raise ReplayError(f"unknown rule {rule!r}")
    if not applies or [kid.targets for kid in kids] != lists:
        raise ReplayError(f"{rule} does not apply to {tl} with children {[str(k.targets) for k in kids]}")
    return ()


def _deletion_taken(tl: TargetList, i: int, child: TargetList) -> TargetGraph:
    """The deletion opt of tl.others[i] with strip_k2(tl.replace_other(i, opt)) == child."""
    for opt, _ in _ordered_deletions(tl.others[i]):
        if strip_k2(tl.replace_other(i, opt)).key() == child.key():
            return opt
    raise ReplayError(f"TheoremMT child {child} deletes no vertex of {tl.others[i]} in {tl}")


def _conclude(rule: str, tl: TargetList, children: tuple, deletions: tuple = ()) -> tuple[int, str, dict]:
    """The value, kind and notes a rule other than Registry concludes for tl
    from its children and, for TheoremMT, the deletion each child took.  The
    planner and replay() both build nodes here, so notes are outputs only.
    Raises ReplayError or ValueError where the rule cannot conclude."""
    m, others = tl.m, tl.others
    if rule == "TheoremMT":  # the rule most nodes take, so tested first
        r = [c.value for c in children]
        floor = max(t.vertex_count for t in tl)
        cuts = [f"{g}->{d}" for g, d in zip(others, deletions)]
        notes = {"m": m, "n": len(others), "r": r, "deletions": cuts, "vertex_floor": floor,
                 "guard": f"conclusion is valid as max(bound, {floor})"}
        return theorem_mt_bound(BoundQuery(m, r)), "upper", notes
    if rule == "MaxWithVertexCount":
        floor = max(t.vertex_count for t in tl)
        return max(children[0].value, floor), "upper", {"vertex_floor": floor}
    if rule == "TrivialEmpty":
        k = min([t.k for t in tl if t.kind == tg.EMPTY], default=None)
        if k is None:
            raise ReplayError(f"TrivialEmpty node without an empty target: {tl}")
        return k, "upper", {"guard": f"{k}K1 needs only {k} vertices"}
    if rule == "Parsons":
        return parsons_bound(others[0].k), "upper", {"k": others[0].k}
    if rule == "BookCor":
        k = others[0].k
        s, source = (children[0].value, "registry") if children else (parsons_bound(k), "parsons")
        return book_from_star_bound(s), "upper", {"k": k, "star_bound": s, "star_source": source}
    if rule == "StarsCor":
        ks = [t.k for t in others]
        return stars_bound(m, ks), "upper", {"m": m, "k": ks}
    if rule == "UnionK1":
        floors = union_k1_rewrite(tl)[1]
        return max([children[0].value] + floors), children[0].kind, {"floors": floors}
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
    kind = "exact" if fact.kind == "exact" else "upper"
    return DerivationTree(tl, "Registry", fact.value, kind, (), {"trust": fact.trust}, fact.citation)


def _node(tl: TargetList, rule: str, children: tuple = (), deletions: tuple = ()) -> DerivationTree:
    value, kind, notes = _conclude(rule, tl, children, deletions)
    return DerivationTree(tl, rule, value, kind, children, notes)


# Among candidates with equal values, the lower rank wins; among equal ranks,
# the candidate planned first.
_RANK = {"Registry": 0, "TrivialEmpty": 1, "Parsons": 2, "BookCor": 2, "StarsCor": 2,
         "UnionK1": 3, "TheoremMT": 3, "MaxWithVertexCount": 3}


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

    if any(t.kind == tg.EMPTY for t in tl):
        candidates.append(_node(tl, "TrivialEmpty"))
        # No other rule can win here, whatever the registry holds: Parsons,
        # BookCor and StarsCor need star or book entries only; UnionK1's
        # floors include |V(kK1)| = k, and TheoremMT's value (and so
        # MaxWithVertexCount's) is at least its vertex floor, which is >= k.
        # Both rank after TrivialEmpty on a tie, so no child is planned.
        return _best(candidates)

    m, others = tl.m, tl.others

    if m == 1 and len(others) == 1 and others[0].kind == tg.STAR and others[0].k >= 2:
        candidates.append(_node(tl, "Parsons"))

    if m == 1 and len(others) == 1 and others[0].kind == tg.BOOK and others[0].k >= 2:
        k = others[0].k
        star_list = TargetList((tg.CYCLE4, tg.star(k)))
        star_fact = registry.best_upper(star_list)
        use_fact = star_fact is not None and star_fact.value <= parsons_bound(k)
        candidates.append(_node(tl, "BookCor", (_registry_leaf(star_list, star_fact),) if use_fact else ()))

    if m >= 1 and others and all(t.kind == tg.STAR for t in others):
        if m + sum(t.k for t in others) >= len(others) + 2:
            candidates.append(_node(tl, "StarsCor"))

    # kK1 entries returned above, so the H + 1K1 shape is base + 1K1 here
    if m >= 1 and others and all(t.kind == tg.WITH_ISOLATED and t.k == 1 for t in others):
        child = yield union_k1_rewrite(tl)[0]
        if isinstance(child, set):
            missing |= child
        else:
            candidates.append(_node(tl, "UnionK1", (child,)))

    if m >= 1 and all(t.vertex_count >= 2 for t in others):
        chosen: list[DerivationTree] = []
        deletions: list[TargetGraph] = []
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
            deletions.append(best[2])
        else:  # every entry has a derivable deletion
            # Theorem MT needs some r_i > 1 when m = 1
            if m > 1 or any(c.value > 1 for c in chosen):
                mt = _node(tl, "TheoremMT", tuple(chosen), tuple(deletions))
                if mt.notes["vertex_floor"] > mt.value:
                    mt = _node(tl, "MaxWithVertexCount", (mt,))
                candidates.append(mt)

    if not candidates:
        return missing or {tl.key()}
    return _best(candidates)
