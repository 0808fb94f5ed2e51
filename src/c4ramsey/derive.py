"""Memoized upper-bound derivation with an auditable, replayable tree.

Each node records the rule applied, the child derivations supplying its
inputs, and a notes ledger (rule parameters, precondition guards).  A tree
can be re-evaluated bottom-up and must reproduce its conclusion exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from typing import Generator, Optional

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

    def _fields(self) -> dict:
        return {
            "targets": self.targets.key(),
            "rule": self.rule,
            "value": self.value,
            "kind": self.kind,
            "citation": self.citation,
            "notes": self.notes,
            "children": [],
        }

    def to_dict(self) -> dict:
        """Nested dicts, one per written node: a subtree shared by several
        parents gets its own dicts under each one.  Built from an explicit
        stack, so depth needs no recursion limit."""
        root = self._fields()
        stack = [(self, root)]
        while stack:
            node, d = stack.pop()
            for c in node.children:
                cd = c._fields()
                d["children"].append(cd)
                stack.append((c, cd))
        return root

    @staticmethod
    def from_dict(d: dict) -> "DerivationTree":
        """Inverse of to_dict, built bottom-up from an explicit stack."""
        done: list[DerivationTree] = []
        stack = [(d, False)]
        while stack:
            cur, ready = stack.pop()
            if not ready:
                stack.append((cur, True))
                stack.extend((c, False) for c in reversed(cur["children"]))
                continue
            first = len(done) - len(cur["children"])
            children = tuple(done[first:])
            del done[first:]
            done.append(
                DerivationTree(
                    targets=parse_targets(cur["targets"]),
                    rule=cur["rule"],
                    value=cur["value"],
                    kind=cur["kind"],
                    children=children,
                    notes=dict(cur["notes"]),
                    citation=cur.get("citation", ""),
                )
            )
        return done[0]

    def to_json(self, level: int = 0) -> str:
        """json.dumps(self.to_dict(), indent=2), byte for byte, without the
        pure-Python encoder that json.dumps runs whenever indent is set.

        Nodes are written in pre-order from an explicit stack, so depth needs
        no recursion limit, and each node's text is written once at its own
        indentation.  level indents the whole document by that many steps
        after its first line, for embedding it as a value in a larger one."""
        out: list[str] = []
        stack: list = [(self, level)]
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
                continue
            node, lvl = item
            pad0 = "  " * lvl
            pad1 = pad0 + "  "
            out.append(
                f'{{\n{pad1}"targets": {_json_str(node.targets.key())},\n'
                f'{pad1}"rule": {_json_str(node.rule)},\n'
                f'{pad1}"value": {_json_value(node.value, pad1)},\n'
                f'{pad1}"kind": {_json_str(node.kind)},\n'
                f'{pad1}"citation": {_json_str(node.citation)},\n'
                f'{pad1}"notes": {_json_notes(node.notes, pad1)},\n'
                f'{pad1}"children": '
            )
            kids = node.children
            if not kids:
                out.append(f"[]\n{pad0}}}")
                continue
            pad2 = pad1 + "  "
            out.append("[\n" + pad2)
            stack.append(f"\n{pad1}]\n{pad0}}}")
            sep = ",\n" + pad2
            for i in range(len(kids) - 1, 0, -1):
                stack.append((kids[i], lvl + 2))
                stack.append(sep)
            stack.append((kids[0], lvl + 2))
        return "".join(out)

    def written_size(self) -> int:
        """Nodes that to_dict() and render_text() write: a subtree shared by
        several parents is counted once under each one."""
        sizes: dict[int, int] = {}
        stack = [self]
        while stack:
            node = stack[-1]
            todo = [c for c in node.children if id(c) not in sizes]
            if todo:
                stack.extend(todo)
            else:
                stack.pop()
                sizes[id(node)] = 1 + sum(sizes[id(c)] for c in node.children)
        return sizes[id(self)]

    def render_text(self) -> str:
        """One line per node in pre-order, children indented under parents.
        A subtree shared by several parents is written under each one."""
        note_keys = ("deletions", "floors", "vertex_floor", "guard", "star_bound")
        lines = []
        stack = [(self, 0)]
        while stack:
            node, level = stack.pop()
            rel = "=" if node.kind == "exact" else "<="
            cite = f"  [{node.citation}]" if node.citation else ""
            shown = {k: v for k, v in node.notes.items() if k in note_keys and v}
            note = f"  {shown}" if shown else ""
            lines.append(
                f"{'  ' * level}R({node.targets.key()}) {rel} {node.value}  via {node.rule}{cite}{note}"
            )
            stack.extend((c, level + 1) for c in reversed(node.children))
        return "\n".join(lines)


def _json_value(v, pad: str) -> str:
    """v as json.dumps(v, indent=2) writes it on a line indented by pad.
    Strings, ints and flat lists of them are written here; any other value
    goes through json.dumps and has its later lines indented by pad."""
    t = type(v)
    if t is str:
        return _json_str(v)
    if t is int:
        return int.__repr__(v)
    if t is list and all(type(x) is str or type(x) is int for x in v):
        if not v:
            return "[]"
        inner = pad + "  "
        items = [_json_str(x) if type(x) is str else int.__repr__(x) for x in v]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    return json.dumps(v, indent=2).replace("\n", "\n" + pad)


def _json_notes(notes, pad: str) -> str:
    if type(notes) is not dict or not all(type(k) is str for k in notes):
        return _json_value(notes, pad)
    if not notes:
        return "{}"
    inner = pad + "  "
    items = [f"{_json_str(k)}: {_json_value(v, inner)}" for k, v in notes.items()]
    return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"


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
        if id(node) not in seen:
            seen.add(id(node))
            _replay_node(node)
            stack.extend(node.children)


def _replay_node(tree: DerivationTree) -> None:
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
    tl, _dropped = strip_k2(targets)
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
        tl, _dropped = strip_k2(child)
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


def _best(candidates: list[tuple[tuple, DerivationTree]]) -> DerivationTree:
    return min(candidates, key=lambda c: c[0])[1]


def _plan(tl: TargetList, registry: Registry) -> Generator[TargetList, object, object]:
    """Plan one K2-free list.  Yields each child list it needs and is sent
    back that list's tree, or its set of missing facts; returns this list's
    best tree, or its own set of missing facts."""
    candidates: list[tuple[tuple, DerivationTree]] = []
    missing: set[str] = set()

    fact = registry.best_upper(tl)
    if fact is not None:
        candidates.append(((fact.value, 0), _registry_leaf(tl, fact)))

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
        # No other rule can win here, whatever the registry holds: Parsons,
        # BookCor and StarsCor need star or book entries only; UnionK1's
        # floors include |V(kK1)| = k, and TheoremMT's value (and so
        # MaxWithVertexCount's) is at least its vertex floor, which is >= k.
        # Both rank after TrivialEmpty on a tie, so no child is planned.
        return _best(candidates)

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
            children = (_registry_leaf(star_list, star_fact),)
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

    if m >= 1 and others:
        try:
            inner, floors = union_k1_rewrite(tl)
        except ValueError:
            inner = None
        if inner is not None:
            child = yield inner
            if isinstance(child, set):
                missing |= child
            else:
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

    if m >= 1 and all(t.vertex_count >= 2 for t in others):
        chosen: list[DerivationTree] = []
        deletions: list[str] = []
        for i, gi in enumerate(others):
            best = None
            for opt in sorted(tg.delete_options(gi), key=_option_sort_key):
                child = yield tl.replace_other(i, opt)
                if isinstance(child, set):
                    missing |= child
                    continue
                ck = (child.value,) + _option_sort_key(opt)
                if best is None or ck < best[0]:
                    best = (ck, child, opt)
            if best is None:
                break
            chosen.append(best[1])
            deletions.append(f"{gi}->{best[2]}")
        else:  # every entry has a derivable deletion
            mt = _theorem_mt_node(tl, chosen, deletions)
            if mt is not None:
                candidates.append(((mt.value, 3), mt))

    if not candidates:
        return missing or {tl.key()}
    return _best(candidates)


def _theorem_mt_node(
    tl: TargetList, chosen: list[DerivationTree], deletions: list[str]
) -> Optional[DerivationTree]:
    m, others = tl.m, tl.others
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
