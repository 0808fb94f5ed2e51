"""Memoized upper-bound derivation with an auditable, replayable tree.

Each derivation rule is one function in _RULES.  derive() runs them all on
every list it plans; replay() runs a node's own rule, answering it from the
node's children, and compares what the rule concludes with the node.

A rule builds the child lists it yields K2-free, where it asks for them, so
derive() looks each up in its memo as it comes.  Nothing is kept from one
call to the next: a one-shot `c4ramsey derive` pays what a long-running
process pays.
"""

from __future__ import annotations

import functools
from typing import Generator

from . import targets as tg
from ._record import Record
from .bounds import BoundQuery, theorem_mt_bound
from .registry import Registry, seed_registry
from .targets import TargetGraph, TargetList, parse_targets, strip_k2


class DerivationTree(Record):
    """One node of a derivation.  derive() shares a subtree between all the
    parents that use it, so nodes compare by identity; two trees are compared
    through their node tables, to_dict(), which are flat.  kind is "exact"
    or "upper"; notes is a new dict where none is given."""

    _fields = ("targets", "rule", "value", "kind", "children", "notes", "citation")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, targets: TargetList, rule: str, value: int, kind: str,
                 children: tuple["DerivationTree", ...] = (), notes: dict | None = None, citation: str = ""):
        # derive() makes a node for most lists it plans, so the fields go
        # straight into __dict__ in two tuple writes, quicker than seven
        # set_field calls
        fields = self.__dict__
        fields["targets"], fields["rule"], fields["value"], fields["kind"] = targets, rule, value, kind
        fields["children"], fields["notes"], fields["citation"] = children, {} if notes is None else notes, citation

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
        note_keys = ("deletions", "floors")
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
    """Run every node's own rule on its targets, answering each child list
    the rule asks for with the node's child on that list, and raise
    ReplayError where the rule does not conclude the same children, notes,
    value, kind and citation.  Registry facts come from registry (None:
    seed_registry()).  A node that derive() shares is checked once."""
    if registry is None:
        registry = seed_registry()
    seen: set[int] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        tl, kids, rule = node.targets, node.children, _RULES.get(node.rule)
        if rule is None:
            raise ReplayError(f"unknown rule {node.rule!r}")
        try:
            want = rule(tl, registry)
            if want is not None and type(want) is not DerivationTree:
                want = _answered(want, {kid.targets.key(): kid for kid in kids})
        except ValueError as e:  # a bound formula refused the rebuilt inputs
            raise ReplayError(f"{node.rule} on {tl}: {e}") from e
        if want is None or [(k.targets, k.rule) for k in want.children] != [(k.targets, k.rule) for k in kids]:
            raise ReplayError(f"{node.rule} does not apply to {tl} with children {[str(k.targets) for k in kids]}")
        for name in ("notes", "value", "kind", "citation"):
            got, expected = getattr(node, name), getattr(want, name)
            if got != expected:
                if name == "notes" and isinstance(got, dict):  # name the keys, r as "r-values"
                    keys = [k for k in {**expected, **got} if got.get(k, ...) != expected.get(k, ...)]
                    name = f"notes ({', '.join(str(_NOTE_NAMES.get(k, k)) for k in keys)})"
                raise ReplayError(f"{node.rule} on {tl}: {name} {got!r} rebuilds as {expected!r}")
        stack.extend(kids)


_NOTE_NAMES = {"r": "r-values"}


def _answered(steps: Generator, children: dict[str, DerivationTree]) -> DerivationTree | None:
    """Run a rule's generator to its end, answering each child list it yields
    with the child on that list (K2-free), or else as missing, and return
    the node it concludes."""
    sent = None
    try:
        while True:
            key = steps.send(sent).key()
            sent = children.get(key) or {key}
    except StopIteration as done:
        return done.value


class CannotDeriveError(ValueError):
    """No rule chain reaches the requested targets; lists the missing facts."""

    def __init__(self, missing: set[str]):
        self.missing = sorted(missing)
        super().__init__("cannot derive; missing facts for: " + ", ".join(self.missing))


@functools.lru_cache(maxsize=256)
def _ordered_deletions(t: TargetGraph) -> tuple[tuple[TargetGraph, str], ...]:
    """delete_options(t) in the order the planner tries them, by vertex
    count and then name (targets._sort_key), each with its TheoremMT note
    "t->option".  Targets are frozen, so this is kept for the 256 targets
    used last: all 279 lists of the derive-cli benchmark family meet 55,
    while a chain such as C4,K5000 meets thousands and uses each once."""
    options = sorted(tg.delete_options(t), key=tg._sort_key)
    return tuple((opt, f"{t}->{opt}") for opt in options)


# derive refuses a list whose plan_size exceeds this.  Just below it,
# planning C4,K5792 or C4,S34,S34,S34 took 0.5-0.9 s and under 0.1 GB on a
# 2-core x86 machine; C4,K3+1K1,K4+1K1,K4990 (plan size 5e8) took 11.5 s
# and 1.1 GB with its text tree, and C4,K60000 ran out of memory.
MAX_PLAN_SIZE = 2**25


def _reach(t: TargetGraph) -> int:
    """How many targets deleting vertices one at a time turns t into, t
    included: K_k and kK1 k (down to one vertex); S_k 2k (S_k..S2, K2 and
    jK1 for j <= k); B_k 3k (B_k..B2, K3 and S_k's); C4 5 (C4, S2, K2, 2K1
    and K1).  For H + tK1 at most t + 1 times H's."""
    times = 1
    if t.kind == tg.WITH_ISOLATED:  # its base is never H + sK1 itself
        times, t = t.k + 1, t.base
    return times * {tg.CLIQUE: t.k, tg.EMPTY: t.k, tg.STAR: 2 * t.k, tg.BOOK: 3 * t.k, tg.CYCLE4_KIND: 5}[t.kind]


def plan_size(tl: TargetList) -> int:
    """The work derive may do on tl: the lists its non-C4 entries can reach
    (the product of their _reach) times the longest chain of deletions (their
    total vertex count), along which a text tree indents."""
    lists, depth = 1, 0
    for t in tl.others:
        lists *= _reach(t)
        depth += t.vertex_count
    return lists * depth


def derive(targets: TargetList, registry: Registry) -> DerivationTree:
    """Best upper bound derivable for the target list from the registry: the
    smallest any rule of _RULES concludes.  Raises CannotDeriveError listing
    unresolvable leaves.

    Every rule's child lists have fewer vertices in total than the parent,
    so the evaluation ends without any cap.  It is one loop over a stack of
    _plan generators, not Python recursion, so long chains such as C4,K1200
    need no recursion limit.  The loop answers each child list a rule yields
    from a memo of trees and sets of missing facts, so each list is planned
    once.  A list whose plan_size exceeds MAX_PLAN_SIZE raises ValueError.
    """
    root = strip_k2(targets)
    size = plan_size(root)
    if size > MAX_PLAN_SIZE:
        raise ValueError(f"{root.key()} is too large to plan: plan size {size} > {MAX_PLAN_SIZE}")
    memo: dict[str, DerivationTree | set[str]] = {}

    def frame(tl: TargetList) -> tuple:  # a list, its plan, the facts missing
        return tl, _plan(tl, registry), set()

    stack = [frame(root)]
    result = None
    while stack:
        tl, plan, missing = stack[-1]
        try:
            while True:  # answer the plan's child lists from the memo until one is new
                if isinstance(result, set):
                    missing |= result
                child = plan.send(result)
                result = memo.get(child.key())
                if result is None:
                    break
        except StopIteration as done:
            stack.pop()
            result = memo[tl.key()] = done.value or missing or {tl.key()}
            continue
        stack.append(frame(child))
    if isinstance(result, set):
        raise CannotDeriveError(result)
    return result


def _plan(tl: TargetList, registry: Registry) -> Generator:
    """Plan one K2-free list: run the rules of _RULES in order and return the
    node with the smallest value, or None.  Among equal values the node
    planned first, so the earlier rule, wins."""
    best = None
    for rule in _RULES.values():
        node = rule(tl, registry)
        if node is not None and type(node) is not DerivationTree:
            node = yield from node
        if node is None:
            continue
        if best is None or node.value < best.value:
            best = node
        if node.rule == "TrivialEmpty":
            # No later rule can win here: UnionK1 needs every other entry to
            # be H+1K1, and TheoremMT's value exceeds k, because the kK1 entry
            # gives r >= k - 1 (the registry holds no upper bound below the
            # trivial lower bound).  So no child is planned.
            break
    return best


# The rules.  Each takes a K2-free list and the registry.  A rule that needs
# no child derivation returns its node, or None where it does not apply.  A
# rule that does returns a generator (or None where it does not apply): it
# yields each child list, K2-free, is sent back that list's tree or its set of
# missing facts, and returns its node, or None.


def _registry(tl: TargetList, registry: Registry) -> DerivationTree | None:
    """The registry's best upper bound for the list itself."""
    fact = registry.best_upper(tl)
    if fact is None:
        return None
    kind = "exact" if fact.kind == "exact" else "upper"
    return DerivationTree(tl, "Registry", fact.value, kind, (), {"trust": fact.trust}, fact.citation)


def _trivial_empty(tl: TargetList, registry: Registry) -> DerivationTree | None:
    """R(..., kK1, ...) <= k: any k vertices hold kK1 in every color."""
    ks = [t.k for t in tl.others if t.kind == tg.EMPTY]
    if not ks:
        return None
    k = min(ks)
    return DerivationTree(tl, "TrivialEmpty", k, "upper")


def _union_k1(tl: TargetList, registry: Registry) -> Generator | None:
    """R(C4s, H_1+K1, ...) <= max(R(C4s, H_1, ...), |V(H_i)| + 1).  Most
    lists are not of its shape, so it answers them without a generator."""
    others = tl.others
    if (tl.m < 1 or not others or others[0].kind != tg.WITH_ISOLATED  # the common miss, tested first
            or any(t.kind != tg.WITH_ISOLATED or t.k != 1 for t in others)):
        return None
    return _union_k1_steps(tl)


def _union_k1_steps(tl: TargetList) -> Generator:
    child = yield strip_k2(TargetList(tl.targets[:tl.m] + tuple(t.base for t in tl.others)))
    if isinstance(child, set):
        return None
    floors = [t.vertex_count for t in tl.others]
    return DerivationTree(tl, "UnionK1", max([child.value] + floors), child.kind, (child,), {"floors": floors})


def _theorem_mt(tl: TargetList, registry: Registry) -> Generator:
    """Theorem MT, R(L) <= theorem_mt_bound(m, r), where r_i bounds L with its
    i-th non-C4 entry G_i replaced by G_i minus a vertex: for each entry, the
    deletion with the smallest derived value, then the smallest option."""
    m, others = tl.m, tl.others
    if m < 1 or (others and others[0].vertex_count < 2):  # others are sorted by vertex count
        return None
    chosen: list[DerivationTree] = []
    cuts: list[str] = []
    for i, gi in enumerate(others):
        best = None
        for opt, cut in _ordered_deletions(gi):
            child = tl.replace_other(i, opt)
            if opt.kind == tg.CLIQUE and opt.k == 2:  # tl is K2-free, so only a new K2 can need stripping
                child = strip_k2(child)
            child = yield child
            # options come in _ordered_deletions order, so among equal values the first is kept
            if not isinstance(child, set) and (best is None or child.value < best.value):
                best, best_cut = child, cut
        if best is None:
            return None
        chosen.append(best)
        cuts.append(best_cut)
    r = [c.value for c in chosen]
    if m == 1 and all(v <= 1 for v in r):  # Theorem MT needs some r_i > 1 when m = 1
        return None
    notes = {"m": m, "n": len(others), "r": r, "deletions": cuts}
    return DerivationTree(tl, "TheoremMT", theorem_mt_bound(BoundQuery(m, r)), "upper", tuple(chosen), notes)


_RULES = {"Registry": _registry, "TrivialEmpty": _trivial_empty, "UnionK1": _union_k1, "TheoremMT": _theorem_mt}
