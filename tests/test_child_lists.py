"""The child lists derive's rules yield, and the nodes they conclude.

The rules build each child list K2-free where they ask for it, and derive()
and replay() look it up as it comes, without stripping it again.  These
tests run every rule on every list that planning the derive-cli family
meets and check that each list it yields is K2-free and equal to
strip_k2 of the list the rule rewrites.  They also check that a node made
by DerivationTree's own __init__ is frozen and has notes of its own.
"""

import sys

import pytest

from c4ramsey import CannotDeriveError, derive, seed_registry
from c4ramsey.targets import WITH_ISOLATED, TargetList, parse_targets, strip_k2

from test_derive_json import POOL_LISTS

dv = sys.modules["c4ramsey.derive"]  # the package's `derive` is the function


def planned_lists(monkeypatch) -> list[TargetList]:
    """Every list derive() plans for the family lists under the seed registry."""
    seen, plan = [], dv._plan

    def recorded(tl, registry):
        seen.append(tl)
        return plan(tl, registry)

    monkeypatch.setattr(dv, "_plan", recorded)
    registry = seed_registry()
    for text in POOL_LISTS:
        try:
            derive(parse_targets(text), registry)
        except CannotDeriveError:
            pass
    monkeypatch.undo()
    return seen


def yielded(rule, tl: TargetList) -> list[TargetList]:
    """The lists rule yields on tl, each answered with a Registry leaf of
    value 2, so that TheoremMT goes on to every entry."""
    steps = rule(tl, seed_registry())
    if steps is None or type(steps) is dv.DerivationTree:
        return []
    got, sent = [], None
    try:
        while True:
            child = steps.send(sent)
            got.append(child)
            sent = dv.DerivationTree(child, "Registry", 2, "exact")
    except StopIteration:
        return got


def rewrites(tl: TargetList) -> tuple[list, list]:
    """The lists TheoremMT and UnionK1 rewrite tl into, before strip_k2."""
    others = tl.others
    mt = []
    if tl.m >= 1 and (not others or others[0].vertex_count >= 2):
        mt = [tl.replace_other(i, opt) for i, gi in enumerate(others) for opt, _ in dv._ordered_deletions(gi)]
    union = tl.m >= 1 and others and all(t.kind == WITH_ISOLATED and t.k == 1 for t in others)
    return mt, [TargetList(tl.targets[: tl.m] + tuple(t.base for t in others))] if union else []


def as_keys(lists) -> list:
    return [(x.key(), x.m, x.targets) for x in lists]


def test_every_yielded_list_is_k2_free_and_rewritten(monkeypatch):
    lists = planned_lists(monkeypatch)
    assert len(lists) > 3000
    stripped = unions = 0
    for tl in lists:
        mt, inner = rewrites(tl)
        got = yielded(dv._theorem_mt, tl) + yielded(dv._union_k1, tl)
        assert as_keys(got) == as_keys([strip_k2(x) for x in mt + inner]), tl.key()
        for child in got:
            assert strip_k2(child) is child, (tl.key(), child.key())
        stripped += sum(strip_k2(x) is not x for x in mt + inner)
        unions += bool(inner)
    assert stripped > 100  # rewrites that make a K2 entry, which the rules strip
    assert unions > 10


def test_a_union_k1_inner_list_comes_k2_free():
    [inner] = yielded(dv._union_k1, parse_targets("C4,C4,K2+1K1,K3+1K1"))
    assert inner.key() == "C4,C4,K3"


def test_nodes_are_frozen_and_keep_their_own_notes():
    tl = parse_targets("C4,K3")
    a, b = dv.DerivationTree(tl, "TrivialEmpty", 3, "upper"), dv.DerivationTree(tl, "TrivialEmpty", 3, "upper")
    assert a.notes == {} and a.notes is not b.notes
    assert (a.children, a.citation) == ((), "")
    with pytest.raises(AttributeError):
        a.value = 2
    c = dv.DerivationTree(a.targets, a.rule, 2, a.kind, notes={"m": 1})
    assert (c.targets, c.rule, c.value, c.kind, c.notes) == (tl, "TrivialEmpty", 2, "upper", {"m": 1})
    assert c != a  # nodes compare by identity
