"""DerivationTree.to_json against the stdlib: json.dumps(to_dict(), indent=2).

The writer must give the same bytes on planner trees (the golden lists, the
paper's table rows, every 1- and 2-C4 list over the pools below, among them the
491-node chain of C4,K500) and on hand-built trees whose notes and
citations hold what a planner never writes: non-ASCII, quotes, control
characters, bools, None, floats, nested and empty lists and dicts.
"""

import itertools
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from c4ramsey import CannotDeriveError, DerivationTree, derive, replay, seed_registry
from c4ramsey.targets import parse_targets, strip_k2

from test_derive_golden import GOLDEN

# The stdlib's indenting encoder recurses about twice per tree level.
DEEP_LIMIT = 10_000

TABLE_ROWS = [
    "C4,K11", "C4,K12", "C4,K3,K4", "C4,K4,K4",
    "C4,K3,K3,K3", "C4,C4,K3,K4", "C4,C4,K4,K4", "C4,B17",
]

# Entries beside the one or two C4s, by list width.
POOLS = {
    1: [f"K{k}" for k in range(3, 13)]
    + [f"S{k}" for k in (2, 3, 5, 9, 17)]
    + [f"B{k}" for k in (2, 3, 5, 9, 17)]
    + ["K3+1K1", "K5+1K1", "S4+1K1", "B3+1K1", "3K1"],
    2: ["K3", "K4", "K5", "K6", "K8", "S5", "S9", "B3", "B8", "K4+1K1"],
    3: ["K3", "K4", "K5", "S5", "B3", "K3+1K1"],
}
POOL_LISTS = [
    ",".join(("C4",) * m + combo)
    for m in (1, 2)
    for width, pool in POOLS.items()
    for combo in itertools.combinations_with_replacement(pool, width)
]


def stdlib_json(tree: DerivationTree) -> str:
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, DEEP_LIMIT))
    try:
        return json.dumps(tree.to_dict(), indent=2)
    finally:
        sys.setrecursionlimit(limit)


def assert_planner_trees_match(lists):
    reg = seed_registry()
    written = 0
    for text in lists:
        try:
            tree = derive(parse_targets(text), reg)
        except CannotDeriveError:
            continue
        assert tree.to_json() == stdlib_json(tree), text
        written += 1
    return written


def test_golden_lists():
    assert "C4,K500" in GOLDEN
    assert assert_planner_trees_match(GOLDEN) == len(GOLDEN) - 1  # C4,K3 cannot be derived


def test_table_rows():
    assert assert_planner_trees_match(TABLE_ROWS) == len(TABLE_ROWS)


def test_pool_lists():
    assert len(POOL_LISTS) == 272
    assert assert_planner_trees_match(POOL_LISTS) > 200


def test_deep_dict_round_trip_needs_no_recursion_limit():
    limit = sys.getrecursionlimit()
    tree = derive(parse_targets("C4,K1200"), seed_registry())
    again = DerivationTree.from_dict(tree.to_dict())
    assert sys.getrecursionlimit() == limit
    replay(again)
    assert again.value == 367_690
    # DerivationTree.__eq__ recurses, so the trees are compared as JSON
    assert again.to_json() == tree.to_json()


# Strings a planner never writes: quotes, backslashes, control characters,
# line and paragraph separators, non-ASCII and astral characters.
TEXT = st.one_of(
    st.text(),
    st.text(st.sampled_from('a"\\/\n\r\t\x00\x1f\x7fé€\u2028\U0001f600'), max_size=6),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    TEXT,
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(TEXT, inner, max_size=3)),
    max_leaves=8,
)
NOTES = st.dictionaries(
    TEXT,
    st.one_of(
        VALUES,
        st.lists(st.one_of(st.integers(), TEXT, st.booleans()), max_size=3),
    ),
    max_size=4,
)
NODE_TARGETS = st.sampled_from(["C4,K3", "C4,C4,K4+1K1", "C4,S5,B3", "C4,3K1"]).map(
    lambda text: strip_k2(parse_targets(text))[0]
)


def _node(children):
    return st.builds(
        DerivationTree,
        targets=NODE_TARGETS,
        rule=TEXT,
        value=st.integers(),
        kind=st.sampled_from(["exact", "upper"]),
        children=children,
        notes=NOTES,
        citation=TEXT,
    )


TREES = st.recursive(
    _node(st.just(())),
    lambda inner: _node(st.lists(inner, min_size=1, max_size=3).map(tuple)),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(TREES, st.integers(0, 3))
def test_hand_built_trees(tree, level):
    # JSON strings escape newlines, so every newline in the document is layout
    expected = json.dumps(tree.to_dict(), indent=2).replace("\n", "\n" + "  " * level)
    assert tree.to_json(level) == expected


@pytest.mark.parametrize("notes", [{1: "x"}, {True: 1, None: [], "a": {}}, {2.5: [[]]}, []])
def test_notes_outside_the_planner_shape(notes):
    tree = DerivationTree(parse_targets("C4,K3"), "Registry", 7, "exact", notes=notes)
    assert tree.to_json(2) == json.dumps(tree.to_dict(), indent=2).replace("\n", "\n    ")
