"""DerivationTree.to_dict: the node table that `derive --json` prints.

Each distinct node object is written once, children before their parents and
the root last, with a node's children given as indices of earlier nodes.
from_dict rebuilds the tree in one forward pass.  This holds on planner trees
(the golden lists, the paper's table rows, every 1- and 2-C4 list over the
pools below, among them the 491-node chain of C4,K500) and on hand-built
trees that share subtrees and whose notes and citations hold what a planner
never writes: non-ASCII, quotes, control characters, bools, None, floats,
nested and empty lists and dicts.
"""

import hashlib
import itertools
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from c4ramsey import CannotDeriveError, DerivationTree, derive, replay, seed_registry
from c4ramsey.cli import run
from c4ramsey.targets import parse_targets, strip_k2

from test_derive_golden import GOLDEN, nested_json, nested_text

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


# sha256 over "LIST MODE CODE\n" + stdout for every POOL_LISTS entry in sorted
# order, JSON mode (MODE 1) before text (MODE 0), taken from the nested output
# that `derive` printed before it wrote node tables.
NESTED_POOL_DIGEST = "b09acf9fffe5d2285b08ad6d904aeb9078e12d6df644a12467902bf35b495d9b"


def distinct_nodes(tree: DerivationTree) -> int:
    seen = {id(tree)}
    stack = [tree]
    while stack:
        for c in stack.pop().children:
            if id(c) not in seen:
                seen.add(id(c))
                stack.append(c)
    return len(seen)


def assert_node_table(tree: DerivationTree) -> dict:
    table = tree.to_dict()
    nodes = table["nodes"]
    assert len(nodes) == distinct_nodes(tree)
    for i, node in enumerate(nodes):
        assert all(0 <= c < i for c in node["children"])
    root = nodes[-1]
    assert (root["targets"], root["rule"], root["value"]) == (tree.targets.key(), tree.rule, tree.value)
    again = DerivationTree.from_dict(json.loads(json.dumps(table, indent=2)))
    assert again.to_dict() == table
    return table


def assert_planner_tables(lists):
    reg = seed_registry()
    written = 0
    for text in lists:
        try:
            tree = derive(parse_targets(text), reg)
        except CannotDeriveError:
            continue
        replay(DerivationTree.from_dict(assert_node_table(tree)))
        written += 1
    return written


def test_golden_lists():
    assert "C4,K500" in GOLDEN
    assert assert_planner_tables(GOLDEN) == len(GOLDEN) - 1  # C4,K3 cannot be derived


def test_table_rows():
    assert assert_planner_tables(TABLE_ROWS) == len(TABLE_ROWS)


def test_pool_lists():
    assert len(POOL_LISTS) == 272
    assert assert_planner_tables(POOL_LISTS) > 200


def test_pool_lists_expand_to_the_nested_output(capsys):
    digest = hashlib.sha256()
    for text in sorted(POOL_LISTS):
        for mode, extra, nested in ((1, ["--json"], nested_json), (0, [], nested_text)):
            code = run(["derive", text, *extra])
            out = nested(capsys.readouterr().out)
            digest.update(f"{text} {mode} {code}\n{out}".encode())
    assert digest.hexdigest() == NESTED_POOL_DIGEST


def test_shared_subtree_is_written_once():
    tree = derive(parse_targets("C4,C4,K5,K5,K5"), seed_registry())
    assert len(assert_node_table(tree)["nodes"]) == 18


def test_deep_dict_round_trip_needs_no_recursion_limit():
    limit = sys.getrecursionlimit()
    tree = derive(parse_targets("C4,K1200"), seed_registry())
    other = derive(parse_targets("C4,K1200"), seed_registry())
    again = DerivationTree.from_dict(tree.to_dict())
    replay(again)
    assert again.value == 367_690
    # trees compare by identity; their flat node tables compare by content
    assert tree != other and len({tree, other, again}) == 3
    assert again.to_dict() == tree.to_dict() == other.to_dict()
    assert sys.getrecursionlimit() == limit


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
    lambda text: strip_k2(parse_targets(text))
)


def _node(children, words=TEXT, value=st.integers()):
    return st.builds(
        DerivationTree,
        targets=NODE_TARGETS,
        rule=words,
        value=value,
        kind=st.sampled_from(["exact", "upper"]),
        children=children,
        notes=NOTES,
        citation=words,
    )


@st.composite
def shared_trees(draw, words=TEXT, numbered=False):
    """A tree whose nodes may each feed several later parents.  numbered
    gives node i the value i, so no two nodes write the same text line."""
    built: list[DerivationTree] = []
    for _ in range(draw(st.integers(1, 8))):
        kids = draw(st.lists(st.sampled_from(built), max_size=3)) if built else []
        value = st.just(len(built)) if numbered else st.integers()
        built.append(draw(_node(st.just(tuple(kids)), words, value)))
    return built[-1]


def unshared(tree: DerivationTree) -> DerivationTree:
    """The same tree with a new object for every written occurrence."""
    children = tuple(unshared(c) for c in tree.children)
    return DerivationTree(tree.targets, tree.rule, tree.value, tree.kind, children, tree.notes, tree.citation)


@settings(max_examples=200, deadline=None)
@given(shared_trees())
def test_hand_built_trees(tree):
    assert_node_table(tree)


@settings(max_examples=100, deadline=None)
@given(shared_trees(words=st.sampled_from(["", "Rule", "cite"]), numbered=True))
def test_hand_built_text_writes_each_subtree_once(tree):
    text = tree.render_text()
    # a node with children is written in full once, so each line after the
    # root's is one child slot of one table entry
    table = tree.to_dict()
    assert len(text.split("\n")) == 1 + sum(len(node["children"]) for node in table["nodes"])
    assert nested_text(text) == unshared(tree).render_text()


@pytest.mark.parametrize("notes", [{1: "x"}, {True: 1, None: [], "a": {}}, {2.5: [[]]}, []])
def test_notes_outside_the_planner_shape(notes):
    # the table hands notes to the stdlib encoder as they are
    tree = DerivationTree(parse_targets("C4,K3"), "Registry", 7, "exact", notes=notes)
    (node,) = tree.to_dict()["nodes"]
    assert node["notes"] is notes
    written = json.loads(json.dumps(tree.to_dict(), indent=2))["nodes"][0]["notes"]
    assert written == json.loads(json.dumps(notes))
