"""The contract of the package's seven value classes.

TargetGraph, TargetList, RamseyFact, BoundQuery, SearchBudget,
SearchOutcome and DerivationTree each compare and hash by their fields
(DerivationTree by identity), print as Name(field=value, ...), refuse
assignment and deletion, and come back equal from pickle and deepcopy.
EdgeColoring, a SearchOutcome's witness, and SimpleGraph pickle through
their constructors too, at every protocol.
"""

import copy
import pickle

import pytest

from c4ramsey import (
    BoundQuery,
    DerivationTree,
    EdgeColoring,
    RamseyFact,
    SearchBudget,
    SearchOutcome,
    SimpleGraph,
    derive,
    seed_registry,
)
from c4ramsey.targets import CYCLE4, TargetList, clique, parse_targets, star, with_isolated

C4_REPR = "TargetGraph(kind='cycle4', k=0, base=None)"
K3_REPR = "TargetGraph(kind='clique', k=3, base=None)"
C4_K3_REPR = f"TargetList(targets=({C4_REPR}, {K3_REPR}))"


PROTOCOLS = range(0, pickle.HIGHEST_PROTOCOL + 1)


def fact(value=7):
    return RamseyFact(parse_targets("K3,C4"), "lower", value, "computed: x", "computational")


# name: (make, another, repr of make(), the fields)
CASES = {
    "TargetGraph": (
        lambda: with_isolated(clique(3), 2),
        lambda: with_isolated(clique(3), 1),
        f"TargetGraph(kind='with_isolated', k=2, base={K3_REPR})",
        ("kind", "k", "base"),
    ),
    "TargetList": (
        lambda: TargetList((clique(3), CYCLE4)),
        lambda: TargetList((CYCLE4, star(3))),
        C4_K3_REPR,
        ("targets",),
    ),
    "RamseyFact": (
        fact,
        lambda: fact(8),
        f"RamseyFact(targets={C4_K3_REPR}, kind='lower', value=7, citation='computed: x', trust='computational')",
        ("targets", "kind", "value", "citation", "trust"),
    ),
    "BoundQuery": (
        lambda: BoundQuery(2, [3, 4]),
        lambda: BoundQuery(2, (4, 3)),
        "BoundQuery(m=2, r=(3, 4))",
        ("m", "r"),
    ),
    "SearchBudget": (
        SearchBudget,
        lambda: SearchBudget(node_limit=10, time_limit=1.5),
        "SearchBudget(node_limit=50000000, time_limit=600.0)",
        ("node_limit", "time_limit"),
    ),
    "SearchOutcome": (
        lambda: SearchOutcome("feasible", 3, 0.5, EdgeColoring(3, 2, [0, 1, 0]), "note"),
        lambda: SearchOutcome("feasible", 3, 0.5, EdgeColoring(3, 2, [0, 1, 1]), "note"),
        "SearchOutcome(status='feasible', nodes_explored=3, wall_time=0.5, "
        "witness=EdgeColoring(n=3, c=2), certificate_note='note')",
        ("status", "nodes_explored", "wall_time", "witness", "certificate_note"),
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_equality_and_hash_are_field_wise(name):
    make, another, _, _ = CASES[name]
    a, b, other = make(), make(), another()
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != other and not a == other
    assert len({a, b, other}) == 2
    assert a != object() and a != ()


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    make, _, text, _ = CASES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", CASES)
def test_assignment_and_deletion_raise(name):
    make, _, _, fields = CASES[name]
    x = make()
    for attr in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, attr, 1)
        with pytest.raises(AttributeError):
            delattr(x, attr)
    assert x == make()


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", CASES)
def test_pickle_round_trip(name, protocol):
    x = CASES[name][0]()
    y = pickle.loads(pickle.dumps(x, protocol))
    assert y == x and hash(y) == hash(x)
    assert (repr(y), str(y)) == (repr(x), str(x))


@pytest.mark.parametrize("name", CASES)
def test_deepcopy_round_trip(name):
    x = CASES[name][0]()
    y = copy.deepcopy(x)
    assert y == x and hash(y) == hash(x)
    assert (repr(y), str(y)) == (repr(x), str(x))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_simple_graph_pickle_round_trip(protocol):
    x = SimpleGraph(5, [(0, 1), (1, 4), (2, 3)])
    for y in (pickle.loads(pickle.dumps(x, protocol)), copy.deepcopy(x)):
        assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
        y.add_edge(0, 2)
        assert y != x and not x.has_edge(0, 2)


def test_target_graph_hashes_by_its_name():
    for t in (CYCLE4, clique(5), star(3), with_isolated(clique(3), 2)):
        assert hash(t) == hash(str(t))


def test_derived_fields_survive_a_round_trip():
    t = with_isolated(star(3), 2)
    tl = TargetList((t, clique(4), CYCLE4))
    for y in (pickle.loads(pickle.dumps(tl)), copy.deepcopy(tl)):
        assert (y.m, y.key(), y.others) == (1, "C4,K4,S3+2K1", tl.others)
        assert [(u.vertex_count, str(u)) for u in y] == [(4, "C4"), (4, "K4"), (6, "S3+2K1")]


class TestDerivationTree:
    """Nodes compare by identity; two trees are equal when their node
    tables, to_dict(), are."""

    @staticmethod
    def tree():
        tree = derive(parse_targets("C4,C4,K4,K4"), seed_registry())
        occurrences, stack = 0, [tree]
        while stack:
            occurrences += 1
            stack.extend(stack.pop().children)
        assert len(tree.to_dict()["nodes"]) < occurrences  # some node has two parents
        return tree

    def test_equality_and_hash_are_by_identity(self):
        a, b = self.tree(), self.tree()
        assert a == a and a != b and hash(a) == object.__hash__(a)
        assert a.to_dict() == b.to_dict()

    def test_repr(self):
        tl = parse_targets("C4,K3")
        leaf = DerivationTree(tl, "TrivialEmpty", 3, "upper", notes={"m": 1}, citation="c")
        node = DerivationTree(tl, "R", 4, "exact", (leaf,))
        leaf_text = f"DerivationTree(targets={C4_K3_REPR}, rule='TrivialEmpty', value=3, kind='upper', children=(), notes={{'m': 1}}, citation='c')"
        assert repr(leaf) == leaf_text
        assert repr(node) == f"DerivationTree(targets={C4_K3_REPR}, rule='R', value=4, kind='exact', children=({leaf_text},), notes={{}}, citation='')"

    def test_assignment_and_deletion_raise(self):
        x = self.tree()
        for attr in ("targets", "rule", "value", "kind", "children", "notes", "citation", "extra"):
            with pytest.raises(AttributeError):
                setattr(x, attr, 1)
            with pytest.raises(AttributeError):
                delattr(x, attr)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_pickle_round_trip_keeps_shared_nodes(self, protocol):
        x = self.tree()
        y = pickle.loads(pickle.dumps(x, protocol))
        assert y is not x and y.to_dict() == x.to_dict() and repr(y) == repr(x)

    def test_deepcopy_round_trip_keeps_shared_nodes(self):
        x = self.tree()
        y = copy.deepcopy(x)
        assert y is not x and y.to_dict() == x.to_dict() and repr(y) == repr(x)
