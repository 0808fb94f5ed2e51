import itertools

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from c4ramsey import (
    SimpleGraph,
    book,
    clique,
    contains_target,
    delete_options,
    empty_graph,
    parse_target,
    parse_targets,
    star,
    with_isolated,
)
from c4ramsey import DerivationTree, seed_registry
from c4ramsey import targets as tg
from c4ramsey.derive import _union_k1
from c4ramsey.targets import (
    CYCLE4,
    TargetGraph,
    TargetList,
    TargetParseError,
    parse_target_sequence,
    strip_k2,
    target_edges,
)

# Targets from the factory functions, nested with_isolated included.
TARGETS = st.recursive(
    st.one_of(
        st.builds(clique, st.integers(1, 12)),
        st.builds(star, st.integers(1, 20)),
        st.builds(book, st.integers(1, 20)),
        st.builds(empty_graph, st.integers(1, 9)),
        st.just(CYCLE4),
    ),
    lambda inner: st.builds(with_isolated, inner, st.integers(1, 4)),
    max_leaves=4,
)


def written_name(t) -> str:
    """The written form of a target, built up from its fields."""
    if t.kind == tg.WITH_ISOLATED:
        return f"{written_name(t.base)}+{t.k}K1"
    return {
        tg.CLIQUE: f"K{t.k}",
        tg.CYCLE4_KIND: "C4",
        tg.STAR: f"S{t.k}",
        tg.BOOK: f"B{t.k}",
        tg.EMPTY: f"{t.k}K1",
    }[t.kind]


def isolated_count(t) -> int:
    if t.kind == tg.EMPTY:
        return t.k
    if t.kind == tg.WITH_ISOLATED:
        return isolated_count(t.base) + t.k
    return 0


class TestVertexCounts:
    @pytest.mark.parametrize(
        "t,count",
        [
            (clique(5), 5),
            (CYCLE4, 4),
            (star(3), 4),
            (book(2), 4),
            (empty_graph(7), 7),
            (with_isolated(clique(3), 2), 5),
        ],
    )
    def test_counts(self, t, count):
        assert t.vertex_count == count


class TestStoredFields:
    @given(TARGETS)
    def test_name_and_size_match_the_definitions(self, t):
        assert str(t) == written_name(t)
        assert parse_target(str(t)) == t
        on_edges = {v for edge in target_edges(t) for v in edge}
        assert t.vertex_count == len(on_edges) + isolated_count(t)

    @given(TARGETS)
    def test_equal_targets_hash_equal(self, t):
        twin = TargetGraph(t.kind, t.k, t.base)
        parsed = parse_target(written_name(t))
        for other in (twin, parsed):
            assert other == t and hash(other) == hash(t)
        assert repr(t) == f"TargetGraph(kind={t.kind!r}, k={t.k!r}, base={t.base!r})"


class TestNormalization:
    def test_k1_equals_1k1(self):
        assert clique(1) == empty_graph(1)

    def test_nested_isolated_flatten(self):
        assert with_isolated(with_isolated(clique(3), 1), 2) == with_isolated(clique(3), 3)

    def test_empty_plus_isolated_merges(self):
        assert with_isolated(empty_graph(2), 1) == empty_graph(3)

    @pytest.mark.parametrize("text, name", [("S1", "K2"), ("B1", "K3"), ("P3", "S2"), ("P3+1K1", "S2+1K1")])
    def test_degenerate_stars_books_and_p3_take_one_name(self, text, name):
        assert str(parse_target(text)) == name
        assert parse_target(text) == parse_target(name)

    def test_equality_is_isomorphism(self):
        # every member with at most 7 vertices, each graph built from its
        # name with networkx alone: two are equal exactly when isomorphic
        def book_graph(k):
            return nx.Graph([(0, 1)] + [(s, p) for p in range(2, k + 2) for s in (0, 1)])

        bases = (
            [(f"K{k}", nx.complete_graph(k)) for k in range(1, 6)]
            + [(f"S{k}", nx.star_graph(k)) for k in range(1, 5)]
            + [(f"B{k}", book_graph(k)) for k in range(1, 4)]
            + [(f"{k}K1", nx.empty_graph(k)) for k in range(1, 6)]
            + [("C4", nx.cycle_graph(4)), ("P3", nx.path_graph(3))]
        )
        members = []
        for name, g in bases:
            for t in range(3):
                padded = nx.disjoint_union(g, nx.empty_graph(t))
                members.append((name + (f"+{t}K1" if t else ""), padded))
        assert len(members) == 57 and max(g.number_of_nodes() for _, g in members) == 7
        wrong = [
            (a, b)
            for (a, ga), (b, gb) in itertools.combinations(members, 2)
            if (parse_target(a) == parse_target(b)) != nx.is_isomorphic(ga, gb)
        ]
        assert wrong == []
        assert len({parse_target(name) for name, _ in members}) == 37


class TestDeleteOptions:
    def test_clique(self):
        assert delete_options(clique(12)) == {clique(11)}

    def test_book_contains_star(self):
        assert star(3) in delete_options(book(3))
        assert delete_options(book(2)) == {star(2), clique(3)}

    def test_star_contains_empty(self):
        assert delete_options(star(4)) == {star(3), empty_graph(4)}

    def test_cycle4_and_s2(self):
        assert delete_options(CYCLE4) == {star(2)}
        assert delete_options(star(2)) == {clique(2), empty_graph(2)}

    def test_with_isolated(self):
        opts = delete_options(with_isolated(clique(3), 1))
        assert clique(3) in opts  # delete the isolated vertex
        assert with_isolated(clique(2), 1) in opts

    def test_single_vertex_error(self):
        with pytest.raises(ValueError):
            delete_options(empty_graph(1))

    def test_vertex_counts_drop_by_one(self):
        pool = [clique(4), CYCLE4, star(3), book(2), empty_graph(4), star(2),
                with_isolated(book(2), 2), with_isolated(star(2), 1)]
        for t in pool:
            for opt in delete_options(t):
                assert opt.vertex_count == t.vertex_count - 1

    def test_options_realizable_by_concrete_deletion(self):
        # every claimed option must occur as an actual one-vertex deletion,
        # checked with graph containment both ways on concrete graphs
        from c4ramsey.targets import target_edges

        pool = [clique(4), CYCLE4, star(3), book(2), empty_graph(3), star(2),
                with_isolated(clique(3), 1)]
        for t in pool:
            concrete = SimpleGraph(t.vertex_count, target_edges(t))
            for opt in delete_options(t):
                opt_graph = SimpleGraph(opt.vertex_count, target_edges(opt))
                # the option is obtainable: some deletion contains it and has
                # the same edge count (so they are equal as labeled graphs up
                # to the containment check both ways)
                assert any(
                    contains_target(g, opt) and g.edge_count() == opt_graph.edge_count()
                    for g in (concrete.delete_vertex(v) for v in range(t.vertex_count))
                ), (t, opt)


class TestParseRender:
    @pytest.mark.parametrize(
        "text,t",
        [
            ("K11", clique(11)),
            ("B17", book(17)),
            ("C4", CYCLE4),
            ("P3", star(2)),
            ("S4", star(4)),
            ("3K1", empty_graph(3)),
            ("K3+1K1", with_isolated(clique(3), 1)),
            ("K3+K1", with_isolated(clique(3), 1)),
            ("B2+2K1", with_isolated(book(2), 2)),
        ],
    )
    def test_parse(self, text, t):
        assert parse_target(text) == t

    @pytest.mark.parametrize("bad", ["C5", "K0", "", "Q7", "K3+", "K3+2K2", "S0"])
    def test_parse_errors(self, bad):
        with pytest.raises((TargetParseError, ValueError)):
            parse_target(bad)

    def test_parse_error_carries_position(self):
        with pytest.raises(TargetParseError) as e:
            parse_target("K3+oops")
        assert e.value.pos > 0

    @pytest.mark.parametrize(
        "text, pos",
        [("C4,,K3", 3), ("C4,S0", 3), ("C4,K0", 3), ("C4,0K1", 3), ("B0", 0), ("K3,C4, K3+0K1", 10), ("K3,C4+x", 6)],
    )
    def test_list_errors_give_the_position_in_the_whole_list(self, text, pos):
        for parse in (parse_targets, parse_target_sequence):
            with pytest.raises(TargetParseError) as e:
                parse(text)
            assert (e.value.text, e.value.pos) == (text, pos)
            assert str(e.value).endswith(f" at position {pos} in {text!r}")

    @given(st.sampled_from("KSB"), st.integers(2, 1000))
    def test_round_trip_simple(self, family, k):
        # K1 is excluded: it normalizes to the 1K1 spelling
        text = f"{family}{k}"
        assert str(parse_target(text)) == text

    @given(st.integers(2, 1000), st.integers(1, 50))
    def test_round_trip_with_isolated(self, k, t):
        text = f"K{k}+{t}K1"
        assert str(parse_target(text)) == text


class TestTargetList:
    def test_canonical_order(self):
        tl = parse_targets("K4,C4,K3,C4")
        assert tl.key() == "C4,C4,K3,K4"
        assert tl.m == 2 and len(tl.others) == 2

    def test_m_is_maximal(self):
        tl = parse_targets("K3,C4")
        assert tl.targets[0] == CYCLE4

    def test_strip_k2(self):
        assert strip_k2(parse_targets("C4,K2,K3,K3")).key() == "C4,K3,K3"
        assert strip_k2(parse_targets("K2,K2")).key() == "K2,K2"  # never strips to empty

    def test_strip_k2_without_k2_returns_its_input(self):
        tl = parse_targets("C4,K3,S2")
        assert strip_k2(tl) is tl

    @given(st.lists(st.one_of(TARGETS, st.just(CYCLE4)), min_size=1, max_size=5))
    def test_stored_key_and_m_match_a_recomputation(self, entries):
        tl = TargetList(tuple(entries))
        c4s = [t for t in entries if t.kind == tg.CYCLE4_KIND]
        rest = sorted(
            (t for t in entries if t.kind != tg.CYCLE4_KIND),
            key=lambda t: (t.vertex_count, written_name(t)),
        )
        assert tl.targets == tuple(c4s + rest)
        assert tl.m == len(c4s) and len(tl.others) == len(rest)
        assert tl.key() == ",".join(written_name(t) for t in c4s + rest)
        again = TargetList(tuple(reversed(entries)))
        assert again == tl and hash(again) == hash(tl) and again.key() == tl.key()


def recanonicalized(tl, i, new):
    """tl with its i-th non-C4 entry replaced, sorted again from scratch."""
    others = list(tl.others)
    others[i] = new
    return TargetList(tl.targets[: tl.m] + tuple(others))


def assert_same_list(got, want):
    assert got.targets == want.targets
    assert got.m == want.m and got.others == want.others
    assert got.key() == want.key()
    assert got == want and hash(got) == hash(want)


class TestReplaceOther:
    # replace_other inserts the new entry into the sorted others instead of
    # sorting again; it must give the list a full re-canonicalization gives
    @given(
        st.lists(st.just(CYCLE4), max_size=2),
        st.lists(
            TARGETS.filter(lambda t: t.vertex_count >= 2 and t != CYCLE4), min_size=1, max_size=4
        ),
        st.data(),
    )
    def test_matches_recanonicalization(self, c4s, rest, data):
        tl = TargetList(tuple(c4s + rest))
        i = data.draw(st.integers(0, len(tl.others) - 1))
        for opt in delete_options(tl.others[i]):
            got = tl.replace_other(i, opt)
            want = recanonicalized(tl, i, opt)
            assert_same_list(got, want)
            assert_same_list(strip_k2(got), strip_k2(want))

    @pytest.mark.parametrize(
        "text,entry,new,key,m",
        [
            # a C4 leaves the sorted run and joins the C4 prefix
            ("C4,K3,C4+1K1", "C4+1K1", "C4", "C4,C4,K3", 2),
            ("C4+1K1,K5", "C4+1K1", "C4", "C4,K5", 1),
            # deletions that give K2, which strip_k2 then drops
            ("C4,K3,K4", "K3", "K2", "C4,K2,K4", 1),
            ("C4,S2,S2", "S2", "K2", "C4,K2,S2", 1),
            ("C4,K3,S2", "S2", "K2", "C4,K2,K3", 1),
            ("C4,2K1,K3", "K3", "K2", "C4,2K1,K2", 1),
            # into the middle, and past entries of equal size
            ("C4,K3,K5,K7", "K7", "K4", "C4,K3,K4,K5", 1),
            ("C4,B2,K4,S5", "S5", "S4", "C4,B2,K4,S4", 1),
        ],
    )
    def test_entries_that_leave_the_sorted_run(self, text, entry, new, key, m):
        tl = parse_targets(text)
        i = [str(t) for t in tl.others].index(entry)
        got = tl.replace_other(i, parse_target(new))
        want = recanonicalized(tl, i, parse_target(new))
        assert (got.key(), got.m) == (key, m)
        assert_same_list(got, want)
        assert_same_list(strip_k2(got), strip_k2(want))
        assert "K2" not in strip_k2(got).key().split(",")


def union_k1(text):
    """The child list derive's UnionK1 rule asks for on text, K2-free, and
    the floors of the node it concludes when that list is answered; None
    where the rule does not apply."""
    steps = _union_k1(parse_targets(text), seed_registry())
    if steps is None:
        return None
    try:
        inner = next(steps)
    except StopIteration:
        return None
    try:
        steps.send(DerivationTree(inner, "Registry", 2, "exact"))
    except StopIteration as done:
        return inner.key(), done.value.notes["floors"]


class TestUnionK1Rewrite:
    def test_basic(self):
        assert union_k1("C4,K3+1K1") == ("C4,K3", [4])

    def test_multiple(self):
        # the inner list C4,K2,K2 comes K2-free, as derive plans it
        assert union_k1("C4,K2+1K1,K2+1K1") == ("C4", [3, 3])

    def test_shape_mismatch(self):
        assert union_k1("C4,K3") is None
        assert union_k1("K3+1K1") is None  # no C4
        assert union_k1("C4,K3+1K1,K3") is None
        assert union_k1("C4,3K1") is None  # kK1 is TrivialEmpty's
