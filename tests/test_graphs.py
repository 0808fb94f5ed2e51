import random

import pytest
from hypothesis import given, settings, strategies as st

from c4ramsey import (
    EdgeColoring,
    SimpleGraph,
    coloring_from_text,
    coloring_to_text,
    contains_target,
    find_target_copy,
    graph6_decode,
    graph6_encode,
    is_good_coloring,
    pair_index,
)
from c4ramsey import graphs
from c4ramsey.graphs import IncompleteColoringError, pair_iter
from c4ramsey.targets import CYCLE4, PATH3, book, clique, empty_graph, star, with_isolated

from conftest import brute_contains, brute_first_copy, random_graph, two_five_cycles


def complete_mono(n, c=1, color=0):
    col = EdgeColoring(n, max(c, color + 1))
    for u, v in pair_iter(n):
        col.set(u, v, color)
    return col


class TestPairIndex:
    def test_canonical_order_is_contiguous(self):
        idxs = [pair_index(u, v) for (u, v) in pair_iter(10)]
        assert idxs == list(range(45))

    def test_symmetric(self):
        assert pair_index(3, 7) == pair_index(7, 3)

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            pair_index(2, 2)


class TestSimpleGraph:
    def test_adjacency_symmetric_irreflexive(self):
        g = random_graph(random.Random(1), 12)
        for v in range(g.n):
            assert not (g.adj[v] >> v & 1)
            for w in range(g.n):
                if w != v:
                    assert g.has_edge(v, w) == g.has_edge(w, v)

    def test_vertex_cap(self):
        with pytest.raises(ValueError):
            SimpleGraph(129)
        with pytest.raises(ValueError):
            SimpleGraph(0)

    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            SimpleGraph(3, [(1, 1)])

    def test_complement(self):
        g = SimpleGraph(5, [(0, 1), (2, 3)])
        comp = g.complement()
        assert comp.edge_count() == 10 - 2
        assert not comp.has_edge(0, 1) and comp.has_edge(0, 2)

    def test_delete_vertex_relabels(self):
        g = SimpleGraph(4, [(0, 1), (1, 2), (2, 3)])
        h = g.delete_vertex(1)
        assert h.n == 3
        assert h.edges() == [(1, 2)]  # old (2,3) relabeled down

    def test_delete_last_vertex_fails(self):
        with pytest.raises(ValueError):
            SimpleGraph(1).delete_vertex(0)


class TestDegree:
    def test_mono_k3(self):
        col = complete_mono(3)
        for v in range(3):
            assert col.color_class(0).degree(v) == 2

    def test_other_color_zero(self):
        col = EdgeColoring(2, 2)
        col.set(0, 1, 1)
        assert col.color_class(0).degree(0) == 0
        assert col.color_class(1).degree(0) == 1

    def test_two_cycle_decomposition(self):
        col = two_five_cycles()
        for v in range(5):
            assert col.color_class(0).degree(v) == 2
            assert col.color_class(1).degree(v) == 2

    def test_partial_counts_assigned_only(self):
        col = EdgeColoring(4, 2)
        col.set(0, 1, 0)
        assert col.color_class(0).degree(0) == 1
        assert col.color_class(1).degree(0) == 0

    def test_index_errors(self):
        col = EdgeColoring(3, 2)
        with pytest.raises(IndexError):
            col.color_class(2).degree(0)
        with pytest.raises(IndexError):
            col.color_class(0).degree(3)

    def test_degree_sum_is_n_minus_1(self):
        rng = random.Random(7)
        col = EdgeColoring(7, 3)
        for u, v in pair_iter(7):
            col.set(u, v, rng.randrange(3))
        for v in range(7):
            assert sum(col.color_class(i).degree(v) for i in range(3)) == 6


def first_bad_color(colors, c):
    """The per-pair check: the first color in pair order that is neither
    unassigned nor in range(c), or None."""
    return next((col for col in colors if col != -1 and not 0 <= col < c), None)


class TestColoringConstructor:
    COLORS = st.sampled_from([0, 1, 2, 3, -1, -2, True, False, 0.0, 1.0, 1.5, -1.0, 2.0, float("nan"), float("inf")])

    @given(c=st.integers(1, 3), colors=st.lists(COLORS, min_size=6, max_size=6))
    def test_accepts_what_the_per_pair_check_accepts(self, c, colors):
        bad = first_bad_color(colors, c)
        if bad is None:
            assert EdgeColoring(4, c, colors).colors == colors
        else:
            with pytest.raises(ValueError) as err:
                EdgeColoring(4, c, colors)
            assert str(err.value) == f"color {bad} out of range for c={c}"

    def test_names_the_first_bad_color_in_pair_order(self):
        with pytest.raises(ValueError, match="^color 7 out of range for c=2$"):
            EdgeColoring(3, 2, [1, 7, 5])

    def test_unhashable_color_is_a_type_error(self):
        with pytest.raises(TypeError):
            EdgeColoring(3, 2, [0, [1], 0])


class TestContainsTarget:
    def test_c5_has_no_c4(self):
        c5 = SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert not contains_target(c5, CYCLE4)

    def test_k4_contains_book2(self):
        k4 = SimpleGraph(4, [(u, v) for v in range(4) for u in range(v)])
        assert contains_target(k4, book(2))

    def test_empty_target_is_vertex_counting(self):
        g = SimpleGraph(9)
        assert contains_target(g, empty_graph(9))
        assert not contains_target(g, empty_graph(10))

    def test_with_isolated(self):
        g = SimpleGraph(4, [(0, 1), (1, 2), (0, 2)])
        assert contains_target(g, with_isolated(clique(3), 1))
        assert not contains_target(g, with_isolated(clique(3), 2))

    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(2, 8), rng.choice([0.2, 0.5, 0.8]))
        targets = [
            PATH3, CYCLE4, clique(3), clique(4), clique(5),
            star(2), star(3), star(4), book(1), book(2), book(3),
            empty_graph(3), with_isolated(clique(3), 2), with_isolated(PATH3, 1),
        ]
        for t in targets:
            assert contains_target(g, t) == brute_contains(g, t), (g, t)

    def test_triangle_scan_agrees_with_brute_force(self):
        # n = 1..12 at every density from edgeless to complete
        rng = random.Random("k3-scan")
        seen = set()
        for n in range(1, 13):
            for p in [i / 10 for i in range(11)]:
                for _ in range(3):
                    g = random_graph(rng, n, p)
                    got = contains_target(g, clique(3))
                    assert got == brute_contains(g, clique(3)), g
                    seen.add(got)
        assert seen == {True, False}

    @pytest.mark.parametrize("n", [62, 128])
    def test_triangle_scan_on_dense_large_graphs(self, n):
        rng = random.Random(n)
        for p in (0.5, 0.9):
            g = random_graph(rng, n, p)
            assert contains_target(g, clique(3)) and brute_contains(g, clique(3))
        # a complete bipartite graph is the densest triangle-free one; an
        # edge inside a side closes a triangle with each vertex of the other
        order = list(range(n))
        rng.shuffle(order)
        side, other = order[: n // 2], order[n // 2:]
        g = SimpleGraph(n, [(u, v) for u in side for v in other])
        assert not contains_target(g, clique(3))
        if n == 62:
            assert not brute_contains(g, clique(3))
        assert find_target_copy(g, clique(3)) is None
        g.add_edge(*sorted(other)[-2:])
        assert contains_target(g, clique(3))
        assert find_target_copy(g, clique(3)) is not None

    def test_c4_equals_common_neighbor_rule(self):
        rng = random.Random(99)
        for _ in range(40):
            g = random_graph(rng, rng.randint(4, 10))
            pair_rule = any(
                (g.adj[u] & g.adj[v]).bit_count() >= 2
                for u in range(g.n)
                for v in range(u + 1, g.n)
            )
            assert contains_target(g, CYCLE4) == pair_rule == brute_contains(g, CYCLE4)


class TestFindTargetCopy:
    def test_finds_triangle(self):
        g = SimpleGraph(5, [(0, 1), (1, 4), (0, 4)])
        copy = find_target_copy(g, clique(3))
        assert sorted(copy) == [0, 1, 4]

    def test_none_when_absent(self):
        g = SimpleGraph(4, [(0, 1)])
        assert find_target_copy(g, clique(3)) is None

    TARGETS = [
        CYCLE4, PATH3, clique(2), clique(3), clique(4), clique(5),
        star(1), star(2), star(3), star(4), book(1), book(2), book(3),
        empty_graph(3), with_isolated(CYCLE4), with_isolated(PATH3),
        with_isolated(clique(3)), with_isolated(star(2)), with_isolated(book(1)),
        with_isolated(clique(2), 2),
    ]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8), st.sampled_from([0.3, 0.6, 0.9]), st.integers(0, 2**32))
    def test_lexicographically_first_copy(self, n, p, seed):
        g = random_graph(random.Random(seed), n, p)
        for t in self.TARGETS:
            assert find_target_copy(g, t) == brute_first_copy(g, t), (g, t)


class TestIsGoodColoring:
    def test_two_cycles_good_for_c4_c4(self):
        assert is_good_coloring(two_five_cycles(), [CYCLE4, CYCLE4])

    def test_mono_k3_bad_for_p3(self):
        col = complete_mono(3, c=2)
        assert not is_good_coloring(col, [PATH3, PATH3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_good_coloring(complete_mono(3), [PATH3, PATH3])

    def test_partial_rejected(self):
        col = EdgeColoring(3, 1)
        col.set(0, 1, 0)
        with pytest.raises(IncompleteColoringError):
            is_good_coloring(col, [clique(3)])


class TestDeleteVertex:
    def test_preserves_goodness(self):
        col = two_five_cycles()
        for v in range(5):
            assert not any(contains_target(col.color_class(i).delete_vertex(v), CYCLE4) for i in range(2))

    def test_k2_to_k1(self):
        col = EdgeColoring(2, 1)
        col.set(0, 1, 0)
        h = col.color_class(0).delete_vertex(0)
        assert h.n == 1 and h.edge_count() == 0


class TestColoringTextFormat:
    def test_round_trip(self):
        col = two_five_cycles()
        assert coloring_from_text(coloring_to_text(col)) == col

    def test_partial_round_trip(self):
        col = EdgeColoring(4, 2)
        col.set(0, 1, 1)
        assert coloring_from_text(coloring_to_text(col)) == col

    def test_comments_and_whitespace(self):
        text = "# witness\n  3 2  \n0 1 0 # first\n0 2 1\n1 2 0\n"
        col = coloring_from_text(text)
        assert col.get(0, 2) == 1 and col.is_complete()

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError):
            coloring_from_text("3 2\n0 1 0\n1 0 1\n")

    @pytest.mark.parametrize("n", [1, 2, 62, 63, 127, 128])
    def test_round_trip_at_size_boundaries(self, n):
        rng = random.Random(n)
        col = EdgeColoring(n, 3, [rng.randrange(-1, 3) for _ in pair_iter(n)])
        assert coloring_from_text(coloring_to_text(col)) == col

    def test_minus_one_is_not_unassigned(self):
        with pytest.raises(ValueError, match="color out of range"):
            coloring_from_text("3 2\n0 1 -1\n")

    @pytest.mark.parametrize(
        "text",
        [
            "",  # empty document
            "# only a comment\n",
            "3\n",  # header needs N and c
            "x 2\n",
            "0 2\n",  # N below 1
            "129 2\n",  # N above the cap
            "3 0\n",  # no colors
            "3 2\n0 1\n",  # pair line needs three fields
            "3 2\n0 1 0 0\n",
            "3 2\n0 y 0\n",
            "3 2\n0 1 z\n",
            "3 2\n1 1 0\n",  # self pair
            "3 2\n0 1 0\n1 0 -\n",  # duplicate pair
            "3 2\n0 3 0\n",  # vertex out of range
            "3 2\n-1 2 0\n",
            "3 2\n0 1 2\n",  # color out of range
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            coloring_from_text(text)


class TestColorClass:
    @pytest.mark.parametrize("n", [1, 2, 9, 62, 128])
    def test_matches_per_pair_oracle(self, n):
        rng = random.Random(n)
        col = EdgeColoring(n, 3, [rng.randrange(-1, 3) for _ in pair_iter(n)])
        for i in range(3):
            oracle = SimpleGraph(n)
            for u, v in pair_iter(n):
                if col.get(u, v) == i:
                    oracle.add_edge(u, v)
            assert col.color_class(i) == oracle

    @staticmethod
    def check_against_per_pair_builder(col, colors_to_check):
        for i in colors_to_check:
            expected = SimpleGraph(col.n)
            for (u, v), c in zip(pair_iter(col.n), col.colors):
                if c == i:
                    expected.add_edge(u, v)
            got = col.color_class(i)
            assert got == expected
            assert graph6_encode(got) == graph6_encode(expected)

    @staticmethod
    def drawn_coloring(n, c, shape, seed):
        """A coloring of K_n whose class 0 or c - 1 takes a given shape.

        random: a few colors, c - 1 among them; partial: the same with
        unassigned pairs; full and none: every pair in color 0 or none;
        at_switch and past_switch: color 0 on exactly 3n or 3n + 1 pairs,
        the last sparse and the first dense class size.
        """
        rng = random.Random(seed)
        npairs = n * (n - 1) // 2
        palette = sorted({0, c - 1, *(rng.randrange(c) for _ in range(3))})
        if shape == "partial":
            palette.append(-1)
        colors = [rng.choice(palette) for _ in range(npairs)]
        if shape == "full":
            colors = [0] * npairs
        elif shape == "none":
            colors = [c - 1 if c > 1 else -1] * npairs
        elif shape in ("at_switch", "past_switch"):
            size = min(npairs, 3 * n + (shape == "past_switch"))
            others = [col for col in palette if col != 0] or [-1]
            colors = [rng.choice(others) for _ in range(npairs)]
            for idx in rng.sample(range(npairs), size):
                colors[idx] = 0
        return EdgeColoring(n, c, colors)

    SHAPES = ("random", "partial", "full", "none", "at_switch", "past_switch")

    @pytest.mark.parametrize("n", [1, 2, 62, 63, 128])
    @pytest.mark.parametrize("c", [1, 2, 300])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_per_pair_builder_at_edge_orders(self, n, c, shape):
        col = self.drawn_coloring(n, c, shape, seed=n * 1000 + c)
        self.check_against_per_pair_builder(col, sorted({0, c - 1, *col.colors} - {-1}))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 128),
        c=st.integers(1, 300),
        shape=st.sampled_from(SHAPES),
        seed=st.integers(0, 2**32),
    )
    def test_matches_per_pair_builder(self, n, c, shape, seed):
        col = self.drawn_coloring(n, c, shape, seed)
        self.check_against_per_pair_builder(col, sorted({0, c - 1, *col.colors} - {-1}))

    @pytest.mark.parametrize("c", [1, 3, 300])
    def test_bad_color_raises_index_error(self, c):
        col = EdgeColoring(4, c, [0] * 6)
        for bad in (c, -1):
            with pytest.raises(IndexError):
                col.color_class(bad)

    @pytest.mark.parametrize("extra, builder", [(0, "_rows_per_edge"), (1, "_rows_per_vertex")])
    def test_rows_per_edge_up_to_3n_edges(self, monkeypatch, extra, builder):
        n = 12
        col = self.drawn_coloring(n, 2, ("at_switch", "past_switch")[extra], seed=5)
        assert col.color_class(0).edge_count() == 3 * n + extra
        used = []
        for name in ("_rows_per_edge", "_rows_per_vertex"):

            def spy(bits, n, name=name, real=getattr(graphs, name)):
                used.append(name)
                return real(bits, n)

            monkeypatch.setattr(graphs, name, spy)
        expected = col.color_class(0)
        assert graph6_decode(graph6_encode(expected)) == expected
        assert used == [builder, builder]
