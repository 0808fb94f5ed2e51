import itertools
import random
import sys

import pytest

from c4ramsey import (
    EdgeColoring,
    SearchBudget,
    SimpleGraph,
    computed_ramsey,
    contains_target,
    is_good_coloring,
    partition_check,
    ramsey_by_search,
    search_coloring,
)
from c4ramsey.graphs import pair_iter
from c4ramsey.search import _creates_test
from c4ramsey.targets import CYCLE4, PATH3, book, clique, empty_graph, star, with_isolated

from conftest import brute_contains, random_graph


def naive_feasible(n, targets, degree_caps=None):
    """Feasibility by enumerating all c^{C(n,2)} complete colorings; with
    degree_caps, color i may have degree at most degree_caps[i] at every vertex."""
    pairs = list(pair_iter(n))
    c = len(targets)
    for assignment in itertools.product(range(c), repeat=len(pairs)):
        col = EdgeColoring(n, c, list(assignment))
        if degree_caps is not None and any(
            col.color_class(i).degree(v) > cap for i, cap in enumerate(degree_caps) for v in range(n)
        ):
            continue
        if is_good_coloring(col, targets):
            return True
    return False


class TestSearchColoring:
    def test_k5_two_c4(self):
        out = search_coloring(5, [CYCLE4, CYCLE4])
        assert out.status == "feasible"
        assert is_good_coloring(out.witness, [CYCLE4, CYCLE4])

    def test_k6_two_c4_infeasible(self):
        out = search_coloring(6, [CYCLE4, CYCLE4])
        assert out.status == "infeasible"

    def test_p3_pair(self):
        assert search_coloring(2, [PATH3, PATH3]).status == "feasible"
        assert search_coloring(3, [PATH3, PATH3]).status == "infeasible"

    def test_c4_k3(self):
        assert search_coloring(6, [CYCLE4, clique(3)]).status == "feasible"
        assert search_coloring(7, [CYCLE4, clique(3)]).status == "infeasible"

    def test_empty_target_forces_infeasible(self):
        assert search_coloring(4, [CYCLE4, empty_graph(3)]).status == "infeasible"
        assert search_coloring(2, [CYCLE4, empty_graph(3)]).status == "feasible"

    def test_with_isolated_target(self):
        # K3+1K1 needs 4 vertices: at n=3 only the K3 matters, and a K3-free
        # class is achievable
        out = search_coloring(3, [CYCLE4, with_isolated(clique(3), 1)])
        assert out.status == "feasible"

    def test_budget_exhaustion_is_unknown(self):
        out = search_coloring(
            9, [CYCLE4, clique(4)], SearchBudget(node_limit=10)
        )
        assert out.status == "unknown"
        assert out.witness is None

    def test_cap_mismatch_rejected(self):
        with pytest.raises(ValueError):
            search_coloring(5, [CYCLE4, CYCLE4], degree_caps=[3])

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            search_coloring(5, [CYCLE4, clique(3)], degree_caps=[-1, 9])

    @pytest.mark.parametrize("n,caps", [(6, [2, 2]), (9, [3, 4]), (9, [0, 7]), (128, [63, 63])])
    def test_caps_below_n_minus_one_are_infeasible_without_search(self, n, caps):
        # every vertex has n-1 edges, and color i can hold at most caps[i]
        out = search_coloring(n, [CYCLE4, clique(4)], degree_caps=caps)
        assert (out.status, out.nodes_explored) == ("infeasible", 0)

    @pytest.mark.parametrize(
        "caps,status,nodes",
        [([8, 0], "infeasible", 10), ([1, 7], "infeasible", 438), ([2, 6], "feasible", 63),
         ([6, 2], "infeasible", 598), ([5, 3], "infeasible", 11434), ([6, 6], "feasible", 282)],
    )
    def test_caps_summing_to_n_minus_one_or_more_search_as_before(self, caps, status, nodes):
        out = search_coloring(9, [CYCLE4, clique(4)], degree_caps=caps)
        assert (out.status, out.nodes_explored) == (status, nodes)

    def test_nan_time_limit_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            SearchBudget(time_limit=float("nan"))

    def test_infinite_time_limit_allowed(self):
        out = search_coloring(5, [CYCLE4, CYCLE4], SearchBudget(time_limit=float("inf")))
        assert out.status == "feasible"

    def test_n_out_of_range(self):
        with pytest.raises(ValueError):
            search_coloring(129, [CYCLE4])

    @pytest.mark.parametrize(
        "n,targets",
        [
            (4, [CYCLE4, CYCLE4]),
            (5, [CYCLE4, clique(3)]),
            (3, [PATH3, PATH3]),
            (4, [PATH3, clique(3)]),
            (5, [CYCLE4, star(3)]),
        ],
    )
    def test_agrees_with_naive_enumeration(self, n, targets):
        got = search_coloring(n, targets).status
        assert (got == "feasible") == naive_feasible(n, targets)

    def test_determinism_single_thread(self):
        runs = [search_coloring(6, [CYCLE4, clique(3)]) for _ in range(2)]
        assert runs[0].nodes_explored == runs[1].nodes_explored
        assert runs[0].witness == runs[1].witness


class TestDegreeCapSoundness:
    def test_elementary_degree_property_on_found_witnesses(self):
        # d_i(v) <= R(targets with H_i vertex-deleted) - 1, with the reduced
        # numbers established here by independent exhaustive search
        out = search_coloring(9, [CYCLE4, clique(4)])
        assert out.status == "feasible"
        r_p3_k4 = computed_ramsey(ramsey_by_search([PATH3, clique(4)], 6, 7))
        r_c4_k3 = computed_ramsey(ramsey_by_search([CYCLE4, clique(3)], 6, 7))
        assert r_p3_k4 == 7 and r_c4_k3 == 7
        for v in range(9):
            assert out.witness.color_class(0).degree(v) <= r_p3_k4 - 1
            assert out.witness.color_class(1).degree(v) <= r_c4_k3 - 1

    def test_caps_do_not_lose_feasibility(self):
        out = search_coloring(9, [CYCLE4, clique(4)], degree_caps=[6, 6])
        assert out.status == "feasible"

    @pytest.mark.parametrize("target", [CYCLE4, PATH3, clique(3), star(2)], ids=str)
    def test_identical_targets_with_unequal_caps_agree_with_naive_enumeration(self, target):
        # the first-edge color reduction may only merge colors whose targets
        # and caps both agree
        for n in range(2, 6):
            for caps in itertools.combinations(range(5), 2):
                want = "feasible" if naive_feasible(n, [target, target], caps) else "infeasible"
                assert search_coloring(n, [target, target], degree_caps=caps).status == want, (n, caps)
                assert search_coloring(n, [target, target], degree_caps=caps[::-1]).status == want, (n, caps)


class TestRamseyBySearch:
    def test_two_c4(self):
        outcomes = ramsey_by_search([CYCLE4, CYCLE4], 4, 6)
        assert {n: o.status for n, o in outcomes.items()} == {
            4: "feasible", 5: "feasible", 6: "infeasible"
        }
        assert computed_ramsey(outcomes) == 6

    def test_p3(self):
        assert computed_ramsey(ramsey_by_search([PATH3, PATH3], 2, 3)) == 3

    def test_c4_star3(self):
        outcomes = ramsey_by_search([CYCLE4, star(3)], 5, 6)
        assert computed_ramsey(outcomes) == 6

    def test_unknown_blocks_conclusion(self):
        outcomes = ramsey_by_search(
            [CYCLE4, clique(4)], 9, 10, SearchBudget(node_limit=100)
        )
        assert computed_ramsey(outcomes) is None

    def test_bad_range(self):
        with pytest.raises(ValueError):
            ramsey_by_search([CYCLE4], 5, 4)


class TestDeleteVertexOnWitness:
    def test_subwitness_remains_good(self):
        out = search_coloring(6, [CYCLE4, clique(3)])
        classes = [out.witness.color_class(i) for i in range(2)]
        for v in range(6):
            assert not any(contains_target(g.delete_vertex(v), t) for g, t in zip(classes, [CYCLE4, clique(3)]))


def brute_partition_feasible(g, t0, t1):
    comp = g.complement().edges()
    for assignment in itertools.product((0, 1), repeat=len(comp)):
        g0 = SimpleGraph(g.n)
        g1 = SimpleGraph(g.n)
        for (u, v), side in zip(comp, assignment):
            (g0 if side == 0 else g1).add_edge(u, v)
        if not contains_target(g0, t0) and not contains_target(g1, t1):
            return True
    return False


class TestPartitionCheck:
    def test_empty_9_infeasible(self):
        assert partition_check(SimpleGraph(9)).status == "infeasible"

    def test_empty_8_feasible_with_verified_split(self):
        out = partition_check(SimpleGraph(8))
        assert out.status == "feasible"
        assert is_good_coloring(out.witness, [CYCLE4, clique(3), clique(4)])

    def test_c5_feasible(self):
        c5 = SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        out = partition_check(c5)
        assert out.status == "feasible"

    def test_rejects_c4_in_input(self):
        g = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(ValueError):
            partition_check(g)

    def test_agrees_with_brute_force(self):
        rng = random.Random(42)
        checked = 0
        while checked < 100:
            n = rng.randint(4, 6)
            g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
            if contains_target(g, CYCLE4):
                continue
            if g.complement().edge_count() > 12:
                continue
            out = partition_check(g)
            assert (out.status == "feasible") == brute_partition_feasible(
                g, clique(3), clique(4)
            )
            checked += 1


class TestKernel:
    @pytest.mark.parametrize(
        "target",
        [clique(2), clique(3), clique(4), clique(5), book(1), book(2), book(3), book(4),
         star(1), star(3), PATH3, CYCLE4],
        ids=str,
    )
    def test_creates_matches_brute_force(self, target):
        # grow a random target-free graph edge by edge; every non-edge of
        # every intermediate graph is checked against the brute-force oracle.
        # Odd rounds keep every edge they can, so the graph ends maximal and
        # even K5 gets created.
        rng = random.Random(f"creates-{target}")
        test = _creates_test(target)
        answers = []
        for round_ in range(6):
            n = rng.randint(5, 7)
            keep = 1.0 if round_ % 2 else 0.7
            g = SimpleGraph(n)
            pairs = list(pair_iter(n))
            rng.shuffle(pairs)
            for u, v in pairs:
                grown = g.copy()
                grown.add_edge(u, v)
                hit = brute_contains(grown, target)
                assert bool(test(g.adj, u, v)) == hit
                answers.append(hit)
                if not hit and rng.random() < keep:
                    g = grown
        assert len(answers) > 60
        # K2 and S1 are single edges: every addition creates them
        assert set(answers) == ({True} if target in (clique(2), star(1)) else {True, False})

    @pytest.mark.parametrize(
        "n,targets,caps,status,nodes",
        [
            (6, [CYCLE4, CYCLE4], None, "infeasible", 1059),
            (7, [CYCLE4, clique(3)], None, "infeasible", 4694),
            (8, [CYCLE4, book(3)], None, "feasible", 1783),
            (8, [clique(3), clique(4)], None, "feasible", 1512),
            (8, [CYCLE4, star(5)], None, "infeasible", 294516),
            (5, [PATH3, star(3)], None, "infeasible", 40),
            (9, [CYCLE4, clique(4)], [6, 6], "feasible", 282),
            (9, [CYCLE4, book(3)], None, "infeasible", 1342278),
            (9, [clique(3), clique(4)], None, "infeasible", 2540750),
        ],
    )
    def test_pinned_node_counts(self, n, targets, caps, status, nodes):
        out = search_coloring(n, targets, degree_caps=caps)
        assert (out.status, out.nodes_explored) == (status, nodes)

    @pytest.mark.parametrize("limit", [1, 4095, 4096, 4097, 8193, 200000])
    def test_node_limit_stops_one_node_past_it(self, limit):
        # S100,S100 at N=128 is feasible but runs far past every limit here
        out = search_coloring(128, [star(100), star(100)], SearchBudget(node_limit=limit))
        assert (out.status, out.nodes_explored) == ("unknown", limit + 1)

    def test_time_limit_is_checked_at_the_4096th_node(self):
        out = search_coloring(10, [CYCLE4, clique(4)], SearchBudget(time_limit=1e-9))
        assert (out.status, out.nodes_explored) == ("unknown", 4096)

    def test_n128_needs_no_recursion_limit(self):
        limit = sys.getrecursionlimit()
        out = search_coloring(128, [clique(128)])
        assert (out.status, out.nodes_explored) == ("infeasible", 8128)
        out = search_coloring(128, [clique(128), clique(128)])
        assert (out.status, out.nodes_explored) == ("feasible", 8129)
        assert sys.getrecursionlimit() == limit
