"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
inline; they also appear in captured output on failure).
"""

import contextlib
import io
import math
import random
import time

from c4ramsey import (
    BoundQuery,
    SearchBudget,
    SimpleGraph,
    computed_ramsey,
    contains_target,
    derive,
    extend_with_disjoint_clique,
    graph6_decode,
    graph6_encode,
    is_good_coloring,
    isqrt_ceil,
    partition_check,
    ramsey_by_search,
    replay,
    search_coloring,
    seed_registry,
    theorem_mt_bound,
    verify_lower_bound,
)
from c4ramsey.cli import run
from c4ramsey.registry import Registry
from c4ramsey.targets import CYCLE4, PATH3, clique, parse_targets, star

from conftest import brute_contains, random_graph
from test_search import brute_partition_feasible


def report(number, label, fn, limit):
    start = time.monotonic()
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"
    print(f"ACCEPTANCE {number} ({label}): PASS [{elapsed:.1f}s]")


def test_criterion_1_table_reproduction():
    def check():
        reg = seed_registry()
        expected = {
            "C4,K11": 43,
            "C4,K12": 51,
            "C4,K4,K4": 66,
            "C4,K3,K3,K3": 57,
            "C4,C4,K3,K4": 75,
            "C4,C4,K4,K4": 177,
        }
        for key, value in expected.items():
            tree = derive(parse_targets(key), reg)
            assert tree.value == value, (key, tree.value)
            replay(tree)
        row3 = derive(parse_targets("C4,K3,K4"), reg)
        assert row3.rule == "Registry" and row3.value == 29
        replay(row3)

    report(1, "table reproduction", check, 1.0)


def test_criterion_2_books_and_stars(tmp_path):
    def check():
        # the book bound is Theorem MT on r_1 = the best bound on R(C4,S17):
        # the [Par3] fact R(C4,S17) = 22, or else Parsons' 17 + 5 + 1 = 23
        empty = tmp_path / "empty.txt"
        Registry().save(empty)
        assert theorem_mt_bound(BoundQuery(1, (22,))) == 28
        assert theorem_mt_bound(BoundQuery(1, (23,))) == 29
        assert theorem_mt_bound(BoundQuery(1, (7,))) == 11
        assert isqrt_ceil(7) == 3
        # `bound --r` takes r_1 itself; `derive C4,B17` takes it from a registry
        for argv, value in ((["bound", "--r", "22"], "28"), (["bound", "--r", "23"], "29"),
                            (["bound", "--r", "7"], "11"), (["derive", "C4,B17"], "28"),
                            (["derive", "C4,B17", "--registry", str(empty)], "29")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert run(argv) == 0
            assert out.getvalue().split("\n", 1)[0] == value

    report(2, "books/stars corollaries", check, 1.0)


def test_criterion_3_n0_identity():
    def check():
        for m in range(2, 1001):
            assert theorem_mt_bound(BoundQuery(m, ())) == m * m + m + 1

    report(3, "n=0 identity", check, 1.0)


def test_criterion_4_formula_relations():
    def check():
        rng = random.Random(7)
        points = 0
        for _ in range(10_000):
            m = rng.randint(1, 50)
            s = rng.randint(1, 10**6)
            # Theorem MT's ceiling term c is the least with 4c^2 >= m^2 ((m+1)^2 + 4s)
            c = theorem_mt_bound(BoundQuery(m, (s + 1,))) - s - 1 - m * (m + 1) // 2
            assert 4 * c * c >= m * m * ((m + 1) ** 2 + 4 * s) > 4 * (c - 1) * (c - 1)
            points += 1
        assert points >= 10**4
        for _ in range(10_000):
            k = rng.randint(1, 10**6)
            assert isqrt_ceil(k + 1) == math.isqrt(k) + 1

    report(4, "formula relations", check, 10.0)


def test_criterion_5_desk_scale_ramsey_numbers():
    def check():
        assert computed_ramsey(ramsey_by_search([CYCLE4, CYCLE4], 4, 6)) == 6
        assert computed_ramsey(ramsey_by_search([PATH3, PATH3], 2, 3)) == 3
        assert computed_ramsey(ramsey_by_search([CYCLE4, clique(3)], 5, 7)) == 7
        assert computed_ramsey(ramsey_by_search([CYCLE4, star(3)], 4, 6)) == 6

    report(5, "desk-scale Ramsey numbers", check, 60.0)


def test_criterion_5_stretch_r_c4_k4():
    def check():
        assert search_coloring(9, [CYCLE4, clique(4)]).status == "feasible"

    report("5s-a", "R(C4,K4) feasible at N=9", check, 60.0)

    def check_10():
        budget = SearchBudget(node_limit=200_000_000, time_limit=590.0)
        out = search_coloring(10, [CYCLE4, clique(4)], budget)
        assert out.status in ("infeasible", "unknown")
        assert out.status == "infeasible", "expected full enumeration within budget"
        assert out.nodes_explored == 38_580_170

    report("5s-b", "R(C4,K4) infeasible at N=10", check_10, 600.0)


def test_criterion_6_partition_kernel():
    def check():
        assert partition_check(SimpleGraph(9)).status == "infeasible"
        k8 = partition_check(SimpleGraph(8))
        assert k8.status == "feasible"
        assert is_good_coloring(k8.witness, [CYCLE4, clique(3), clique(4)])
        c5 = SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert partition_check(c5).status == "feasible"

    report("6a", "partition kernel cases", check, 180.0)

    def check_oracle():
        rng = random.Random(99)
        checked = 0
        while checked < 100:
            n = rng.randint(4, 6)
            g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
            if contains_target(g, CYCLE4):
                continue
            if g.complement().edge_count() > 12:
                continue
            got = partition_check(g).status == "feasible"
            assert got == brute_partition_feasible(g, clique(3), clique(4))
            checked += 1

    report("6b", "partition oracle agreement", check_oracle, 120.0)


def test_criterion_7_witness_pipeline():
    def check():
        out = search_coloring(6, [CYCLE4, clique(3)])
        assert out.status == "feasible"
        extended, promoted = extend_with_disjoint_clique(
            out.witness, [CYCLE4, clique(3)], 3, 0, 1
        )
        assert promoted == [CYCLE4, clique(4)]
        fact = verify_lower_bound(extended, promoted)
        assert fact.value == 10  # consistent with R(C4,K4) = 10

    report(7, "witness pipeline", check, 60.0)


def test_criterion_8_containment_oracle():
    def check():
        from c4ramsey.targets import book, empty_graph, with_isolated

        targets = [
            clique(3), clique(4), CYCLE4, star(2), star(3), book(1), book(2),
            empty_graph(3), PATH3, with_isolated(clique(3), 1),
        ]
        rng = random.Random(3)
        for _ in range(500):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            for t in targets:
                assert contains_target(g, t) == brute_contains(g, t), (g.adj, t)

    report(8, "containment oracle", check, 60.0)


def test_criterion_9_graph6_bit_exactness():
    def check():
        assert graph6_encode(SimpleGraph(5)) == "D??"
        assert graph6_encode(SimpleGraph(2, [(0, 1)])) == "A_"
        assert graph6_decode("D??").n == 5 and graph6_decode("D??").edge_count() == 0
        k2 = graph6_decode("A_")
        assert k2.n == 2 and k2.has_edge(0, 1)
        rng = random.Random(17)
        for _ in range(1000):
            n = rng.randint(1, 62)
            g = random_graph(rng, n, rng.choice([0.1, 0.5, 0.9]))
            assert graph6_decode(graph6_encode(g)) == g

    report(9, "graph6 bit-exactness", check, 60.0)
