import hashlib
import itertools
import json
import os
import random
import signal
import sys
import threading
from pathlib import Path

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
from c4ramsey import search
from c4ramsey.graphs import pair_iter
from c4ramsey.search import _creates_test
from c4ramsey.targets import CYCLE4, PATH3, book, clique, empty_graph, parse_target_sequence, star, with_isolated

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

    @pytest.mark.parametrize("pair_targets", [(), (clique(3),), (clique(3), clique(3), clique(3))], ids=len)
    def test_needs_exactly_two_targets(self, pair_targets):
        # a third target would get a color of its own that the witness check skips
        with pytest.raises(ValueError, match="need exactly two pair targets"):
            partition_check(SimpleGraph(3), pair_targets)

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

    def test_each_target_is_compiled_once(self):
        assert _creates_test(clique(5)) is _creates_test(parse_target_sequence("K5")[0])
        assert _creates_test(book(3)) is not _creates_test(book(4))

    @pytest.mark.parametrize("target", [empty_graph(3), with_isolated(clique(3), 1)], ids=str)
    def test_unsupported_kind_raises_on_every_call(self, target):
        for _ in range(3):
            with pytest.raises(ValueError, match="unsupported incremental target"):
                _creates_test(target)

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


SWEEP = json.loads((Path(__file__).parent / "data" / "split_sweep.json").read_text())


def _sweep_outcome(rec):
    budget = SearchBudget(node_limit=rec["node_limit"]) if rec["node_limit"] else None
    out = search_coloring(rec["n"], parse_target_sequence(rec["targets"]), budget, rec["caps"])
    witness = "".join(map(str, out.witness.colors)) if out.witness else None
    return out.status, out.nodes_explored, witness


def _expected(rec):
    return rec["status"], rec["nodes"], rec["witness"]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Split at the first budget check, as on two usable cores; the list
    fills with one entry per helper forked."""
    started = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(search, "SPLIT_AFTER", 4096)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counted)
    return started


def _by_status(status):
    return next(r for r in SWEEP if r["status"] == status and r["nodes"] >= 2 * 4096)


# tests/data/split_plans.json: [depth, item count, sha256 over (items, gaps)]
# of every plan, recorded before the plan was a listing of the whole tree;
# "sweep" is by split_sweep.json index with SPLIT_AFTER 4096, "larger" by
# instance at the real SPLIT_AFTER
PLANS = json.loads((Path(__file__).parent / "data" / "split_plans.json").read_text())
SPLIT_AFTER = search.SPLIT_AFTER


@pytest.fixture
def plans(monkeypatch):
    """The list fills with the pin of each plan a split makes."""
    split, pins = search._Split.split, []

    def recorded(self, *args):
        split(self, *args)
        if self.items:
            digest = hashlib.sha256(json.dumps([self.items, self.gaps]).encode()).hexdigest()
            pins.append([len(self.items[0]), len(self.items), digest])

    monkeypatch.setattr(search._Split, "split", recorded)
    return pins


class TestSplit:
    # tests/data/split_sweep.json: 150 seeded random instances (n <= 9, two or
    # three colors from C4, K3, K4, S3, S4, B2, B3, P3, K3+1K1, some with
    # degree caps, some with a node limit) and their outcomes, recorded with
    # the sequential kernel before searches could split
    def test_sweep_matches_the_sequential_kernel(self, forks):
        split = 0
        for rec in SWEEP:
            before = len(forks)
            assert _sweep_outcome(rec) == _expected(rec), rec
            split += len(forks) > before
            _no_child_left()
        assert split == sum(rec["nodes"] >= 4096 for rec in SWEEP)

    def test_sweep_plans_are_pinned(self, forks, plans):
        got = []
        for i, rec in enumerate(SWEEP):
            _sweep_outcome(rec)
            got += [[i, *pin] for pin in plans]
            plans.clear()
        assert got == PLANS["sweep"]

    def test_larger_plans_are_pinned(self, forks, plans, monkeypatch):
        # each search stops at the first budget check after its split
        monkeypatch.setattr(search, "SPLIT_AFTER", SPLIT_AFTER)
        got = []
        for case, *_ in PLANS["larger"]:
            spec, n = case.split("@")
            out = search_coloring(int(n), parse_target_sequence(spec), SearchBudget(node_limit=SPLIT_AFTER + 1))
            assert (out.status, out.nodes_explored) == ("unknown", SPLIT_AFTER + 2)
            got += [[case, *pin] for pin in plans]
            plans.clear()
        assert got == PLANS["larger"]
        _no_child_left()

    def test_plan_work_bounds_the_listing(self, forks, monkeypatch):
        # listing nodes per plan, as dfs counts them: a listing cut by the
        # bound stops at its node_limit + 1
        monkeypatch.setattr(search, "_PLAN_WORK", 300)
        dfs, plan, spent = search._Tree.dfs, search._Split._plan, []

        def counted(self, prefix, colors, nodes, node_limit, stop=None, listed=None, **hook):
            out = dfs(self, prefix, colors, nodes, node_limit, stop, listed, **hook)
            if listed is not None:
                spent[-1] += out[2]
            return out

        def planned(self, *args):
            spent.append(0)
            return plan(self, *args)

        monkeypatch.setattr(search._Tree, "dfs", counted)
        monkeypatch.setattr(search._Split, "_plan", planned)
        for rec in SWEEP:
            assert _sweep_outcome(rec) == _expected(rec), rec
            _no_child_left()
        assert max(spent) == 301
        assert len(forks) == len(spent) == sum(rec["nodes"] >= 4096 for rec in SWEEP)

    def test_more_helpers_than_cores_claim_each_item_once(self, forks, monkeypatch):
        # three helpers and the main process on this machine's cores race for
        # the queue; an item run twice or never would change a node count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        long = [rec for rec in SWEEP if rec["nodes"] >= 4 * 4096]
        for rec in long:
            assert _sweep_outcome(rec) == _expected(rec), rec
        assert len(forks) == 3 * len(long)
        _no_child_left()

    @pytest.mark.parametrize("status", ["feasible", "infeasible", "unknown"])
    def test_no_helper_outlives_the_search(self, forks, status):
        rec = _by_status(status)
        assert _sweep_outcome(rec) == _expected(rec)
        assert len(forks) == 1
        _no_child_left()

    @pytest.mark.parametrize("status", ["feasible", "infeasible", "unknown"])
    def test_a_helper_dying_mid_item_changes_nothing(self, forks, monkeypatch, status):
        main = os.getpid()
        run = search._Split.run

        def dying(self, i, nodes):
            if os.getpid() != main:
                os._exit(1)
            return run(self, i, nodes)

        monkeypatch.setattr(search._Split, "run", dying)
        rec = _by_status(status)
        assert _sweep_outcome(rec) == _expected(rec)
        assert len(forks) == 1
        _no_child_left()

    def test_interrupt_after_the_split_leaves_no_child(self, forks, monkeypatch):
        main = os.getpid()
        run = search._Split.run

        def interrupted(self, i, nodes):
            if os.getpid() == main:
                raise KeyboardInterrupt
            return run(self, i, nodes)

        monkeypatch.setattr(search._Split, "run", interrupted)
        with pytest.raises(KeyboardInterrupt):
            search_coloring(8, [CYCLE4, star(5)])
        assert len(forks) == 1
        _no_child_left()

    def test_a_ctrl_c_as_a_helper_starts_does_not_reach_it(self, forks, monkeypatch):
        # SIGINT sent to each helper as soon as fork returns in it: the helper
        # ignores it, runs its items and exits 0 (or is killed once the answer
        # is known) instead of unwinding through the main process's frames
        fork, waitpid, statuses = os.fork, os.waitpid, []

        def interrupted():
            pid = fork()
            if pid == 0:
                try:
                    os.kill(os.getpid(), signal.SIGINT)
                except KeyboardInterrupt:
                    os._exit(3)
            return pid

        def recorded(pid, options):
            done = waitpid(pid, options)
            statuses.append(done[1])
            return done

        monkeypatch.setattr(os, "fork", interrupted)
        monkeypatch.setattr(os, "waitpid", recorded)
        rec = _by_status("infeasible")
        assert _sweep_outcome(rec) == _expected(rec)
        assert len(statuses) == 1
        assert os.WIFSIGNALED(statuses[0]) or os.WEXITSTATUS(statuses[0]) == 0
        _no_child_left()

    def test_deadline_after_the_split(self, forks):
        out = search_coloring(128, [star(100), star(100)], SearchBudget(time_limit=0.2))
        assert out.status == "unknown"
        assert len(forks) == 1
        _no_child_left()

    def test_partition_check_never_forks(self, forks):
        out = partition_check(SimpleGraph(9), budget=SearchBudget(node_limit=20000))
        assert (out.status, out.nodes_explored) == ("unknown", 20001)
        assert forks == []

    @pytest.mark.parametrize("setting", ["one core", "no fork", "threads"])
    def test_runs_alone_where_it_cannot_split(self, forks, monkeypatch, setting):
        if setting == "one core":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif setting == "no fork":
            monkeypatch.delattr(os, "fork")
        stop = threading.Event()
        waiter = threading.Thread(target=stop.wait)
        if setting == "threads":
            waiter.start()
        try:
            for status in ("feasible", "infeasible", "unknown"):
                rec = _by_status(status)
                assert _sweep_outcome(rec) == _expected(rec)
        finally:
            stop.set()
            if waiter.is_alive():
                waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert forks == []

    @pytest.mark.parametrize("cpus, helpers", [(6, 5), (1, 0), (None, 0)])
    def test_helper_count_without_affinity_uses_cpu_count(self, monkeypatch, cpus, helpers):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert search._helper_count() == helpers
