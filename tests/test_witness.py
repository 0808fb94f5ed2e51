import pytest

from c4ramsey import witness
from c4ramsey import (
    BadWitnessError,
    EdgeColoring,
    Registry,
    extend_with_disjoint_clique,
    is_good_coloring,
    search_coloring,
    verify_lower_bound,
)
from c4ramsey.graphs import coloring_from_text, pair_iter
from c4ramsey.targets import CYCLE4, clique, star


class TestVerifyLowerBound:
    def test_two_five_cycles_prove_r_c4_c4_geq_6(self, k5_two_cycles):
        fact = verify_lower_bound(k5_two_cycles, [CYCLE4, CYCLE4])
        assert fact.kind == "lower"
        assert fact.value == 6
        assert fact.trust == "computational"
        assert fact.targets.key() == "C4,C4"

    def test_mono_triangle_rejected_with_copy_named(self):
        col = EdgeColoring(3, 2, [0] * 3)
        with pytest.raises(BadWitnessError) as e:
            verify_lower_bound(col, [star(2), star(2)])
        assert e.value.color == 0
        assert e.value.target == star(2)
        assert len(e.value.vertices) == 3

    def test_incomplete_witness_cannot_be_built(self):
        # no partial coloring reaches verify_lower_bound: the constructor
        # refuses a pair without a color, and so does the text reader
        with pytest.raises(ValueError):
            EdgeColoring(3, 2, [0, -1, -1])
        with pytest.raises(ValueError, match="^missing pair 0 2"):
            coloring_from_text("3 2\n0 1 0\n")

    def test_target_count_mismatch(self, k5_two_cycles):
        with pytest.raises(ValueError):
            verify_lower_bound(k5_two_cycles, [CYCLE4])

    def test_fact_feeds_registry(self, k5_two_cycles):
        fact = verify_lower_bound(k5_two_cycles, [CYCLE4, CYCLE4], source="two C5s")
        reg = Registry()
        reg.add(fact)
        assert reg.best_lower(fact.targets).value == 6
        assert "two C5s" in fact.citation


class TestExtendWithDisjointClique:
    def base_witness(self):
        out = search_coloring(6, [CYCLE4, clique(3)])
        assert out.status == "feasible"
        return out.witness

    def test_add_k3_gives_c4_k4_at_9(self):
        w = self.base_witness()
        extended, promoted = extend_with_disjoint_clique(w, [CYCLE4, clique(3)], 3, 0, 1)
        assert promoted == [CYCLE4, clique(4)]
        assert extended.n == 9
        assert is_good_coloring(extended, promoted)
        assert verify_lower_bound(extended, promoted).value == 10

    def test_add_k2(self):
        w = self.base_witness()
        extended, promoted = extend_with_disjoint_clique(w, [CYCLE4, clique(3)], 2, 0, 1)
        assert extended.n == 8
        assert is_good_coloring(extended, promoted)

    def test_edge_counts(self):
        w = self.base_witness()
        n, k = w.n, 3
        extended, _ = extend_with_disjoint_clique(w, [CYCLE4, clique(3)], k, 0, 1)
        old_sizes = [w.color_class(i).edge_count() for i in range(2)]
        new_sizes = [extended.color_class(i).edge_count() for i in range(2)]
        assert new_sizes[0] == old_sizes[0] + k * (k - 1) // 2  # new clique in C4 color
        assert new_sizes[1] == old_sizes[1] + k * n  # cross edges

    def test_original_colors_preserved(self):
        w = self.base_witness()
        extended, _ = extend_with_disjoint_clique(w, [CYCLE4, clique(3)], 3, 0, 1)
        for u, v in pair_iter(w.n):
            assert extended.get(u, v) == w.get(u, v)

    @pytest.mark.parametrize("k", [4, 5, 1, 0])
    def test_clique_outside_2_3_rejected_before_building(self, k, monkeypatch):
        # a 4-clique in the C4-free color contains a C4, so k >= 4 can never
        # give a good coloring: it is refused before any coloring is built
        w = self.base_witness()

        def unreachable(*args, **kwargs):
            raise AssertionError("built or checked a coloring for a refused k")

        for name in ("EdgeColoring", "is_good_coloring", "verify_lower_bound"):
            monkeypatch.setattr(witness, name, unreachable)
        with pytest.raises(ValueError, match=rf"k = 2 or 3 \(a K4 holds a C4\), got {k}$"):
            extend_with_disjoint_clique(w, [CYCLE4, clique(3)], k, 0, 1)

    def test_role_validation(self):
        w = self.base_witness()
        with pytest.raises(ValueError):
            extend_with_disjoint_clique(w, [CYCLE4, clique(3)], 3, 0, 0)
        with pytest.raises(ValueError):
            extend_with_disjoint_clique(w, [CYCLE4, clique(3)], 3, 1, 0)
        with pytest.raises(ValueError):
            extend_with_disjoint_clique(w, [CYCLE4, clique(3)], 1, 0, 1)

    @pytest.mark.parametrize("c4_color, clique_color", [(5, 1), (0, -7), (-2, 1), (0, -1)])
    def test_out_of_range_roles_rejected(self, c4_color, clique_color):
        w = self.base_witness()
        with pytest.raises(ValueError, match=r"not in 0\.\.1"):
            extend_with_disjoint_clique(w, [CYCLE4, clique(3)], 3, c4_color, clique_color)

    def test_bad_input_coloring_rejected(self):
        col = EdgeColoring(3, 2, [1] * 3)  # a monochromatic K3 in the clique color
        with pytest.raises(BadWitnessError) as e:
            extend_with_disjoint_clique(col, [CYCLE4, clique(3)], 3, 0, 1)
        assert (e.value.color, e.value.target, e.value.vertices) == (1, clique(3), (0, 1, 2))

    def test_chain_to_n18_verifies(self):
        # C4,K3@6 -> C4,K4@9 -> C4,K5@12 -> C4,K6@15, then one more step,
        # which verifies the C4,K7 witness at N=18 before returning it
        w, targets = self.base_witness(), [CYCLE4, clique(3)]
        for _ in range(3):
            w, targets = extend_with_disjoint_clique(w, targets, 3, 0, 1)
        assert w.n == 15 and targets == [CYCLE4, clique(6)]
        assert verify_lower_bound(w, targets).value == 16
        w, targets = extend_with_disjoint_clique(w, targets, 3, 0, 1)
        assert w.n == 18 and targets == [CYCLE4, clique(7)]
        assert verify_lower_bound(w, targets).value == 19

    def test_pipeline_over_search_found_bases(self):
        # every search-found (C4, K3) witness on 4..6 vertices extends cleanly
        for n in (4, 5, 6):
            out = search_coloring(n, [CYCLE4, clique(3)])
            assert out.status == "feasible"
            extended, promoted = extend_with_disjoint_clique(
                out.witness, [CYCLE4, clique(3)], 3, 0, 1
            )
            assert verify_lower_bound(extended, promoted).value == n + 4
