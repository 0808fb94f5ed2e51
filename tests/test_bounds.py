import random

import pytest
from hypothesis import given, strategies as st

from c4ramsey import (
    BoundQuery,
    book_bound,
    isqrt_ceil,
    isqrt_floor,
    lemma2_bound,
    lemma_p3_bound,
    parsons_bound,
    stars_bound,
    theorem_mt_bound,
)
from c4ramsey.registry import RamseyFact
from c4ramsey.targets import parse_targets


class TestIsqrt:
    def test_paper_case_values(self):
        assert isqrt_floor(36) == 6
        assert isqrt_ceil(43) == 7

    def test_zero(self):
        assert isqrt_ceil(0) == 0
        assert isqrt_floor(0) == 0

    @given(st.integers(0, 2**63 - 1))
    def test_floor_definition(self, x):
        f = isqrt_floor(x)
        assert f * f <= x < (f + 1) * (f + 1)

    @given(st.integers(0, 2**63 - 1))
    def test_ceil_is_smallest_dominating_square(self, x):
        c = isqrt_ceil(x)
        assert c * c >= x and (c == 0 or (c - 1) * (c - 1) < x)

    @given(st.integers(1, 10**6))
    def test_ceil_shift_identity(self, k):
        assert isqrt_ceil(k + 1) == isqrt_floor(k) + 1

    def test_no_width_limit(self):
        # the roots are exact on ints of any size, 64 bits and far beyond
        for x in (2**63 - 1, 2**63, 2**200 + 12345, (10**30 + 7) ** 2, (10**30 + 7) ** 2 + 1):
            f, c = isqrt_floor(x), isqrt_ceil(x)
            assert f * f <= x < (f + 1) * (f + 1)
            assert c * c >= x > (c - 1) * (c - 1)
        with pytest.raises(ValueError):
            isqrt_ceil(-1)

    @pytest.mark.parametrize("m, r", [(1, (10**49,)), (2, (10**30, 10**30)), (3, (2**64, 5, 2**100))])
    def test_theorem_mt_past_64_bits(self, m, r):
        # the bound is s + 1 + (m^2+m)/2 + c, c the least with c^2 >= m^2 ((m+1)^2/4 + s)
        s = sum(r) - len(r)
        c = theorem_mt_bound(BoundQuery(m, r)) - s - 1 - m * (m + 1) // 2
        assert 4 * c * c >= m * m * ((m + 1) ** 2 + 4 * s) > 4 * (c - 1) * (c - 1)


class TestTheoremMtBound:
    @pytest.mark.parametrize(
        "m,r,expected",
        [
            (1, (36,), 43),
            (2, (21, 36), 75),
            (2, (75, 75), 177),
            (1, (17, 17, 17), 57),
            (3, (), 13),
        ],
    )
    def test_paper_cases(self, m, r, expected):
        assert theorem_mt_bound(BoundQuery(m, r)) == expected

    def test_m1_all_k2_excluded(self):
        with pytest.raises(ValueError, match=r"^m=1 with all r_i=1 is excluded"):
            theorem_mt_bound(BoundQuery(1, (1, 1)))
        with pytest.raises(ValueError, match=r"^m=1 needs some r_i > 1, and no r_i was given$"):
            theorem_mt_bound(BoundQuery(1, ()))

    def test_n0_identity(self):
        for m in range(2, 1001):
            assert theorem_mt_bound(BoundQuery(m, ())) == m * m + m + 1

    def test_monotone_in_r_and_m(self):
        rng = random.Random(5)
        for _ in range(200):
            m = rng.randint(1, 20)
            r = [rng.randint(2, 500) for _ in range(rng.randint(1, 4))]
            base = theorem_mt_bound(BoundQuery(m, tuple(r)))
            i = rng.randrange(len(r))
            bumped = list(r)
            bumped[i] += rng.randint(1, 10)
            assert theorem_mt_bound(BoundQuery(m, tuple(bumped))) >= base
            assert theorem_mt_bound(BoundQuery(m + 1, tuple(r))) >= base


class TestLemmaBounds:
    def test_m1_lemma2_is_sum_plus_3(self):
        assert lemma2_bound(BoundQuery(1, (5, 9))) == 5 + 9 - 2 + 3
        assert lemma2_bound(BoundQuery(1, ())) == 3

    def test_hand_evaluated_case(self):
        assert lemma2_bound(BoundQuery(2, (5,))) == 10

    def test_p3_examples(self):
        assert lemma_p3_bound(BoundQuery(1, (36,))) == 42
        assert lemma_p3_bound(BoundQuery(2, ())) == 6

    def test_p3_is_mt_minus_one_on_grid(self):
        rng = random.Random(11)
        count = 0
        for _ in range(12000):
            m = rng.randint(1, 50)
            s = rng.randint(1, 10**6)
            q = BoundQuery(m, (s + 1,))  # sum r - n = s
            assert q.s == s
            assert theorem_mt_bound(q) == lemma_p3_bound(q) + 1
            assert lemma_p3_bound(q) >= lemma2_bound(q)
            count += 1
        assert count >= 10**4


class TestParsonsAndBooks:
    def test_k7_prime_power_case(self):
        assert parsons_bound(7) == 11
        assert isqrt_ceil(7) == 3

    def test_small_values(self):
        assert parsons_bound(2) == 5
        assert parsons_bound(17) == 23

    def test_k_below_2_rejected(self):
        with pytest.raises(ValueError):
            parsons_bound(1)
        with pytest.raises(ValueError):
            book_bound(1)

    def test_book_17_with_and_without_registry_fact(self):
        fact = RamseyFact(parse_targets("C4,S17"), "exact", 22, "[Par3]", "paper")
        assert book_bound(17, fact) == 28
        assert book_bound(17) == 29

    def test_book_2(self):
        assert book_bound(2) == 9

    def test_book_keeps_parsons_under_a_weaker_star_fact(self):
        weak = RamseyFact(parse_targets("C4,S5"), "upper", 20, "weak", "user")
        assert parsons_bound(5) == 9
        assert book_bound(5, weak) == book_bound(5) == 13

    # derive plans Parsons' bound and the book corollary as Theorem MT nodes,
    # so each must be Theorem MT with its own r_1: k, or the star bound s

    def test_parsons_is_theorem_mt(self):
        for k in list(range(2, 5000)) + [10**6 + 3, 2**62, 10**40]:
            assert parsons_bound(k) == theorem_mt_bound(BoundQuery(1, (k,)))

    def test_book_is_theorem_mt_on_the_star_bound(self):
        for k in range(2, 500):
            s = parsons_bound(k)
            assert book_bound(k) == theorem_mt_bound(BoundQuery(1, (s,))) == s + isqrt_ceil(s) + 1
            for v in (k + 1, s - 1, s, s + 7):
                fact = RamseyFact(parse_targets(f"C4,S{k}"), "upper", v, "", "user")
                assert book_bound(k, fact) == theorem_mt_bound(BoundQuery(1, (min(s, v),)))

    def test_fact_key_mismatch(self):
        wrong = RamseyFact(parse_targets("C4,S16"), "exact", 21, "", "user")
        with pytest.raises(ValueError):
            book_bound(17, wrong)
        lower = RamseyFact(parse_targets("C4,S17"), "lower", 22, "", "user")
        with pytest.raises(ValueError):
            book_bound(17, lower)


class TestStarsBound:
    def test_single_star_values(self):
        assert stars_bound(1, [3]) == 6
        assert stars_bound(2, [1]) == 7

    def test_precondition(self):
        with pytest.raises(ValueError):
            stars_bound(1, [1])

    def test_reduces_to_single_star_closed_form(self):
        # for n=1 the bound equals k + (m^2+m)/2 + ceil(m sqrt(k + (m^2+2m-3)/4));
        # the ceiling is evaluated by exact rational comparison
        from fractions import Fraction

        for m in range(1, 12):
            for k in range(2, 60):
                target = Fraction(m * m * (m * m + 2 * m - 3), 4) + m * m * k
                c = 0
                while c * c < target:
                    c += 1
                assert stars_bound(m, [k]) == k + m * (m + 1) // 2 + c

    def test_matches_theorem_mt(self):
        # errors included: stars_bound refuses exactly what Theorem MT refuses
        assert stars_bound(2, [3, 4]) == theorem_mt_bound(BoundQuery(2, (3, 4)))
        rng = random.Random(18)
        for _ in range(5000):
            m = rng.randint(0, 4)
            k = [rng.randint(1, 30) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.3:
                k = [1] * len(k)
            assert _outcome(stars_bound, m, k) == _outcome(theorem_mt_bound, BoundQuery(m, k)), (m, k)


def _outcome(f, *args):
    """f's value, or ValueError where it refuses its arguments."""
    try:
        return f(*args)
    except ValueError:
        return ValueError


class TestSedrakyanSpecialCase:
    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=20))
    def test_sum_of_squares_inequality(self, a):
        m = len(a)
        assert m * sum(x * x for x in a) >= sum(a) ** 2
