import contextlib
import io
import math
import random

import pytest
from hypothesis import given, strategies as st

from c4ramsey import (
    BoundQuery,
    RamseyFact,
    Registry,
    isqrt_ceil,
    theorem_mt_bound,
)
from c4ramsey.cli import run


class TestIsqrt:
    def test_paper_case_values(self):
        assert isqrt_ceil(36) == 6
        assert isqrt_ceil(43) == 7

    def test_zero(self):
        assert isqrt_ceil(0) == 0

    @given(st.integers(0, 2**63 - 1))
    def test_floor_definition(self, x):
        # the ceiling is the floor root, plus one unless x is a square
        f = math.isqrt(x)
        assert isqrt_ceil(x) == f + (f * f != x)

    @given(st.integers(0, 2**63 - 1))
    def test_ceil_is_smallest_dominating_square(self, x):
        c = isqrt_ceil(x)
        assert c * c >= x and (c == 0 or (c - 1) * (c - 1) < x)

    @given(st.integers(1, 10**6))
    def test_ceil_shift_identity(self, k):
        assert isqrt_ceil(k + 1) == math.isqrt(k) + 1

    def test_no_width_limit(self):
        # the roots are exact on ints of any size, 64 bits and far beyond
        for x in (2**63 - 1, 2**63, 2**200 + 12345, (10**30 + 7) ** 2, (10**30 + 7) ** 2 + 1):
            c = isqrt_ceil(x)
            assert c * c >= x > (c - 1) * (c - 1)
            assert c == math.isqrt(x) + (math.isqrt(x) ** 2 != x)
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


def mt(m, *r):
    return theorem_mt_bound(BoundQuery(m, r))


def bound(*args):
    """(exit code, stdout) of `c4ramsey bound ARGS`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(["bound", *map(str, args)])
    return code, out.getvalue().strip()


def book(k):
    """`bound --r S`, S what `bound --r K` prints: the book bound on Parsons' star bound."""
    code, s = bound("--r", k)
    return bound("--r", s) if code == 0 else (code, s)


def derived(targets, registry=None):
    """(exit code, first stdout line) of `c4ramsey derive TARGETS [--registry PATH]`."""
    out = io.StringIO()
    argv = ["derive", targets] + ([] if registry is None else ["--registry", registry])
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue().split("\n", 1)[0]


def star_registry(path, facts):
    """A registry file holding an upper bound on R(C4,S_k) for each k -> v."""
    Registry(RamseyFact.from_line(f"C4,S{k} | upper | {v} | | user") for k, v in facts.items()).save(path)
    return str(path)


# The paper's star, book and multicolor star bounds are Theorem MT on their
# own r, which `bound --m M --r R..` evaluates: r = (k,) for Parsons' star
# bound, r = (s,) for the book bound with s an upper bound on R(C4,S_k), and
# r = (k_1..k_n) for the multicolor star bound.  `derive C4,Bk` takes s as the
# better of Parsons' bound and a registry fact on R(C4,S_k)


class TestParsonsAndBooks:
    def test_k7_prime_power_case(self):
        assert mt(1, 7) == 11 == 7 + isqrt_ceil(7) + 1
        assert isqrt_ceil(7) == 3
        assert bound("--r", 7) == (0, "11")

    def test_small_values(self):
        assert mt(1, 2) == 5
        assert mt(1, 17) == 23
        assert bound("--r", 2) == (0, "5")
        assert bound("--r", 17) == (0, "23")

    def test_k_below_2_rejected(self):
        with pytest.raises(ValueError):
            mt(1, 1)
        for k in (1, 0, -3):
            assert bound("--r", k) == (1, "")

    def test_book_17_with_and_without_registry_fact(self, tmp_path):
        # the seed registry holds R(C4,S17) = 22 [Par3]; Parsons gives 23
        assert mt(1, 22) == 28 and mt(1, mt(1, 17)) == 29
        assert bound("--r", 22) == derived("C4,B17") == (0, "28")
        empty = star_registry(tmp_path / "empty.txt", {})
        assert book(17) == derived("C4,B17", empty) == (0, "29")

    def test_book_2(self):
        assert mt(1, mt(1, 2)) == 9
        assert bound("--r", 5) == book(2) == derived("C4,B2") == (0, "9")

    def test_book_keeps_parsons_under_a_weaker_star_fact(self, tmp_path):
        weak = star_registry(tmp_path / "weak.txt", {5: 20})
        assert mt(1, 5) == 9
        assert derived("C4,B5", weak) == derived("C4,B5") == book(5) == (0, "13")

    def test_parsons_is_theorem_mt(self):
        for k in list(range(2, 5000)) + [10**6 + 3, 2**62, 10**40]:
            assert mt(1, k) == k + isqrt_ceil(k) + 1
        for k in [2, 3, 99, 10**6 + 3, 2**62, 10**40]:
            assert bound("--r", k) == (0, str(mt(1, k)))

    def test_book_is_theorem_mt_on_the_star_bound(self, tmp_path):
        for k in range(2, 500):
            s = mt(1, k)
            assert book(k) == (0, str(mt(1, s))) == (0, str(s + isqrt_ceil(s) + 1))
        # star facts below, at and above Parsons' bound, each at least the trivial floor
        ks = range(2, 60)
        for shift in (lambda k, s: k + 1, lambda k, s: s - 1, lambda k, s: s, lambda k, s: s + 7):
            facts = {k: max(4, shift(k, mt(1, k))) for k in ks}
            reg = star_registry(tmp_path / "stars.txt", facts)
            for k in ks:
                s = min(mt(1, k), facts[k])
                assert derived(f"C4,B{k}", reg) == bound("--r", s) == (0, str(mt(1, s)))


class TestStarsBound:
    def test_single_star_values(self):
        assert mt(1, 3) == 6
        assert mt(2, 1) == 7
        assert bound("--r", 3) == (0, "6")
        assert bound("--r", 1, "--m", 2) == (0, "7")

    def test_precondition(self):
        with pytest.raises(ValueError):
            mt(1, 1)
        assert bound("--r", 1) == (1, "")

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
                assert mt(m, k) == k + m * (m + 1) // 2 + c

    def test_matches_theorem_mt(self):
        # `bound --m M --r K..` prints Theorem MT on (M, K..), or exits 1
        # where Theorem MT refuses them
        assert bound("--r", 3, 4, "--m", 2) == (0, str(mt(2, 3, 4))) == (0, "15")
        rng = random.Random(18)
        for _ in range(5000):
            m = rng.randint(0, 4)
            k = [rng.randint(1, 30) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.3:
                k = [1] * len(k)
            try:
                expected = (0, str(mt(m, *k)))
            except ValueError:
                expected = (1, "")
            assert bound("--r", *k, "--m", m) == expected, (m, k)


class TestSedrakyanSpecialCase:
    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=20))
    def test_sum_of_squares_inequality(self, a):
        m = len(a)
        assert m * sum(x * x for x in a) >= sum(a) ** 2
