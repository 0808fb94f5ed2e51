import re

import pytest
from hypothesis import given, strategies as st

from c4ramsey import RamseyFact, Registry, seed_registry
from c4ramsey.registry import ContradictionError, parse_registry, render_registry
from c4ramsey.targets import parse_targets


def fact(targets, kind, value, citation="", trust="user"):
    return RamseyFact(parse_targets(targets), kind, value, citation, trust)


class TestRegistry:
    def test_add_and_lookup(self):
        reg = Registry([fact("C4,K10", "exact", 36, "[LaLR]", "paper")])
        f = reg.best_upper(parse_targets("K10,C4"))  # canonical key lookup
        assert f.value == 36 and f.kind == "exact"
        assert reg.best_lower(parse_targets("C4,K10")).value == 36

    def test_lower_within_upper_accepted(self):
        reg = Registry()
        reg.add(fact("C4,K3,K4", "upper", 29))
        reg.add(fact("C4,K3,K4", "lower", 27))
        assert reg.best_lower(parse_targets("C4,K3,K4")).value == 27

    def test_contradiction_rejected(self):
        reg = Registry()
        reg.add(fact("C4,K3,K4", "upper", 29))
        with pytest.raises(ContradictionError):
            reg.add(fact("C4,K3,K4", "lower", 30))

    def test_upper_below_lower_rejected(self):
        reg = Registry()
        reg.add(fact("C4,K11", "lower", 40))
        with pytest.raises(ContradictionError):
            reg.add(fact("C4,K11", "upper", 39))

    def test_keeps_best_bounds(self):
        reg = Registry()
        reg.add(fact("C4,K11", "upper", 44))
        reg.add(fact("C4,K11", "upper", 43))
        reg.add(fact("C4,K11", "upper", 50))
        assert reg.best_upper(parse_targets("C4,K11")).value == 43

    # K2 entries leave R unchanged, so a fact on C4,K2,K3 is a fact on C4,K3

    def test_k2_entries_are_left_out_of_the_key(self):
        reg = Registry([fact("C4,K2,K3", "upper", 7, "x")])
        for targets in ("C4,K3", "C4,K2,K3", "K2,C4,K2,K3"):
            assert reg.best_upper(parse_targets(targets)).to_line() == "C4,K2,K3 | upper | 7 | x | user"
        assert reg.best_lower(parse_targets("C4,K3")) is None

    def test_contradiction_across_a_k2_entry(self):
        reg = Registry([fact("C4,K3", "upper", 7)])
        with pytest.raises(ContradictionError, match="^lower bound 8 for C4,K2,K3 exceeds upper bound 7$"):
            reg.add(fact("C4,K2,K3", "lower", 8))
        reg = Registry([fact("C4,K2,K3", "lower", 8)])
        with pytest.raises(ContradictionError, match="^upper bound 7 for C4,K3 is below lower bound 8$"):
            reg.add(fact("C4,K3", "upper", 7))

    def test_bad_kind_and_trust(self):
        with pytest.raises(ValueError):
            fact("C4,K3", "approx", 7)
        with pytest.raises(ValueError):
            fact("C4,K3", "exact", 7, trust="rumor")


class TestTrivialLowerBound:
    # T(L): the largest entry's vertex count, or the least k of a kK1 entry if
    # smaller; K_{T-1} in the color of a largest entry shows R(L) >= T(L)
    @pytest.mark.parametrize(
        "targets, floor",
        [
            ("C4,K4,3K1", 3),  # a kK1 entry sets T
            ("C4,K3,5K1", 5),  # a kK1 that is the largest entry
            ("C4,K2", 4),  # the message names the fact's own list, K2 and all
            ("K5", 5),  # a single entry
            ("C4", 4),
            ("C4,K5+1K1", 6),  # +1K1 entries count their isolated vertex
            ("C4,C4,K3+1K1,K3+1K1", 4),
            ("C4,K9", 9),
        ],
    )
    @pytest.mark.parametrize("kind", ["exact", "upper"])
    def test_below_refused_at_and_above_accepted(self, targets, floor, kind):
        key = re.escape(parse_targets(targets).key())
        with pytest.raises(ContradictionError, match=f" {floor - 1} for {key} is below the trivial lower bound {floor}$"):
            Registry([fact(targets, kind, floor - 1)])
        for value in (floor, floor + 1):
            assert Registry([fact(targets, kind, value)]).best_upper(parse_targets(targets)).value == value

    def test_lower_facts_are_not_checked(self):
        assert Registry([fact("C4,K9", "lower", 2)]).best_lower(parse_targets("C4,K9")).value == 2

    def test_message_names_the_kind(self):
        with pytest.raises(ContradictionError, match="^upper bound 2 for C4,K9 is below the trivial lower bound 9$"):
            Registry([fact("C4,K9", "upper", 2)])
        with pytest.raises(ContradictionError, match="^exact value 8 for C4,K9 is below the trivial lower bound 9$"):
            Registry([fact("C4,K9", "exact", 8)])


class TestFileFormat:
    def test_line_round_trip(self):
        f = fact("C4,K10", "exact", 36, "[LaLR]", "paper")
        assert RamseyFact.from_line(f.to_line()) == f

    def test_registry_text_round_trip(self):
        reg = Registry(
            [
                fact("C4,K10", "exact", 36, "[LaLR]", "paper"),
                fact("C4,K11", "lower", 40, "[VO]", "paper"),
                fact("C4,K11", "upper", 43, "", "derived"),
            ]
        )
        again = parse_registry(render_registry(reg))
        assert {x.to_line() for x in again.facts()} == {x.to_line() for x in reg.facts()}

    def test_save_load(self, tmp_path):
        reg = Registry([fact("C4,K10", "exact", 36)])
        path = tmp_path / "reg.txt"
        reg.save(path)
        from c4ramsey import load_registry

        assert load_registry(path).best_upper(parse_targets("C4,K10")).value == 36

    def test_bad_line(self):
        with pytest.raises(ValueError):
            RamseyFact.from_line("C4,K10 | exact | 36")

    @pytest.mark.parametrize("line, error, message", [
        ("C4,K9 | upper | 2 | fake | user", ContradictionError, "upper bound 2 for C4,K9 is below the trivial"),
        ("C4,K9 | upper | 1.5 | fake | user", ValueError, "fact value must be an integer, got '1.5'"),
        ("C4,K9 | upper | 20", ValueError, "bad fact line"),
    ])
    def test_refused_file_line_keeps_its_error_and_is_named(self, line, error, message):
        with pytest.raises(error, match=f"^line 3: {re.escape(message)}") as caught:
            parse_registry(f"# comment\nC4,K10 | exact | 36 | [LaLR] | paper\n{line}\n")
        assert type(caught.value) is error

    @pytest.mark.parametrize("citation", ["a | b", "see #3", "two\nlines", "cr\rlf", " padded", "sep\u2028"])
    def test_citation_the_line_cannot_carry_is_rejected(self, citation):
        with pytest.raises(ValueError, match="citation"):
            fact("C4,K10", "exact", 36, citation)

    @given(st.text(max_size=12))
    def test_any_accepted_citation_round_trips_through_the_file(self, citation):
        try:
            f = fact("C4,K10", "exact", 36, citation, "paper")
        except ValueError:
            return
        (again,) = parse_registry(render_registry(Registry([f]))).facts()
        assert again == f


class TestSeedRegistry:
    def test_core_seed_facts_present(self):
        reg = seed_registry()
        assert reg.best_upper(parse_targets("C4,K10")).value == 36
        assert reg.best_upper(parse_targets("C4,K9")).value == 30
        assert reg.best_upper(parse_targets("K3,K4")).value == 9
        assert reg.best_upper(parse_targets("C4,K3,K3")).value == 17
        assert reg.best_upper(parse_targets("C4,C4,K4")).value == 21
        assert reg.best_upper(parse_targets("C4,C4,K3,K3")).value == 36
        assert reg.best_upper(parse_targets("C4,K3,K4")).value == 29
        assert reg.best_upper(parse_targets("C4,S17")).value == 22

    def test_table_lower_bounds_present(self):
        reg = seed_registry()
        expect = {
            "C4,K11": 40,
            "C4,K12": 43,
            "C4,K3,K4": 27,
            "C4,K4,K4": 52,
            "C4,K3,K3,K3": 49,
            "C4,C4,K3,K4": 43,
            "C4,C4,K4,K4": 87,
        }
        for key, value in expect.items():
            assert reg.best_lower(parse_targets(key)).value == value

    def test_each_call_is_a_fresh_registry(self):
        reg = seed_registry()
        reg.add(RamseyFact.from_line("C4,K3 | exact | 7 | small search | computational"))
        reg.add(RamseyFact.from_line("C4,K12 | lower | 44 | hypothetical | user"))
        assert reg.best_lower(parse_targets("C4,K12")).value == 44
        again = seed_registry()
        assert again is not reg
        assert again.best_upper(parse_targets("C4,K3")) is None
        assert again.best_lower(parse_targets("C4,K3")) is None
        assert again.best_lower(parse_targets("C4,K12")).value == 43
        assert again.facts() == seed_registry().facts()
