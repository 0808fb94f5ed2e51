import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from urllib.parse import unquote

import pytest
from hypothesis import given, settings, strategies as st

import c4ramsey
from c4ramsey import (
    DerivationTree,
    RamseyFact,
    Registry,
    derive,
    load_registry,
    replay,
    search_coloring,
    seed_registry,
)
from c4ramsey import cli, graphs, witness
from c4ramsey.cli import run
from c4ramsey.graphs import EdgeColoring, coloring_from_text, coloring_to_text, find_target_copy, pair_iter
from c4ramsey.targets import CYCLE4, clique, parse_targets, strip_k2

from conftest import two_five_cycles

# Coloring documents, from arbitrary text to near-valid ones: small headers and
# pair lines whose fields are numbers, '-', comments or junk.  A leading '@'
# names a file instead, so it is left out.
_FIELD = st.one_of(
    st.integers(-2, 4).map(str),
    st.sampled_from(["-", "#", "--1", "1.0", "\u0663"]),
    st.text(max_size=3),
)
COLORING_TEXT = st.one_of(
    st.text(),
    st.lists(st.lists(_FIELD, max_size=4).map(" ".join), max_size=8).map("\n".join),
).filter(lambda text: not text.startswith("@"))


# Target lists for derive: 1-3 C4s, one clique up to K60 and up to two small
# entries, each entry with 0-2 extra isolated vertices.  A second large entry
# adds nothing the small ones do not reach, but three of them make one example
# plan tens of thousands of lists.
def _isolated(base):
    return st.tuples(base, st.integers(0, 2)).map(lambda p: p[0] + (f"+{p[1]}K1" if p[1] else ""))


_LARGE = _isolated(st.integers(2, 60).map(lambda k: f"K{k}"))
_SMALL = _isolated(
    st.one_of(
        st.sampled_from(["K2", "K3", "K4", "K5", "P3", "S2", "S3", "S5", "B2", "B3"]),
        st.integers(1, 3).map(lambda k: f"{k}K1"),
    )
)
DERIVE_LISTS = (
    st.tuples(st.integers(1, 3), _LARGE, st.lists(_SMALL, max_size=2))
    .flatmap(lambda p: st.permutations(["C4"] * p[0] + [p[1]] + p[2]))
    .map(",".join)
)


def out_of(capsys):
    return capsys.readouterr().out.strip()


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestBound:
    def test_mt_paper_case(self, capsys):
        assert run(["bound", "--mt", "--m", "1", "--r", "36"]) == 0
        assert out_of(capsys) == "43"

    def test_mt_two_colors(self, capsys):
        assert run(["bound", "--mt", "--m", "2", "--r", "75", "75"]) == 0
        assert out_of(capsys) == "177"

    def test_parsons(self, capsys):
        assert run(["bound", "--parsons", "7"]) == 0
        assert out_of(capsys) == "11"

    def test_book_uses_registry_star_fact(self, capsys):
        assert run(["bound", "--book", "17"]) == 0
        assert out_of(capsys) == "28"

    def test_book_ignores_a_star_fact_weaker_than_parsons(self, tmp_path, capsys):
        path = tmp_path / "reg.txt"
        Registry([RamseyFact.from_line("C4,S5 | upper | 20 | weak | user")]).save(path)
        assert run(["bound", "--book", "5", "--registry", str(path)]) == 0
        assert out_of(capsys) == "13"  # Parsons: R(C4,S5) <= 9, 9 + 3 + 1
        assert run(["derive", "C4,B5", "--registry", str(path)]) == 0
        assert out_of(capsys).splitlines()[0] == "13"

    def test_stars(self, capsys):
        assert run(["bound", "--stars", "3", "4", "--m", "2"]) == 0
        assert out_of(capsys) == "15"

    def test_p3_and_lemma2(self, capsys):
        assert run(["bound", "--p3", "--m", "1", "--r", "36"]) == 0
        assert out_of(capsys) == "42"
        assert run(["bound", "--lemma2", "--m", "2", "--r", "5"]) == 0
        assert out_of(capsys) == "10"

    def test_json(self, capsys):
        assert run(["bound", "--mt", "--m", "1", "--r", "36", "--json"]) == 0
        doc = json.loads(out_of(capsys))
        assert doc == {"command": "bound", "formula": "mt", "value": 43}

    def test_no_formula_selected_is_usage_error(self, capsys):
        assert run(["bound"]) == 1

    @pytest.mark.parametrize("argv", [["--parsons", "5", "--book", "3"], ["--stars", "3", "--mt", "--r", "5"]])
    def test_two_formulas_are_a_usage_error(self, argv, capsys):
        assert run(["bound"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--parsons", "7", "--m", "3"], "--m"),
            (["--book", "17", "--m", "4"], "--m"),
            (["--parsons", "7", "--registry", "nonexist.txt"], "--registry"),
            (["--parsons", "7", "--r"], "--r"),
            (["--stars", "3", "4", "--r", "2"], "--r"),
            (["--stars", "3", "--registry", "nonexist.txt"], "--registry"),
            (["--mt", "--m", "1", "--r", "36", "--registry", "nonexist.txt"], "--registry"),
            (["--lemma2", "--r", "5", "--registry", "nonexist.txt"], "--registry"),
            (["--p3", "--r", "36", "--registry", "nonexist.txt"], "--registry"),
            (["--book", "17", "--r", "5"], "--r"),
        ],
    )
    def test_an_option_the_formula_does_not_read_is_a_usage_error(self, argv, flag, capsys):
        assert run(["bound"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {flag} does not apply to {argv[0]}")

    def test_m_defaults_to_one_where_it_is_read(self, capsys):
        assert run(["bound", "--stars", "3", "4"]) == 0
        assert run(["bound", "--stars", "3", "4", "--m", "1"]) == 0
        assert run(["bound", "--p3", "--r", "36"]) == 0
        assert out_of(capsys).split() == ["10", "10", "42"]

    def test_n_mismatch_is_usage_error(self, capsys):
        assert run(["bound", "--mt", "--m", "1", "--n", "2", "--r", "36"]) == 1

    @pytest.mark.parametrize("formula", ["--mt", "--p3"])
    def test_m1_without_r_says_none_was_given(self, formula, capsys):
        assert run(["bound", formula]) == 1
        assert capsys.readouterr().err == "error: m=1 needs some r_i > 1, and no r_i was given\n"
        assert run(["bound", formula, "--r", "1", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: m=1 with all r_i=1 is excluded (some non-C4 target must exceed K2)\n")

    def test_lemma2_without_r(self, capsys):
        assert run(["bound", "--lemma2"]) == 0
        assert out_of(capsys) == "3"

    def test_overflowing_r_is_usage_error(self, capsys):
        assert run(["bound", "--mt", "--m", "1", "--r", "1" + "0" * 49]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err


class TestDerive:
    def test_k11(self, capsys):
        assert run(["derive", "C4,K11"]) == 0
        out = out_of(capsys)
        assert out.splitlines()[0] == "43"
        assert "TheoremMT" in out

    def test_json_tree_parses_and_replays(self, capsys):
        assert run(["derive", "C4,C4,K4,K4", "--json"]) == 0
        doc = json.loads(out_of(capsys))
        assert doc["command"] == "derive" and doc["status"] == "ok"
        tree = DerivationTree.from_dict(doc["tree"])
        assert tree.value == 177
        replay(tree)

    def test_cannot_derive_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "reg.txt"
        Registry().save(empty)
        assert run(["derive", "C4,K11", "--registry", str(empty)]) == 2

    def test_bad_target_is_usage_error(self, capsys):
        assert run(["derive", "C5,K3"]) == 1

    def test_k20_needs_no_flag(self, capsys):
        assert run(["derive", "C4,K20"]) == 0
        assert out_of(capsys).splitlines()[0] == "136"

    def test_k1200_prints_as_text_and_as_json(self, capsys):
        assert run(["derive", "C4,K1200"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "367690" and len(lines) == 1 + 1191
        assert run(["derive", "C4,K1200", "--json"]) == 0
        done = capsys.readouterr()
        assert done.err == ""
        tree = derive(parse_targets("C4,K1200"), seed_registry())
        expected = json.dumps({"command": "derive", "status": "ok", "tree": tree.to_dict()}, indent=2)
        assert done.out == expected + "\n"

    def test_shared_subtrees_print_once(self, capsys):
        # written out in full, these trees would have 335,919 and about 1.7e10 nodes
        values = []
        for targets in ["C4,C4,K12,K12", "C4,C4,K20,K20"]:
            assert run(["derive", targets]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert any(line.endswith("  (see above)") for line in lines)
            assert run(["derive", targets, "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            tree = DerivationTree.from_dict(doc["tree"])
            replay(tree)
            assert str(tree.value) == lines[0]
            assert len(lines) == 2 + sum(len(node["children"]) for node in doc["tree"]["nodes"])
            values.append(tree.value)
        assert values[0] == 9_406_801

    @settings(max_examples=60, deadline=None)
    @given(DERIVE_LISTS)
    def test_any_target_list_ends_in_an_exit_code(self, text):
        code, out, err = run_captured(["derive", text, "--json"])
        text_code, _, text_err = run_captured(["derive", text])
        assert code == text_code and code in (0, 1, 2)
        if code == 0:
            tree = DerivationTree.from_dict(json.loads(out)["tree"])
            replay(tree)
            assert tree.targets == strip_k2(parse_targets(text))
        elif code == 1:
            for message in (err, text_err):
                assert message.startswith("error:") and message.count("\n") == 1
        else:
            assert json.loads(out)["status"] == "cannot-derive"


class TestVerify:
    def test_out_of_range_vertex_is_usage_error(self, capsys):
        assert run(["verify", "C4,K3", "--coloring", "3 2\n0 5 1"]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "'0 5 1'" in err and "\n" not in err

    def test_out_of_range_color_is_usage_error(self, capsys):
        assert run(["verify", "C4,K3", "--coloring", "3 2\n0 1 7"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_minus_one_color_is_usage_error(self, capsys):
        assert run(["verify", "C4,K3", "--coloring", "3 2\n0 1 -1"]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: color out of range") and "\n" not in err

    @settings(max_examples=300, deadline=None)
    @given(COLORING_TEXT)
    def test_any_coloring_text_ends_in_an_exit_code(self, text):
        assert run(["verify", "C4,K3", "--coloring", text]) in (0, 1, 2)

    def test_inline_coloring_is_cited_as_such(self, capsys):
        text = coloring_to_text(two_five_cycles())
        assert run(["verify", "C4,C4", "--coloring", text]) == 0
        line = out_of(capsys)
        assert "\n" not in line and RamseyFact.from_line(line).citation == "computed: inline coloring"

    def test_good_witness_fact_line(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text(coloring_to_text(two_five_cycles()))
        run(["verify", "C4,C4", "--coloring", f"@{path}"])
        line = out_of(capsys)
        fact = RamseyFact.from_line(line)
        assert fact.kind == "lower" and fact.value == 6

    @pytest.mark.parametrize("directory", ["w#1", "a|b", "p%q", "line\nbreak", "tail "])
    def test_path_is_cited_so_the_fact_line_reads_back(self, tmp_path, directory):
        path = tmp_path / directory / "w.txt"
        path.parent.mkdir()
        path.write_text(coloring_to_text(two_five_cycles()))
        code, out, err = run_captured(["verify", "C4,C4", "--coloring", f"@{path}"])
        assert code == 0 and err == "" and out.count("\n") == 1
        fact = RamseyFact.from_line(out)
        assert fact.to_line() == out.strip() and fact.value == 6
        assert unquote(fact.citation.removeprefix("computed: ")) == str(path)

    def test_bad_witness_exit_2(self, tmp_path, capsys):
        mono = EdgeColoring(3, 2)
        for u, v in pair_iter(3):
            mono.set(u, v, 0)
        path = tmp_path / "bad.txt"
        path.write_text(coloring_to_text(mono))
        assert run(["verify", "P3,P3", "--coloring", f"@{path}"]) == 2
        assert "BAD WITNESS" in out_of(capsys)

    def test_bad_witness_json_names_copy(self, tmp_path, capsys):
        mono = EdgeColoring(3, 2)
        for u, v in pair_iter(3):
            mono.set(u, v, 0)
        path = tmp_path / "bad.txt"
        path.write_text(coloring_to_text(mono))
        assert run(["verify", "P3,P3", "--coloring", f"@{path}", "--json"]) == 2
        doc = json.loads(out_of(capsys))
        assert doc["status"] == "bad-witness" and doc["color"] == 0
        assert doc["target"] == "P3" and len(doc["vertices"]) == 3


class TestSearch:
    def test_single_n_infeasible(self, capsys):
        assert run(["search", "--targets", "C4,C4", "--n", "6"]) == 0
        assert out_of(capsys).startswith("Infeasible")

    def test_range_reports_ramsey_number(self, capsys):
        assert run(["search", "--targets", "C4,C4", "--n-min", "4", "--n-max", "6"]) == 0
        out = out_of(capsys)
        assert "N=5: Feasible" in out and "N=6: Infeasible" in out
        assert out.splitlines()[-1] == "R = 6"

    def test_witness_out_round_trips(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        assert run(
            ["search", "--targets", "C4,C4", "--n", "5", "--witness-out", str(path)]
        ) == 0
        col = coloring_from_text(path.read_text())
        assert col.n == 5 and col.is_complete()

    @pytest.mark.parametrize("argv", [["search", "--targets", "C4,C4", "--n", "5"], ["partition-check", "--graph6", "G?????"]])
    def test_witness_text_rendered_once_for_file_and_json(self, argv, tmp_path, monkeypatch):
        out_path = tmp_path / "w.txt"
        calls = []

        def counted(coloring):
            calls.append(coloring.n)
            return coloring_to_text(coloring)

        monkeypatch.setattr(graphs, "coloring_to_text", counted)  # SearchOutcome.to_dict's
        monkeypatch.setattr(cli, "coloring_to_text", counted)
        code, out, err = run_captured(argv + ["--witness-out", str(out_path), "--json"])
        assert code == 0 and err == "" and len(calls) == 1
        assert out_path.read_text() == json.loads(out)["witness"]

    def test_budget_exit_3(self, capsys):
        assert run(
            ["search", "--targets", "C4,K4", "--n", "9", "--node-limit", "10"]
        ) == 3
        assert out_of(capsys).startswith("Unknown")

    def test_json_schema(self, capsys):
        assert run(["search", "--targets", "C4,C4", "--n", "5", "--json"]) == 0
        doc = json.loads(out_of(capsys))
        assert set(doc) == {
            "command", "status", "nodes", "wall_time", "witness", "certificate_note", "n"
        }
        assert doc["status"] == "feasible"
        assert coloring_from_text(doc["witness"]).n == 5

    def test_missing_n_is_usage_error(self, capsys):
        assert run(["search", "--targets", "C4,C4"]) == 1

    def test_half_range_is_usage_error(self, capsys):
        assert run(["search", "--targets", "C4,C4", "--n-min", "4"]) == 1

    def test_degree_caps_with_range_is_usage_error(self, capsys):
        argv = ["search", "--targets", "C4,C4", "--n-min", "4", "--n-max", "5"]
        assert run(argv + ["--degree-caps", "1", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--degree-caps" in captured.err and captured.err.count("\n") == 1


    def test_witness_out_with_range_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        argv = ["search", "--targets", "C4,C4", "--n-min", "4", "--n-max", "5", "--witness-out", str(path)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--witness-out" in captured.err and not path.exists()

    def test_nan_time_limit_is_usage_error(self, capsys):
        assert run(["search", "--targets", "C4,C4", "--n", "5", "--time-limit", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: budget limits must be positive")

    def test_infinite_time_limit_runs(self, capsys):
        assert run(["search", "--targets", "C4,C4", "--n", "5", "--time-limit", "inf"]) == 0
        assert out_of(capsys).startswith("Feasible")


class TestPartitionCheck:
    def test_empty_k8_feasible_with_witness(self, tmp_path, capsys):
        path = tmp_path / "split.txt"
        assert run(
            ["partition-check", "--graph6", "G?????", "--witness-out", str(path)]
        ) == 0
        assert out_of(capsys).startswith("Feasible")
        col = coloring_from_text(path.read_text())
        assert col.n == 8 and col.c == 3

    def test_c4_input_is_usage_error(self, capsys):
        # graph6 for a 4-cycle on 4 vertices: edges (0,1),(1,2),(2,3),(0,3)
        from c4ramsey import SimpleGraph, graph6_encode

        g6 = graph6_encode(SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        assert run(["partition-check", "--graph6", g6]) == 1

    def test_wrong_target_count_is_usage_error(self, capsys):
        assert run(["partition-check", "--graph6", "G?????", "--targets", "K3"]) == 1


class TestWitnessCommand:
    def test_extension_emits_fact(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text(coloring_to_text(two_five_cycles()))
        out_path = tmp_path / "bigger.txt"
        code = run([
            "witness", "C4,K3",
            "--coloring", f"@{path}",
            "--add-clique", "3",
            "--witness-out", str(out_path),
        ])
        # the two-5-cycle coloring is also (C4, K3)-good, so it extends
        assert code == 0
        fact = RamseyFact.from_line(out_of(capsys))
        assert fact.kind == "lower" and fact.value == 9
        extended = coloring_from_text(out_path.read_text())
        assert extended.n == 8

    @pytest.mark.parametrize(
        "flags",
        [
            ["--c4-color", "5"],
            ["--clique-color", "-7"],
            ["--c4-color", "-2", "--clique-color", "1"],
            ["--clique-color", "-1"],
        ],
    )
    def test_out_of_range_role_exit_2(self, tmp_path, flags):
        path = tmp_path / "w.txt"
        path.write_text(coloring_to_text(search_coloring(6, [CYCLE4, clique(3)]).witness))
        code, out, err = run_captured(["witness", "C4,K3", "--coloring", f"@{path}", *flags])
        assert code == 2 and err == ""
        assert out.startswith("ERROR: color ") and "not in 0..1" in out and out.count("\n") == 1

    def test_witness_text_rendered_once_for_file_and_json(self, tmp_path, monkeypatch):
        path = tmp_path / "w.txt"
        path.write_text(coloring_to_text(two_five_cycles()))
        out_path = tmp_path / "bigger.txt"
        calls = []

        def counted(coloring):
            calls.append(coloring.n)
            return coloring_to_text(coloring)

        monkeypatch.setattr(cli, "coloring_to_text", counted)
        code, out, err = run_captured([
            "witness", "C4,K3", "--coloring", f"@{path}", "--witness-out", str(out_path), "--json"
        ])
        assert code == 0 and err == "" and calls == [8]
        doc = json.loads(out)
        assert out_path.read_text() == doc["witness"]
        assert doc["witness"] == coloring_to_text(coloring_from_text(doc["witness"]))

    def test_extended_coloring_verified_once(self, tmp_path, monkeypatch):
        path = tmp_path / "w.txt"
        path.write_text(coloring_to_text(two_five_cycles()))
        orders = []

        def counted(g, t):
            orders.append(g.n)
            return find_target_copy(g, t)

        monkeypatch.setattr(witness, "find_target_copy", counted)
        code, out, err = run_captured(["witness", "C4,K3", "--coloring", f"@{path}", "--add-clique", "3"])
        # one find_target_copy per color on the 8-vertex extension, not two
        assert code == 0 and err == "" and orders == [8, 8]
        assert out == "C4,K4 | lower | 9 | computed: disjoint-clique extension | computational\n"

    def test_add_clique_5_names_the_allowed_values(self, tmp_path):
        path = tmp_path / "K6.txt"
        path.write_text(coloring_to_text(search_coloring(6, [CYCLE4, clique(3)]).witness))
        code, out, err = run_captured(["witness", "C4,K3", "--coloring", f"@{path}", "--add-clique", "5"])
        assert code == 2 and err == ""
        assert out == "ERROR: extension clique must have k = 2 or 3 (a K4 holds a C4), got 5\n"

    def test_bad_extension_exit_2(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text(coloring_to_text(two_five_cycles()))
        assert run([
            "witness", "C4,K3", "--coloring", f"@{path}", "--add-clique", "4"
        ]) == 2


class TestRegistry:
    def test_list_contains_seed_facts(self, capsys):
        assert run(["registry"]) == 0
        assert "C4,K10" in out_of(capsys)

    def test_add_and_save(self, tmp_path, capsys):
        path = tmp_path / "reg.txt"
        Registry().save(path)
        line = "C4,K3 | exact | 7 | small search | computational"
        assert run(["registry", "--registry", str(path), "--add", line]) == 0
        reg = load_registry(path)
        assert reg.best_upper(parse_targets("C4,K3")).value == 7

    def test_contradictory_add_is_error(self, tmp_path, capsys):
        path = tmp_path / "reg.txt"
        Registry([RamseyFact(parse_targets("C4,K3"), "upper", 7, "", "user")]).save(path)
        line = "C4,K3 | lower | 8 | bogus | user"
        assert run(["registry", "--registry", str(path), "--add", line]) == 1

    def test_add_below_the_trivial_lower_bound_is_error(self, capsys):
        assert run(["registry", "--add", "C4,K3 | upper | 3 | x | user"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: upper bound 3 for C4,K3 is below the trivial lower bound 4\n"

    @pytest.mark.parametrize("argv", [["derive", "C4,K10"], ["bound", "--book", "9"]])
    def test_registry_file_below_the_trivial_lower_bound_is_error(self, tmp_path, argv, capsys):
        path = tmp_path / "reg.txt"
        path.write_text("C4,K9 | upper | 2 | fake | user\n")
        assert run(argv + ["--registry", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: upper bound 2 for C4,K9 is below the trivial lower bound 9\n"

    @pytest.mark.parametrize("citation", ["see #3", "a | b"])
    def test_add_with_a_citation_the_file_cannot_carry_is_error(self, tmp_path, citation, capsys):
        path = tmp_path / "reg.txt"
        Registry().save(path)
        line = f"C4,K3 | exact | 7 | {citation} | user"
        assert run(["registry", "--registry", str(path), "--add", line]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert load_registry(path).facts() == []

    def test_json(self, capsys):
        assert run(["registry", "--json"]) == 0
        doc = json.loads(out_of(capsys))
        assert doc["command"] == "registry" and any("C4,K10" in f for f in doc["facts"])

    def test_add_without_a_file_leaves_the_seeds_alone(self, capsys):
        line = "C4,K3 | exact | 7 | small search | computational"
        assert run(["registry", "--add", line]) == 0
        first = out_of(capsys)
        assert run(["registry", "--add", line]) == 0
        assert out_of(capsys) == first and first.count("C4,K3 |") == 1
        assert run(["registry"]) == 0
        assert "C4,K3 |" not in out_of(capsys)


class TestTopLevel:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_no_args(self, capsys):
        assert run([]) == 1


class TestParserReuse:
    # one parser serves every run() in a process; no call may see another's
    # options, so each answer must match the same call in a fresh interpreter
    SEQUENCE = [
        ["derive"],
        ["derive", "C4,K3,K4", "--json"],
        ["derive", "C4,K3,K4"],
        ["search", "--targets", "C4,C4", "--n", "6"],
        ["derive", "C4,K11", "--depth"],
        ["bound", "--parsons", "7", "--json"],
        ["bound", "--parsons", "7"],
    ]

    @staticmethod
    def fresh(argv):
        src = Path(c4ramsey.__file__).resolve().parents[1]
        code = "import sys; from c4ramsey.cli import run; sys.exit(run(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
        )
        return done.returncode, done.stdout

    def test_in_process_calls_match_fresh_processes(self, capsys):
        in_process = []
        for argv in self.SEQUENCE:
            code = run(argv)
            in_process.append((code, capsys.readouterr().out))
        assert [code for code, _ in in_process] == [1, 0, 0, 0, 1, 0, 0]
        assert in_process == [self.fresh(argv) for argv in self.SEQUENCE]


class TestClosedStdout:
    # a reader that stops early (`| head -1`) is not a usage error: exit 141
    # (128 + SIGPIPE) and nothing on stderr, not "error: Broken pipe"
    @staticmethod
    def cli(*argv):
        src = Path(c4ramsey.__file__).resolve().parents[1]
        return [sys.executable, "-m", "c4ramsey.cli", *argv], {**os.environ, "PYTHONPATH": str(src)}

    @pytest.mark.parametrize("argv", [["derive", "C4,K11"], ["derive", "C4,C4,K8,K8", "--json"]])
    def test_reader_gone_before_the_write(self, argv):
        cmd, env = self.cli(*argv)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(cmd, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60, env=env)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, "")

    def test_reader_stops_after_the_first_line(self):
        # 307,575 bytes of text: more than a pipe holds, so the write is cut
        cmd, env = self.cli("derive", "C4,K500")
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            try:
                proc.wait(timeout=60)
            finally:
                proc.kill()
            err = proc.stderr.read()
        assert (first, proc.returncode, err) == (b"65186\n", 141, b"")


def test_runs_as_a_module():
    src = Path(c4ramsey.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "c4ramsey.cli", "bound", "--parsons", "7"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (done.returncode, done.stdout) == (0, "11\n")


def test_package_runs_as_a_module():
    src = Path(c4ramsey.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "c4ramsey", "search", "--targets", "C4,C4", "--n", "6"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "Infeasible (1059 nodes)\n", "")


@pytest.mark.parametrize(
    "targets,size",
    [("C4,K5792", 5792 * 5792), ("C4,K5793", 5793 * 5793),
     ("C4,S34,S34,S34", 68**3 * 105), ("C4,S35,S35,S35", 70**3 * 108)],
)
def test_derive_refuses_a_list_above_the_plan_size_limit(capsys, targets, size):
    # just below and just above MAX_PLAN_SIZE = 2**25, with one entry and three
    from c4ramsey.derive import MAX_PLAN_SIZE, plan_size

    assert plan_size(parse_targets(targets)) == size
    code = run(["derive", targets, "--json"])
    out, err = capsys.readouterr()
    if size <= MAX_PLAN_SIZE:
        assert (code, err) == (0, "")
        assert json.loads(out)["status"] == "ok"
    else:
        assert (code, out) == (1, "")
        assert err == f"error: {targets} is too large to plan: plan size {size} > {MAX_PLAN_SIZE}\n"


# (exit code, sha256 of stdout) of derive and derive --json, recorded before
# derive gained its plan-size check; C4+tK1 entries are the C4 kind with
# isolated vertices, reached by no derive-cli pool
C4_WITH_ISOLATED = {
    "C4,C4+1K1": ((0, "6ba32e49cd2aeb8a52a7c5d7c759f920c0643a442f86952a473df43f585cff6d"),
                  (0, "2f21ed7f8d8fe2fbcb15542ff58ec07d776e92663a0651630b05ebcb90875e88")),
    "C4,K3,C4+1K1": ((0, "0eb94cc20663dcb8319bb1da3ff08503c869588b7b6a606c84d5a19e2a4b132c"),
                     (0, "7adbfb66c37bfd299c7555523ac7132fef4aa39c9185c9bacdabcc4e203de0ee")),
    "C4,C4,S3,C4+3K1": ((0, "37adb23df4cbfeb7eee848eba636ea196dfdaf135e4c1c4f1efe8b692b0a573c"),
                        (0, "6b2a76d0c5f16c27cff7c07605be5ccd050a86898a7e2811c3f36d3eeecc4ce3")),
}


@pytest.mark.parametrize("targets", sorted(C4_WITH_ISOLATED))
def test_derive_plans_lists_with_a_c4_plus_isolated_vertices(capsys, targets):
    got = []
    for argv in (["derive", targets], ["derive", targets, "--json"]):
        code = run(argv)
        out, err = capsys.readouterr()
        assert err == ""
        got.append((code, hashlib.sha256(out.encode()).hexdigest()))
    assert tuple(got) == C4_WITH_ISOLATED[targets]

