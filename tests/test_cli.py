import contextlib
import hashlib
import io
import json
import math
import os
import random
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
from c4ramsey import cli, search, witness
from c4ramsey.cli import run
from c4ramsey.graphs import EdgeColoring, coloring_from_text, coloring_to_text, find_target_copy
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
        assert run(["bound", "--m", "1", "--r", "36"]) == 0
        assert out_of(capsys) == "43"

    def test_mt_two_colors(self, capsys):
        assert run(["bound", "--m", "2", "--r", "75", "75"]) == 0
        assert out_of(capsys) == "177"

    def test_parsons(self, capsys):
        assert run(["bound", "--r", "7"]) == 0
        assert out_of(capsys) == "11"

    def test_book_is_theorem_mt_on_the_registry_star_fact(self, capsys):
        # R(C4,S17) = 22 [Par3] in the seed registry
        assert run(["bound", "--r", "22"]) == 0
        assert run(["derive", "C4,B17"]) == 0
        assert out_of(capsys).splitlines()[:2] == ["28", "28"]

    def test_book_ignores_a_star_fact_weaker_than_parsons(self, tmp_path, capsys):
        path = tmp_path / "reg.txt"
        Registry([RamseyFact.from_line("C4,S5 | upper | 20 | weak | user")]).save(path)
        assert run(["derive", "C4,B5", "--registry", str(path)]) == 0
        assert out_of(capsys).splitlines()[0] == "13"  # Parsons: R(C4,S5) <= 9, 9 + 3 + 1
        assert run(["bound", "--r", "9"]) == 0
        assert out_of(capsys) == "13"

    def test_stars(self, capsys):
        assert run(["bound", "--m", "2", "--r", "3", "4"]) == 0
        assert out_of(capsys) == "15"

    def test_json(self, capsys):
        assert run(["bound", "--m", "1", "--r", "36", "--json"]) == 0
        doc = json.loads(out_of(capsys))
        assert doc == {"command": "bound", "value": 43}

    def test_m_defaults_to_one(self, capsys):
        assert run(["bound", "--r", "3", "4"]) == 0
        assert run(["bound", "--r", "3", "4", "--m", "1"]) == 0
        assert run(["bound", "--r", "36"]) == 0
        assert out_of(capsys).split() == ["10", "10", "43"]

    def test_n_mismatch_is_usage_error(self, capsys):
        assert run(["bound", "--m", "1", "--n", "2", "--r", "36"]) == 1

    @pytest.mark.parametrize("flags", ["", "--m 1", "--r"])
    def test_m1_without_r_says_none_was_given(self, flags, capsys):
        assert run(["bound", *flags.split()]) == 1
        assert capsys.readouterr().err == "error: m=1 needs some r_i > 1, and no r_i was given\n"
        assert run(["bound", *flags.split(), "--r", "1", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: m=1 with all r_i=1 is excluded (some non-C4 target must exceed K2)\n")

    def test_large_r_is_exact(self, capsys):
        # m = 1: (r - 1) + 1 + 1 + c, c the least with c^2 >= r
        r = 10**49
        assert run(["bound", "--m", "1", "--r", str(r)]) == 0
        c = int(out_of(capsys)) - r - 1
        assert c * c >= r > (c - 1) * (c - 1)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on int digits")
    def test_r_past_the_int_digit_limit_is_usage_error(self, capsys):
        assert run(["bound", "--r", "1" * (sys.get_int_max_str_digits() + 1)]) == 1
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

    @pytest.mark.parametrize(
        "targets, message",
        [
            ("C4,,K3", "empty target expression at position 3 in 'C4,,K3'"),
            ("C4,S0", "star K_{1,k} needs k >= 1, got 0 at position 3 in 'C4,S0'"),
            ("C4,K0", "clique size must be >= 1, got 0 at position 3 in 'C4,K0'"),
            ("C4,0K1", "kK1 needs k >= 1, got 0 at position 3 in 'C4,0K1'"),
        ],
    )
    def test_target_list_errors_quote_the_whole_list(self, targets, message):
        assert run_captured(["derive", targets]) == (1, "", f"error: {message}\n")

    def test_registry_fact_on_a_list_with_a_k2_entry_is_used(self, tmp_path, capsys):
        # derive strips K2 before each lookup; the registry files the fact without it
        path = tmp_path / "reg.txt"
        path.write_text("C4,K2,K3 | upper | 7 | x | user\n")
        for targets in ("C4,K2,K3", "C4,K3"):
            assert run(["derive", targets, "--registry", str(path)]) == 0
            assert out_of(capsys).splitlines()[0] == "7"

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

    def test_two_large_cliques_need_no_width_limit(self, capsys):
        # a 60-digit Theorem MT bound, exact: c the least with c^2 >= m^2 ((m+1)^2/4 + s)
        assert run(["derive", "C4,C4,K100,K100", "--json"]) == 0
        root = json.loads(out_of(capsys))["tree"]["nodes"][-1]
        m, r = root["notes"]["m"], root["notes"]["r"]
        s = sum(r) - len(r)
        c = root["value"] - s - 1 - m * (m + 1) // 2
        assert 4 * c * c >= m * m * ((m + 1) ** 2 + 4 * s) > 4 * (c - 1) * (c - 1)
        assert len(str(root["value"])) == 60

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
        mono = EdgeColoring(3, 2, [0] * 3)
        path = tmp_path / "bad.txt"
        path.write_text(coloring_to_text(mono))
        assert run(["verify", "P3,P3", "--coloring", f"@{path}"]) == 2
        assert "BAD WITNESS" in out_of(capsys)

    def test_bad_witness_json_names_copy(self, tmp_path, capsys):
        mono = EdgeColoring(3, 2, [0] * 3)
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
        assert col.n == 5 and len(col.colors) == 10

    @pytest.mark.parametrize("argv", [["search", "--targets", "C4,C4", "--n", "5"], ["partition-check", "--graph6", "G?????"]])
    def test_witness_text_rendered_once_for_file_and_json(self, argv, tmp_path, monkeypatch):
        out_path = tmp_path / "w.txt"
        calls = []

        def counted(coloring):
            calls.append(coloring.n)
            return coloring_to_text(coloring)

        monkeypatch.setattr(search, "coloring_to_text", counted)  # SearchOutcome.to_dict's
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


    def test_n_with_range_is_usage_error(self, capsys):
        argv = ["search", "--targets", "C4,K4", "--n", "5", "--n-min", "3", "--n-max", "4"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "--n " in captured.err and captured.err.count("\n") == 1

    def test_witness_out_with_range_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        argv = ["search", "--targets", "C4,C4", "--n-min", "4", "--n-max", "5", "--witness-out", str(path)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--witness-out" in captured.err and not path.exists()

    @pytest.mark.parametrize("argv", [["search", "--targets", "C4,C4", "--n", "6"], ["partition-check", "--graph6", "G?????"]])
    def test_budget_flags_default_to_the_library_budget(self, argv):
        assert cli._budget(cli.build_parser().parse_args(argv)) == search.SearchBudget()

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
        assert capsys.readouterr().err == "error: need exactly two pair targets, got 1\n"

    def test_three_targets_are_a_usage_error(self, capsys):
        assert run(["partition-check", "--graph6", "G?????", "--targets", "K3,K3,K3"]) == 1
        assert capsys.readouterr().err == "error: need exactly two pair targets, got 3\n"


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


# a document that gives a pair '-' and one that leaves a pair out: verify and
# witness refuse each alike, as a usage error with one line naming the pair
PARTIAL_DOCUMENTS = {
    "unassigned": ("3 2\n0 1 0\n0 2 -\n1 2 1\n", "error: unassigned pair 0 2: every pair needs a color in 0..1\n"),
    "missing": ("3 2\n0 1 0\n1 2 1\n", "error: missing pair 0 2: every pair needs a color in 0..1\n"),
}


@pytest.mark.parametrize("command", ["verify", "witness"])
@pytest.mark.parametrize("name", sorted(PARTIAL_DOCUMENTS))
def test_partial_coloring_is_a_usage_error_for_verify_and_witness(tmp_path, command, name):
    text, message = PARTIAL_DOCUMENTS[name]
    path = tmp_path / "partial.txt"
    path.write_text(text)
    for coloring in (text, f"@{path}"):
        assert run_captured([command, "C4,K3", "--coloring", coloring]) == (1, "", message)


# a token that is not an integer: verify and witness name it and its line
BAD_TOKEN_DOCUMENTS = {
    "color": ("3 2\n0 1 0\n0 2 1.0\n1 2 1\n", "error: bad color '1.0' in line '0 2 1.0'\n"),
    "header": ("3 x\n0 1 0\n0 2 1\n1 2 1\n", "error: bad color count 'x' in line '3 x'\n"),
    "vertex": ("3 2\n0 1 0\n0 y 1\n1 2 1\n", "error: bad vertex 'y' in line '0 y 1'\n"),
}


@pytest.mark.parametrize("command", ["verify", "witness"])
@pytest.mark.parametrize("name", sorted(BAD_TOKEN_DOCUMENTS))
def test_non_integer_token_is_a_usage_error_for_verify_and_witness(tmp_path, command, name):
    text, message = BAD_TOKEN_DOCUMENTS[name]
    path = tmp_path / "bad.txt"
    path.write_text(text)
    for coloring in (text, f"@{path}"):
        assert run_captured([command, "C4,K3", "--coloring", coloring]) == (1, "", message)


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

    @pytest.mark.parametrize("argv", [["derive", "C4,K10"], ["derive", "C4,B9"]])
    def test_registry_file_below_the_trivial_lower_bound_is_error(self, tmp_path, argv, capsys):
        path = tmp_path / "reg.txt"
        path.write_text("C4,K9 | upper | 2 | fake | user\n")
        assert run(argv + ["--registry", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: upper bound 2 for C4,K9 is below the trivial lower bound 9\n"

    @pytest.mark.parametrize("line, message", [
        ("C4,K3 | exct | 7 | x | user", "kind must be one of ('exact', 'upper', 'lower'), got 'exct'"),
        ("C4,K3 | exact | x | x | user", "fact value must be an integer, got 'x'"),
        ("C4,Q3 | exact | 7 | x | user", "unsupported target 'Q3' at position 3 in 'C4,Q3'"),
    ], ids=["kind", "value", "target"])
    def test_registry_file_error_names_the_bad_line(self, tmp_path, line, message, capsys):
        path = tmp_path / "reg.txt"
        path.write_text(f"# targets | kind | value | citation | trust\nC4,S3 | upper | 6 | a | user\n\n{line}\n")
        assert run(["derive", "C4,K11", "--registry", str(path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: line 4: {message}\n")

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


class TestColorCountAbove256:
    # a coloring has at most 256 colors, one byte a pair: a longer target
    # list, or a coloring header with more colors, is a usage error
    TARGETS = ",".join(["K3"] * 257)
    HEADER = "3 257\n0 1 0\n0 2 256\n1 2 1\n"

    @pytest.mark.parametrize("argv", [
        ["search", "--targets", TARGETS, "--n", "5"],
        ["search", "--targets", TARGETS, "--n-min", "4", "--n-max", "5"],
        ["verify", "C4,K3", "--coloring", HEADER],
        ["witness", "C4,K3", "--coloring", HEADER],
    ], ids=["search", "search-range", "verify", "witness"])
    def test_is_a_usage_error(self, argv, capsys):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


class TestParserReuse:
    # one parser serves every run() in a process; no call may see another's
    # options, so each answer must match the same call in a fresh interpreter
    SEQUENCE = [
        ["derive"],
        ["derive", "C4,K3,K4", "--json"],
        ["derive", "C4,K3,K4"],
        ["search", "--targets", "C4,C4", "--n", "6"],
        ["derive", "C4,K11", "--depth"],
        ["bound", "--r", "7", "--json"],
        ["bound", "--r", "7"],
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
        [sys.executable, "-m", "c4ramsey.cli", "bound", "--r", "7"],
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
# derive gained its plan-size check and re-pinned when the notes that never
# bind (TheoremMT's vertex_floor and guard, TrivialEmpty's guard) were
# dropped; tests/data/derive_values.json keeps their values from before.
# C4+tK1 entries are the C4 kind with isolated vertices, reached by no
# derive-cli pool
C4_WITH_ISOLATED = {
    "C4,C4+1K1": ((0, "e17e1df6e12ce977081e3500e0624a8b59d34a1748691e38203e56bee23c6cda"),
                  (0, "aac16691ba5e8bfc7cda2c36f1a984d988f0150198ddad3ee226aab677a9faa1")),
    "C4,K3,C4+1K1": ((0, "6fd698d888f4130f6fd1147b153f999be4055dc5d3d1f40405dfa328a818bfca"),
                     (0, "ea0158fa8579b0444345dec0f8f76bf7c6f7ee35ce8fc78e111d50d83b712412")),
    "C4,C4,S3,C4+3K1": ((0, "7419054b115af9b4283ff3e4025286381b7a0fcc245ba616dad47573314b9f1d"),
                        (0, "e8e55f969ea5e21b1aa1983898949f7ba60ef579aec6473e03e27c9eb7c5cafd")),
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



# `bound` lines swept with a fixed seed, written with the formula flags
# `bound` once took: every --parsons K and --book K for K in -3..299 and three
# huge K, random --stars and --mt lines, --book against a registry file of
# random C4,S_k facts, and --json lines.  The stream also draws the --p3 and
# --lemma2 lines of formulas deleted earlier, so the other lines stay as they
# were; _bound_sweep keeps them apart
_HUGE = (10**6 + 3, 2**62, 10**40)
_DELETED_FORMULAS = ("--p3", "--lemma2")


def _bound_sweep(registry_path, deleted=False):
    """The swept argvs; with deleted=True, only the lines of the deleted formulas."""
    rng = random.Random(19)
    lines = [[flag, str(k)] for flag in ("--parsons", "--book") for k in [*range(-3, 300), *_HUGE]]

    def m_flag():
        m = rng.choice([None, None, -1, 0, 1, 1, 2, 3, 4, 7])
        return [] if m is None else ["--m", str(m)]

    def values(lo, hi, most):
        vs = [rng.randint(lo, hi) for _ in range(rng.randint(0, most))]
        return [1] * len(vs) if rng.random() < 0.2 else vs

    for _ in range(3000):
        lines.append(["--stars", *map(str, values(-1, 40, 4) or [rng.randint(-1, 40)])] + m_flag())
    for _ in range(3000):
        r = values(-1, 60, 4)
        flag = rng.choice(["--mt", "--p3", "--lemma2"])
        lines.append([flag, *m_flag(), *(["--r", *map(str, r)] if r or rng.random() < 0.5 else [])])
    for _ in range(63):
        lines.append(["--book", str(rng.randint(-1, 40)), "--registry", registry_path])
    for _ in range(50):
        lines.append(rng.choice(lines[:-63]) + ["--json"])
    return [["bound", *line] for line in lines if (line[0] in _DELETED_FORMULAS) == deleted]


def _star_registry(path):
    # upper bounds from the trivial floor to well past Parsons' bound
    rng = random.Random(191)
    facts = []
    for k in range(1, 41):
        if rng.random() < 0.6:
            v = rng.randint(max(4, k + 1), k + 2 * math.isqrt(k) + 5)
            facts.append(RamseyFact.from_line(f"C4,S{k} | {rng.choice(['upper', 'exact'])} | {v} | r{k} | user"))
    Registry(facts).save(path)


def _translated(argv):
    """The command that now computes what an old `bound` line computed:
    --mt goes, --parsons and --stars become --r, and --book K [--registry P]
    becomes `derive C4,BK [--registry P]`."""
    flag, rest = argv[1], argv[2:]
    if flag == "--book":
        return ["derive", f"C4,B{rest[0]}", *rest[1:]]
    return ["bound", *([] if flag == "--mt" else ["--r"]), *rest]


def _value(argv, code, out):
    """The JSON "value" of a successful --json run (the root node's for
    derive), else the first stdout line."""
    if "--json" in argv and code == 0:
        doc = json.loads(out)
        return doc["tree"]["nodes"][-1]["value"] if argv[0] == "derive" else doc["value"]
    return out.split("\n", 1)[0]


def _book_bound_moved(argv):
    return argv[1] == "--book" and int(argv[2]) in (1, *_HUGE)


# sha256 over "ARGV\nCODE\nVALUE\n" of the 4,722 swept lines that are not
# _book_bound_moved, the registry path written as REG, recorded while `bound`
# still took the formula flags: ARGV is the old line, CODE and VALUE what it
# gave then, which its translation must give now
BOUND_SWEEP_DIGEST = "e844d9144a8a2718f1a6d402112d2837ead29f37c53edb1c7457104408540826"

# (old line, exit code, value) of the translations whose outcome moved, in
# sweep order.  `derive` does not read B1 as K3, so C4,B1 is cannot-derive
# (exit 2) where --book 1 was a usage error (exit 1); and it refuses the
# huge books as too large to plan (exit 1), where --book gave a value
BOUND_SWEEP_MOVED = [
    ("bound --book 1", 2, ""),
    ("bound --book 1000003", 1, ""),
    (f"bound --book {2**62}", 1, ""),
    (f"bound --book {10**40}", 1, ""),
    ("bound --book 1 --registry REG", 2, ""),
    ("bound --book 1 --registry REG", 2, ""),
]

# bound ARGS -> (exit code, stdout); EMPTY names an empty registry file.  The
# comments give the old formula line each one computes
BOUND_SPOTS = {
    "--r 7": (0, "11"),  # --parsons 7
    "--r 2": (0, "5"),
    "--r 17": (0, "23"),
    "--r 1000003": (0, "1001005"),
    f"--r {10**40}": (0, f"{10**40 + 10**20 + 1}"),
    "--r 22": (0, "28"),  # --book 17: R(C4,S17) <= 22 in the seed registry
    "--r 23": (0, "29"),  # --book 17 --registry EMPTY: Parsons' 23
    "--r 5": (0, "9"),  # --book 2
    "--r 9": (0, "13"),  # --book 5
    f"--r {2**62 + 2**31 + 1}": (0, "4611686022722355203"),  # --book 2**62
    "--r 22 --json": (0, '{\n  "command": "bound",\n  "value": 28\n}'),
    "--r 3": (0, "6"),  # --stars 3
    "--r 1 --m 2": (0, "7"),
    "--r 3 4 --m 2": (0, "15"),
    "--r 3 4": (0, "10"),
    "--r 17 17 17": (0, "57"),
    "--m 1 --r 36": (0, "43"),  # --mt --m 1 --r 36
    "--m 3": (0, "13"),
    "--r 1": (1, ""),
    "--r 3 --m 0": (1, ""),
    "--parsons 7": (1, ""),
    "--book 17": (1, ""),
    "--stars 3": (1, ""),
    "--mt --m 3": (1, ""),
    "--r 7 --registry EMPTY": (1, ""),
    "--p3 --m 1 --r 36": (1, ""),
    "--lemma2 --m 2 --r 5": (1, ""),
}


@pytest.mark.parametrize("args", list(BOUND_SPOTS))
def test_bound_spot_values(tmp_path, args):
    empty = tmp_path / "empty.txt"
    Registry().save(empty)
    code, out, err = run_captured(["bound", *(str(empty) if a == "EMPTY" else a for a in args.split())])
    assert (code, out.strip()) == BOUND_SPOTS[args]
    assert err == "" if code == 0 else (err.startswith("error: ") and err.count("\n") == 1)


def test_bound_sweep_translations_give_the_old_values(tmp_path):
    reg = str(tmp_path / "stars.txt")
    _star_registry(reg)
    digest = hashlib.sha256()
    moved = []
    for argv in _bound_sweep(reg):
        new = _translated(argv)
        code, out, err = run_captured(new)
        assert err == "" if code == 0 else (out == "" and err.count("\n") == 1), new
        shown = " ".join("REG" if a == reg else a for a in argv)
        value = _value(new, code, out)
        if _book_bound_moved(argv):
            moved.append((shown, code, value))
        else:
            digest.update(f"{shown}\n{code}\n{value}\n".encode())
    assert digest.hexdigest() == BOUND_SWEEP_DIGEST
    assert moved == BOUND_SWEEP_MOVED


@pytest.mark.parametrize("k, value", [
    (10**6 + 3, "1002007"),
    (2**62, "4611686022722355203"),
    (10**40, f"{10**40 + 2 * 10**20 + 3}"),
])
def test_book_bound_past_the_plan_size_limit_is_two_bound_steps(k, value):
    # what `bound --book K` printed: Theorem MT on Parsons' bound on R(C4,S_K)
    code, s, err = run_captured(["bound", "--r", str(k)])
    assert (code, err) == (0, "")
    assert run_captured(["bound", "--r", s.strip()]) == (0, f"{value}\n", "")


def test_bound_sweep_lines_of_deleted_formulas_are_usage_errors(tmp_path):
    reg = str(tmp_path / "stars.txt")
    _star_registry(reg)
    kept, dropped = _bound_sweep(reg), _bound_sweep(reg, deleted=True)
    assert len(dropped) == 1997 and len(kept) == 4728
    for argv in kept + dropped:
        code, out, err = run_captured(argv)
        assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1, argv
