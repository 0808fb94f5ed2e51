"""Malformed command lines for bound, search, partition-check, witness and
registry: every run ends in an exit code the CLI documents, with at most one
stderr line (an "error:" line for a usage error) and never a traceback.

Each argv is the command's flags in random order and number, with valid
and malformed values, and at times a stray flag or value among them.
Searches stay tiny: every vertex count a search command sees is at most 8,
and a --node-limit of at most 10,000 ends every search argv."""

import pytest
from hypothesis import given, settings, strategies as st

from c4ramsey import search_coloring
from c4ramsey.graphs import coloring_to_text
from c4ramsey.targets import CYCLE4, clique

from test_cli import run_captured

JUNK = ["", "x", "-", "--", "1.5", "nan", "inf", "-inf", "@", "@/nonexistent/file", "٣", "K3,,K4"]
HUGE = ["1" + "0" * 30, "-" + "9" * 25, "9223372036854775808"]
TARGETS = st.sampled_from(
    ["C4", "C4,C4", "C4,K3", "K3,K3", "C4,S3", "C4,B2", "P3,P3", "C4,2K1", "C4,K3+1K1", "K3,K4", "C4,K3,K3",
     "K2", "C5", "K", "S0", "C4,K99999999999999999999", "", "x"]
)


@st.composite
def _argv(draw, options, required=()):
    """Each option or not (a required one most often): a flag with its value
    tokens (options[flag] draws them; None for a switch).  In random order,
    and at times with a stray token among them."""
    parts = []
    for flag, values in options.items():
        if draw(st.integers(0, 7)) < (7 if flag in required else 3):
            parts.append([flag] + ([] if values is None else draw(values)))
    argv = [t for part in draw(st.permutations(parts)) for t in part]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK + list(options))))
    return argv


def one(values):
    return values.map(lambda v: [v])


def assert_contract(argv, codes):
    code, out, err = run_captured(argv)
    assert code in codes, (argv, code, err)
    assert "Traceback" not in err and err.count("\n") <= 1, (argv, err)
    if code == 1:
        assert err.startswith("error:") and err.endswith("\n"), (argv, err)
    else:
        assert err == "", (argv, err)


NUMBER = st.sampled_from([str(i) for i in range(-2, 41)] + JUNK + HUGE)
BOUND = {"--mt": None, "--parsons": one(NUMBER), "--book": one(NUMBER),
         "--stars": st.lists(NUMBER, max_size=3), "--m": one(NUMBER), "--r": st.lists(NUMBER, max_size=3),
         "--registry": one(st.sampled_from(JUNK)), "--json": None}


@settings(max_examples=150, deadline=None)
@given(_argv(BOUND))
def test_bound(args):
    assert_contract(["bound"] + args, (0, 1))


SMALL = st.sampled_from([str(i) for i in range(-2, 9)] + JUNK)
TIME_LIMIT = one(st.sampled_from(["5", "0", "-1", "nan", "inf", "x"]))
NODE_LIMIT = st.integers(-1, 10_000).map(str)  # after the options, so it holds
SEARCH = {"--targets": one(TARGETS), "--n": one(SMALL), "--n-min": one(SMALL), "--n-max": one(SMALL),
          "--degree-caps": st.lists(SMALL, min_size=1, max_size=3), "--time-limit": TIME_LIMIT,
          "--node-limit": one(SMALL), "--json": None}


@settings(max_examples=120, deadline=None)
@given(_argv(SEARCH, ("--targets", "--n")), NODE_LIMIT)
def test_search(args, node_limit):
    assert_contract(["search"] + args + ["--node-limit", node_limit], (0, 1, 3))


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


# graph6: the empty graph on 8 vertices, C5, a C4 (rejected), the empty
# graph on 1 vertex, and strings that are not graph6
GRAPH6 = st.sampled_from(["G?????", "Dhc", "Cr", "@", "~??", "G????", "G?????~", ">>graph6<<G?????"])
PAIRS = st.sampled_from(["K3,K4", "K3,K3", "C4,K3", "K4,K4", "K3", "K3,K3,K3"])
PARTITION = {"--graph6": one(GRAPH6), "--targets": one(st.one_of(PAIRS, TARGETS)), "--time-limit": TIME_LIMIT,
             "--node-limit": one(SMALL), "--json": None}


@settings(max_examples=120, deadline=None)
@given(_argv(PARTITION, ("--graph6",)), NODE_LIMIT)
def test_partition_check(args, node_limit):
    assert_contract(["partition-check"] + args + ["--node-limit", node_limit], (0, 1, 3))


# a good (C4, K3) coloring of K6, and colorings that are not one
GOOD = coloring_to_text(search_coloring(6, [CYCLE4, clique(3)]).witness)
COLORINGS = st.sampled_from([GOOD, GOOD.replace(" 1\n", " 0\n"), "3 2\n0 1 0\n0 2 1\n1 2 0", "3 2", "x", "@"])
ROLE = one(st.sampled_from([str(i) for i in range(-1, 5)] + JUNK + HUGE))
WITNESS = {"--coloring": one(st.one_of(st.just(GOOD), COLORINGS)), "--add-clique": ROLE, "--c4-color": ROLE,
           "--clique-color": ROLE, "--json": None}


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.just("C4,K3"), TARGETS), _argv(WITNESS, ("--coloring",)))
def test_witness(targets, args):
    assert_contract(["witness", targets] + args, (0, 1, 2))


FACT_LINES = st.sampled_from(
    ["C4,K3 | exact | 7 | small search | computational", "C4,K3 | lower | 99 | bogus | user",
     "C4,K3 | upper | 0 | zero | user", "C4,K3 | upper | x | word | user", "C4,K3 | approx | 7 | a | user",
     "C4,K3 | upper | 7 | a # b | user", "C4,K3 | upper | 7 | a | b | user", "C4,K3 | upper | 7", "", "|", "x"]
)


@settings(max_examples=120, deadline=None)
@given(_argv({"--add": one(FACT_LINES), "--json": None}), st.sampled_from(["file", "missing", None]))
def test_registry(out_dir, args, registry):
    path = out_dir / "reg.txt"
    path.write_text("C4,K3 | upper | 8 | a bound | user\n")
    where = {"file": ["--registry", str(path)], "missing": ["--registry", str(out_dir / "none.txt")], None: []}
    assert_contract(["registry"] + where[registry] + args, (0, 1))
