"""Coloring text: the bulk path of the canonical form against the pair lines.

Coloring text has two designs, each used in both directions.  For c <= 10,
where every color token is one character, coloring_to_text fills a per-n
byte template and coloring_from_text reads the canonical form (the bytes
coloring_to_text writes) out of it in bulk.  Every other coloring is written
one line per pair, and every other document, c > 10 included, goes to the
line loop, graphs._coloring_from_lines, which stays the reference: on any
document both readers must give the same coloring or the same error.  At
n = 128 the template reads a 2-coloring in about 0.15 ms; the line loop
reads an 11-coloring in about 6 ms.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from c4ramsey import EdgeColoring, coloring_from_text, coloring_to_text
from c4ramsey.graphs import _canonical_colors, _coloring_from_lines, pair_iter


def reference_text(col: EdgeColoring) -> str:
    """The canonical form, written out pair by pair."""
    lines = [f"{col.n} {col.c}"]
    for (u, v), c in zip(pair_iter(col.n), col.colors):
        lines.append(f"{u} {v} {c}")
    return "\n".join(lines) + "\n"


def random_coloring(rng: random.Random, n: int, c: int) -> EdgeColoring:
    return EdgeColoring(n, c, [rng.randrange(c) for _ in pair_iter(n)])


def outcome(read, text: str):
    try:
        col = read(text)
    except ValueError as e:
        return ("error", type(e).__name__, str(e))
    return ("ok", col.n, col.c, col.colors)


def assert_same_as_loop(text: str) -> None:
    assert outcome(coloring_from_text, text) == outcome(_coloring_from_lines, text)
    fast = _canonical_colors(text)
    if fast is not None:
        # the bulk reader accepts only the exact bytes coloring_to_text writes
        assert coloring_to_text(EdgeColoring(*fast)) == text


@st.composite
def colorings(draw):
    n = draw(st.integers(1, 128))
    c = draw(st.integers(1, 12))  # c > 10 gives two-digit tokens
    return random_coloring(random.Random(draw(st.integers(0, 2**32))), n, c)


@settings(max_examples=150, deadline=None)
@given(colorings())
def test_round_trip(col):
    text = coloring_to_text(col)
    assert text == reference_text(col)
    # two-digit tokens (c > 10) have no fixed offsets: the line loop reads them
    assert _canonical_colors(text) == ((col.n, col.c, col.colors) if col.c <= 10 else None)
    assert coloring_from_text(text) == col


@pytest.mark.parametrize("c", [1, 2, 12, 300])
def test_writer_matches_reference_for_every_n(c):
    rng = random.Random(c)
    for n in range(1, 129):
        col = random_coloring(rng, n, c)
        text = coloring_to_text(col)
        assert text == reference_text(col)
        assert coloring_from_text(text) == col


def test_writer_matches_reference_for_every_n_and_c():
    # c = 11 and 12 are written as pair lines
    rng = random.Random(0)
    for n in range(1, 129):
        heads = [f"{u} {v} " for u, v in pair_iter(n)]
        for c in range(1, 13):
            col = EdgeColoring(n, c, rng.choices(range(c), k=n * (n - 1) // 2))
            tokens = [str(x) for x in col.colors]
            expected = f"{n} {c}\n" + "".join([h + t + "\n" for h, t in zip(heads, tokens)])
            assert coloring_to_text(col) == expected, (n, c)


@pytest.mark.parametrize("c", [9, 10, 11])
@pytest.mark.parametrize("n", [2, 11, 101, 128])
def test_documents_either_side_of_one_character_tokens(n, c):
    col = random_coloring(random.Random(n * c), n, c)
    col.colors[-1] = c - 1
    text = coloring_to_text(col)
    assert_same_as_loop(text)
    assert coloring_from_text(text) == col
    assert (_canonical_colors(text) is None) == (c > 10)


def near_canonical(n: int, c: int) -> str:
    return coloring_to_text(random_coloring(random.Random(n + c), n, c))


BOUNDARY_DOCUMENTS = {
    # "02" reads as color 2; with the final newline dropped the length is
    # the canonical one
    "two-digit token": lambda: near_canonical(3, 10).replace("\n0 1 ", "\n0 1 0", 1),
    "two-digit token, same length": lambda: near_canonical(3, 10).replace("\n0 1 ", "\n0 1 0", 1)[:-1],
    "two-digit token at the end": lambda: near_canonical(5, 7)[:-2] + "10\n",
    "non-ASCII digit in a head": lambda: near_canonical(4, 2).replace("0 3 ", "0 \u0663 ", 1),
    "fullwidth digit in a head": lambda: near_canonical(4, 2).replace("1 2 ", "\uff11 2 ", 1),
    "non-ASCII token": lambda: near_canonical(4, 2)[:-2] + "\u0661\n",
    "header 0128": lambda: "0" + near_canonical(128, 2),
    "header +128": lambda: "+" + near_canonical(128, 2),
    "header 0128, shortened": lambda: "0" + near_canonical(128, 2)[:-1],
    "missing final newline": lambda: near_canonical(128, 2)[:-1],
    "extra final newline": lambda: near_canonical(128, 2) + "\n",
    "header only, no newline": lambda: "1 2",
    "header only": lambda: "1 2\n",
    "NUL token": lambda: near_canonical(4, 2)[:-2] + "\0\n",
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_DOCUMENTS))
def test_boundary_documents_read_as_the_loop_reads_them(name):
    assert_same_as_loop(BOUNDARY_DOCUMENTS[name]())


def test_writer_joins_colors_without_a_one_character_token():
    # an int stored past EdgeColoring's check is written as a pair line; a
    # float there has no integer token and is refused
    col = EdgeColoring(3, 2, [0, 1, 0])
    col.colors[1] = 12
    assert coloring_to_text(col) == "3 2\n0 1 0\n0 2 12\n1 2 0\n"
    col.colors[1] = 1.0
    with pytest.raises(ValueError):
        coloring_to_text(col)


@pytest.mark.parametrize("c", [2, 12])  # the template and the pair lines
def test_writer_writes_bool_colors_as_digits(c):
    col = EdgeColoring(4, c, [True, False, False, True, True, False])
    text = coloring_to_text(col)
    assert text == "4 %d\n0 1 1\n0 2 0\n1 2 0\n0 3 1\n1 3 1\n2 3 0\n" % c
    assert coloring_from_text(text) == col


def test_colors_beyond_the_token_table_round_trip():
    # colors of any width are written and read as pair lines
    col = EdgeColoring(4, 1000, [0, 255, 256, 999, 1, 7])
    text = coloring_to_text(col)
    assert text == reference_text(col)
    assert _canonical_colors(text) is None
    assert coloring_from_text(text) == col


def swap_lines(text: str, i: int, j: int) -> str:
    lines = text.split("\n")
    lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


def edit_line(text: str, i: int, edit) -> str:
    lines = text.split("\n")
    lines[i] = edit(lines[i])
    return "\n".join(lines)


def drop_line(text: str, i: int) -> str:
    lines = text.split("\n")
    del lines[i]
    return "\n".join(lines)


def double_line(text: str, i: int) -> str:
    lines = text.split("\n")
    lines.insert(i, lines[i])
    return "\n".join(lines)


def swap_pair(line: str) -> str:
    u, v, c = line.split(" ")
    return f"{v} {u} {c}"


def set_token(token: str):
    return lambda line: line.rsplit(" ", 1)[0] + " " + token


MUTATIONS = {
    "crlf": lambda t, i: t.replace("\n", "\r\n"),
    "no final newline": lambda t, i: t[:-1],
    "tab": lambda t, i: edit_line(t, i, lambda s: s.replace(" ", "\t", 1)),
    "doubled space": lambda t, i: edit_line(t, i, lambda s: s.replace(" ", "  ")),
    "comment line": lambda t, i: "# a witness\n" + t,
    "trailing comment": lambda t, i: edit_line(t, i, lambda s: s + " # note"),
    "zero-padded color": lambda t, i: edit_line(t, i, set_token("007")),
    "signed color": lambda t, i: edit_line(t, i, set_token("+1")),
    "negative color": lambda t, i: edit_line(t, i, set_token("-1")),
    "letter color": lambda t, i: edit_line(t, i, set_token("c")),
    "color out of range": lambda t, i: edit_line(t, i, set_token("12")),
    "swapped v u": lambda t, i: edit_line(t, i, swap_pair),
    "two lines swapped": lambda t, i: swap_lines(t, i, i + 1),
    "duplicated line": double_line,
    "dropped line": drop_line,
    "bare token": lambda t, i: edit_line(t, i, lambda s: s.rsplit(" ", 1)[1]),
    "trailing junk": lambda t, i: t + "junk\n",
    "junk without newline": lambda t, i: t + "7",
    "blank line": lambda t, i: t + "\n",
    "header blanks": lambda t, i: edit_line(t, 0, lambda s: " " + s + " "),
    "header zero-padded": lambda t, i: edit_line(t, 0, lambda s: "0" + s),
    "header underscore": lambda t, i: t.replace(" ", "_0 ", 1),
    "header third field": lambda t, i: edit_line(t, 0, lambda s: s + " 1"),
    "header only": lambda t, i: t.split("\n", 1)[0] + "\n",
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
@pytest.mark.parametrize("n, c", [(2, 2), (5, 3), (10, 12), (14, 12)])
def test_mutated_documents_read_as_the_loop_reads_them(name, n, c):
    rng = random.Random(f"{name} {n} {c}")
    col = random_coloring(rng, n, c)
    text = coloring_to_text(col)
    npairs = n * (n - 1) // 2
    for i in sorted({1, npairs - 1, rng.randrange(1, npairs + 1)} & set(range(1, npairs + 1))):
        mutated = MUTATIONS[name](text, i)
        if mutated == text:
            continue
        assert _canonical_colors(mutated) is None
        assert_same_as_loop(mutated)


PARTIAL_EDITS = {
    # pair line i (1-based) of a canonical document: its token made '-', the
    # line dropped, and the same with a comment, which the bulk readers refuse
    "unassigned": lambda t, i: edit_line(t, i, set_token("-")),
    "missing": drop_line,
    "unassigned, with a comment": lambda t, i: "# partial\n" + edit_line(t, i, set_token("-")),
    "missing, with a comment": lambda t, i: "# partial\n" + drop_line(t, i),
}


@pytest.mark.parametrize("name", sorted(PARTIAL_EDITS))
@pytest.mark.parametrize("c", [3, 12])  # the template reader and the line loop
@pytest.mark.parametrize("n", [2, 14, 128])
def test_partial_documents_are_refused_with_the_pair_named(n, c, name):
    text = coloring_to_text(random_coloring(random.Random(n * c), n, c))
    npairs = n * (n - 1) // 2
    for i in sorted({1, npairs // 2 + 1, npairs}):
        u, v = list(pair_iter(n))[i - 1]
        partial = PARTIAL_EDITS[name](text, i)
        assert _canonical_colors(partial) is None
        word = name.split(",")[0]
        message = f"{word} pair {u} {v}: every pair needs a color in 0..{c - 1}"
        for read in (coloring_from_text, _coloring_from_lines):
            assert outcome(read, partial) == ("error", "ValueError", message)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["1 1", "2 2", "3 2", "3 12", "4 1", "0 2", "2 0"]),
    st.lists(
        st.text(alphabet="0123-  #\t\r+c", max_size=8).map(lambda s: s + "\n"),
        max_size=7,
    ),
)
def test_near_canonical_documents_read_as_the_loop_reads_them(header, lines):
    assert_same_as_loop(header + "\n" + "".join(lines))


@settings(max_examples=200, deadline=None)
@given(colorings(), st.data())
def test_one_character_edit_reads_as_the_loop_reads_it(col, data):
    text = coloring_to_text(col)
    i = data.draw(st.integers(0, len(text)))
    ch = data.draw(st.sampled_from(list("0123456789 -\n\r\t#x")))
    assert_same_as_loop(text[:i] + ch + text[i + 1 :])
    assert_same_as_loop(text[:i] + ch + text[i:])


# Canonical text with c > 10 has tokens of two or more characters and no
# fixed offsets: _canonical_colors refuses it at once and the line loop
# reads it.


def assert_pair_lines_same_as_loop(text: str) -> None:
    assert outcome(coloring_from_text, text) == outcome(_coloring_from_lines, text)
    assert _canonical_colors(text) is None


@pytest.mark.parametrize("c", [11, 12, 100, 255, 256, 300])
@pytest.mark.parametrize("n", [1, 2, 15, 128])
def test_multi_character_tokens_read_by_the_line_loop(n, c):
    col = random_coloring(random.Random(n * c), n, c)
    text = coloring_to_text(col)
    assert text == reference_text(col)
    assert_pair_lines_same_as_loop(text)
    assert coloring_from_text(text) == col


@pytest.mark.parametrize("name", sorted(MUTATIONS))
@pytest.mark.parametrize("n, c", [(2, 11), (5, 100), (14, 256), (14, 300)])
def test_mutated_multi_character_documents_read_as_the_loop_reads_them(name, n, c):
    rng = random.Random(f"{name} {n} {c}")
    col = random_coloring(rng, n, c)
    text = coloring_to_text(col)
    npairs = n * (n - 1) // 2
    for i in sorted({1, npairs - 1, rng.randrange(1, npairs + 1)} & set(range(1, npairs + 1))):
        mutated = MUTATIONS[name](text, i)
        if mutated != text:
            assert_pair_lines_same_as_loop(mutated)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 5, 14, 128]),
    st.sampled_from([11, 12, 100, 255, 256, 300]),
    st.integers(0, 2**32),
    st.data(),
)
def test_one_character_edit_of_multi_character_text_reads_as_the_loop_reads_it(n, c, seed, data):
    col = random_coloring(random.Random(seed), n, c)
    text = coloring_to_text(col)
    i = data.draw(st.integers(0, len(text)))
    ch = data.draw(st.sampled_from(list("0123456789 -\n\r\t#x")))
    # an edit of the header can leave canonical text of c <= 10 ("2 11" to
    # "2 1"), which the template reads
    assert_same_as_loop(text[:i] + ch + text[i + 1 :])
    assert_same_as_loop(text[:i] + ch + text[i:])
    assert_same_as_loop(text[:i] + text[i + 1 :])
