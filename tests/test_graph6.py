import random

import networkx as nx
import pytest

from c4ramsey import SimpleGraph, graph6_decode, graph6_encode
from c4ramsey.graphs import Graph6Error

from conftest import random_graph


def hand_pack(n: int, edge_bits: list[int]) -> str:
    """Independent bit-packer: 6 bits per byte, zero-padded, offset 63."""
    out = chr(n + 63)
    bits = edge_bits + [0] * (-len(edge_bits) % 6)
    for i in range(0, len(bits), 6):
        val = sum(b << (5 - j) for j, b in enumerate(bits[i : i + 6]))
        out += chr(val + 63)
    return out


def test_empty_5_vertex_is_D_question_marks():
    assert graph6_encode(SimpleGraph(5)) == "D??"
    assert hand_pack(5, [0] * 10) == "D??"


def test_k2_is_A_underscore():
    assert graph6_encode(SimpleGraph(2, [(0, 1)])) == "A_"
    assert hand_pack(2, [1]) == "A_"


def test_column_major_bit_order():
    # upper triangle column-major: pairs (0,1),(0,2),(1,2),(0,3),...
    g = SimpleGraph(4, [(1, 2)])
    assert graph6_encode(g) == hand_pack(4, [0, 0, 1, 0, 0, 0])


@pytest.mark.parametrize("seed", range(20))
def test_round_trip_random(seed):
    rng = random.Random(seed)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 62), rng.random())
        assert graph6_decode(graph6_encode(g)) == g


def test_round_trip_large_n():
    rng = random.Random(0)
    g = random_graph(rng, 100, 0.3)
    s = graph6_encode(g)
    assert ord(s[0]) == 126
    assert graph6_decode(s) == g


@pytest.mark.parametrize("seed", range(10))
def test_matches_networkx(seed):
    rng = random.Random(1000 + seed)
    g = random_graph(rng, rng.randint(2, 40), rng.random())
    ours = graph6_encode(g)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
    assert ours == theirs
    back = graph6_decode(theirs)
    assert back == g


def test_header_stripped():
    assert graph6_decode(">>graph6<<A_").n == 2


@pytest.mark.parametrize("n", [1, 2, 62, 63, 127, 128])
def test_round_trip_at_size_boundaries(n):
    rng = random.Random(n)
    for p in (0.0, 0.5, 1.0):
        g = random_graph(rng, n, p)
        s = graph6_encode(g)
        assert (ord(s[0]) == 126) == (n > 62)
        assert graph6_decode(s) == g


def test_bad_inputs():
    with pytest.raises(Graph6Error):
        graph6_decode("")
    with pytest.raises(Graph6Error):
        graph6_decode("A")  # missing body byte
    with pytest.raises(Graph6Error):
        graph6_decode("A_\x05")


@pytest.mark.parametrize(
    "text",
    [
        "A_\x7f",  # byte above the range
        "~~???????",  # 8-byte size form
        "~??",  # size form cut short
        "~??~" + "?" * 325,  # n = 63 needs 326 body bytes
        "?",  # n = 0
        "~?A@",  # n = 129 exceeds the vertex cap
        "A_?",  # extra body byte
        "A`",  # padding bit set
        "D??@",  # n = 5: 10 pairs, padding bit set in the last byte
    ],
)
def test_malformed_rejected(text):
    with pytest.raises(Graph6Error):
        graph6_decode(text)
