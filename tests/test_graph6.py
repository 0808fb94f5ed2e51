import random

import networkx as nx
import pytest

from c4ramsey import SimpleGraph, graph6_decode, graph6_encode
from c4ramsey import graphs
from c4ramsey.graphs import Graph6Error, _rows_from_bits, _rows_per_edge, _rows_per_vertex

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
        "D??@",  # n = 5: 10 pairs fill two body bytes, not three
    ],
)
def test_malformed_rejected(text):
    with pytest.raises(Graph6Error):
        graph6_decode(text)


def reference_encode(g: SimpleGraph) -> str:
    """graph6 from McKay's description, any n <= 128: size, then bit groups."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    bits = [int(g.has_edge(u, v)) for v in range(1, n) for u in range(v)]
    return head + hand_pack(0, bits)[1:]


@pytest.mark.parametrize("n", range(1, 129))
def test_every_order_matches_reference_and_round_trips(n):
    rng = random.Random(n)
    for p in (0.0, 0.02, 0.5, 1.0, rng.random()):  # sparse graphs decode per edge
        g = random_graph(rng, n, p)
        s = graph6_encode(g)
        assert s == reference_encode(g)
        assert graph6_decode(s) == g
        assert graph6_decode(f"  >>graph6<<{s}\n") == g


def test_header_boundary_62_63():
    assert graph6_encode(SimpleGraph(62))[0] == "}"  # chr(62 + 63), one byte
    s = graph6_encode(SimpleGraph(63))
    assert s[:4] == "~??~" and len(s) == 4 + 63 * 62 // 2 // 6 + 1
    assert graph6_decode(s) == SimpleGraph(63)
    assert graph6_encode(SimpleGraph(128))[:4] == "~?A?"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty graph6 string"),
        (" \n", "empty graph6 string"),
        (">>graph6<<", "empty graph6 string"),
        ("A_\x7f", r"invalid graph6 byte '\x7f'"),
        ("A\x05_\x7f", r"invalid graph6 byte '\x05'"),  # the first bad byte
        ("A_é\x05", "invalid graph6 byte 'é'"),
        ("A> ", "invalid graph6 byte '>'"),
        ("A_\ud800", r"invalid graph6 byte '\ud800'"),
        ("~~???????", "unsupported graph6 size encoding"),
        ("~??", "unsupported graph6 size encoding"),
        ("?", "graph order 0 outside supported range [1, 128]"),
        ("~?A@", "graph order 129 outside supported range [1, 128]"),
        ("~??~" + "?" * 325, "expected 326 body bytes for n=63, got 325"),
        ("A", "expected 1 body bytes for n=2, got 0"),
        ("A_?", "expected 1 body bytes for n=2, got 2"),
        ("A`", "nonzero padding bits"),
        ("D?@", "nonzero padding bits"),  # n = 5: ten pairs, two padding bits
        ("B@", "nonzero padding bits"),  # n = 3: three pairs, three padding bits
    ],
)
def test_error_messages(text, message):
    with pytest.raises(Graph6Error) as e:
        graph6_decode(text)
    assert str(e.value) == message


@pytest.mark.parametrize("n", [2, 11, 40, 128])
def test_per_edge_and_per_vertex_rows_agree(n):
    rng = random.Random(n)
    for p in (0.0, 0.05, 0.5, 1.0):
        g = random_graph(rng, n, p)
        flags = [g.has_edge(u, v) for v in range(1, n) for u in range(v)]
        pairs = sum(1 << i for i, flag in enumerate(flags) if flag)
        assert _rows_per_edge(pairs, n) == _rows_per_vertex(pairs, n) == g.adj


def per_pair_rows(pairs: int, n: int) -> list[int]:
    """Adjacency rows from a pair bitset, one pair at a time."""
    adj = [0] * n
    i = 0
    for v in range(n):
        for u in range(v):
            if pairs >> i & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            i += 1
    return adj


def random_pairs(rng: random.Random, n: int, p: float) -> int:
    npairs = n * (n - 1) // 2
    return sum(1 << i for i in range(npairs) if rng.random() < p)


@pytest.mark.parametrize("p", [0.0, 0.05, 0.5, 1.0])
def test_row_builders_match_per_pair_oracle_for_every_n(p):
    rng = random.Random(str(p))
    for n in range(1, 129):
        pairs = random_pairs(rng, n, p)
        expected = per_pair_rows(pairs, n)
        assert _rows_per_edge(pairs, n) == expected, n
        assert _rows_per_vertex(pairs, n) == expected, n
        assert _rows_from_bits(pairs, n) == expected, n


@pytest.mark.parametrize("n", [8, 9, 12, 62, 64, 65, 128])
@pytest.mark.parametrize("extra, builder", [(-1, "_rows_per_edge"), (0, "_rows_per_edge"), (1, "_rows_per_vertex")])
def test_rows_switch_to_the_network_past_3n_edges(monkeypatch, n, extra, builder):
    npairs = n * (n - 1) // 2
    size = 3 * n + extra
    rng = random.Random(n * 10 + extra)
    pairs = sum(1 << i for i in rng.sample(range(npairs), size))
    used = []
    for name in ("_rows_per_edge", "_rows_per_vertex"):

        def spy(pairs, n, name=name, real=getattr(graphs, name)):
            used.append(name)
            return real(pairs, n)

        monkeypatch.setattr(graphs, name, spy)
    assert _rows_from_bits(pairs, n) == per_pair_rows(pairs, n)
    assert used == [builder]
