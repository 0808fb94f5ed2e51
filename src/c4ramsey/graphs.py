"""Bitset-backed simple graphs and complete edge colorings of complete graphs.

Vertex capacity is fixed at 128.  Adjacency rows are Python ints used as
bitsets; edge colors live in a flat triangular array indexed by
pair_index(u, v) = v*(v-1)//2 + u for u < v, i.e. the pairs in the order
(0,1), (0,2), (1,2), (0,3), ... — the same column-major order graph6 uses,
so one pair-order serves both serializers.  Every pair of a coloring has a
color: there is no partial coloring, in memory or in coloring text.
"""

from __future__ import annotations

import binascii
import functools
import struct
from typing import Iterable, Optional, Sequence

from . import targets as tg
from .targets import TargetGraph

MAX_VERTICES = 128


def pair_index(u: int, v: int) -> int:
    """Canonical index of the unordered pair {u, v}."""
    if u == v:
        raise ValueError("no self-pairs")
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


def pair_iter(n: int) -> Iterable[tuple[int, int]]:
    """All pairs of range(n) in canonical pair order."""
    for v in range(1, n):
        for u in range(v):
            yield (u, v)


@functools.lru_cache(maxsize=16)
def _pair_table(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """(u, v, 1 << u, 1 << v) for every pair of range(n) in canonical pair order."""
    return tuple([(u, v, 1 << u, 1 << v) for u, v in pair_iter(n)])


class SimpleGraph:
    """Undirected simple graph on n <= 128 vertices, adjacency as bitsets."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in [1, {MAX_VERTICES}], got {n}")
        self.n = n
        self.adj = [0] * n
        for u, v in edges:
            self.add_edge(u, v)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for n={self.n}")

    def add_edge(self, u: int, v: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError("self-loops are not allowed")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for (u, v) in pair_iter(self.n) if self.adj[u] >> v & 1]

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def copy(self) -> "SimpleGraph":
        g = SimpleGraph.__new__(SimpleGraph)
        g.n = self.n
        g.adj = list(self.adj)
        return g

    def complement(self) -> "SimpleGraph":
        g = SimpleGraph(self.n)
        mask = (1 << self.n) - 1
        for v in range(self.n):
            g.adj[v] = mask & ~self.adj[v] & ~(1 << v)
        return g

    def delete_vertex(self, v: int) -> "SimpleGraph":
        if self.n < 2:
            raise ValueError("cannot delete the last vertex")
        self._check_vertex(v)
        g = SimpleGraph(self.n - 1)
        low = (1 << v) - 1
        for w in range(self.n):
            if w == v:
                continue
            row = self.adj[w]
            row = (row & low) | ((row >> (v + 1)) << v)
            g.adj[w if w < v else w - 1] = row
        return g

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __hash__(self):
        return hash((self.n, tuple(self.adj)))

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, edges={self.edges()})"


def _clique_in(adj: list[int], cand: int, need: int) -> bool:
    """Branch and bound: do the vertices of bitset cand hold a clique of size need?"""
    if need == 0:
        return True
    if cand.bit_count() < need:
        return False
    while cand:
        b = cand & -cand
        v = b.bit_length() - 1
        cand ^= b
        if cand.bit_count() + 1 < need:
            return False
        if _clique_in(adj, cand & adj[v], need - 1):
            return True
    return False


def contains_target(g: SimpleGraph, t: TargetGraph) -> bool:
    """Subgraph (not induced) containment of a target-family graph.

    Plain loops over the adjacency rows: C4 is a pair of vertices with two
    common neighbours, K3 and K4 an edge scan (an edge whose ends share a
    neighbour, or with an edge among its ends' common neighbours above
    it), and a larger clique a branch and bound by _clique_in.  Unlike
    find_target_copy it names no copy, which makes it the faster check.
    """
    adj = g.adj
    n = g.n
    if t.kind == tg.PATH3_KIND:
        return any(a.bit_count() >= 2 for a in adj)
    if t.kind == tg.CYCLE4_KIND:
        # a 4-cycle is two vertices with two common neighbours
        for u, a in enumerate(adj):
            for b in adj[u + 1:]:
                common = a & b
                if common & (common - 1):
                    return True
        return False
    if t.kind == tg.CLIQUE and t.k == 3:
        # a triangle is an edge uv, u < v, whose ends share a neighbour
        for u, a in enumerate(adj):
            above = a >> u + 1 << u + 1
            while above:
                b = above & -above
                above ^= b
                if adj[b.bit_length() - 1] & a:
                    return True
        return False
    if t.kind == tg.CLIQUE and t.k == 4:
        # a K4 is an edge uv, u < v, with an edge among the common
        # neighbours of u and v above v
        for u, a in enumerate(adj):
            above = a >> u + 1 << u + 1
            while above:
                b = above & -above
                above ^= b
                v = b.bit_length() - 1
                common = a & adj[v] >> v + 1 << v + 1
                while common & (common - 1):
                    w = common & -common
                    common ^= w
                    if adj[w.bit_length() - 1] & common:
                        return True
        return False
    if t.kind == tg.CLIQUE:
        return n >= t.k and _clique_in(adj, (1 << n) - 1, t.k)
    if t.kind == tg.STAR:
        return any(a.bit_count() >= t.k for a in adj)
    if t.kind == tg.BOOK:
        return any(
            (adj[u] & adj[v]).bit_count() >= t.k for (u, v) in g.edges()
        )
    if t.kind == tg.EMPTY:
        return n >= t.k
    if t.kind == tg.WITH_ISOLATED:
        return n >= t.vertex_count and contains_target(g, t.base)
    raise ValueError(f"unsupported target {t}")


def find_target_copy(g: SimpleGraph, t: TargetGraph) -> Optional[tuple[int, ...]]:
    """The lexicographically first vertex tuple hosting a copy of t, or None.

    Witness verification runs this on every color class, so it decides
    containment from targets.target_edges alone, independently of the
    search kernel.  Target vertex i goes to a vertex of the bitset
    candidates: the AND of the rows of its earlier neighbours' images,
    minus the used vertices, taken lowest bit first.

    Target vertices j < i are twins when N(i) - {j} == N(j) - {i}; swapping
    them is then an automorphism of t (a clique's vertices, a star's leaves,
    a book's two spine vertices and its pages, C4's opposite corners).  The
    search asks assign[i] > assign[j] of every twin pair, which drops the
    repeats of one copy under these swaps.  The result is still the
    lexicographically first injective copy: if that copy had
    assign[i] < assign[j] for twins j < i, swapping their images would give
    another copy that is smaller at position j.  Twins form equivalence
    classes, so comparing with the nearest earlier twin orders the whole
    class, and i and its later twins need distinct candidates of i's set,
    which bounds the search by a count.
    """
    k = t.vertex_count
    n = g.n
    if n < k:
        return None
    nbrs = [0] * k
    for a, b in tg.target_edges(t):
        nbrs[a] |= 1 << b
        nbrs[b] |= 1 << a
    earlier = []
    prev_twin = [-1] * k
    need = [1] * k
    for i in range(k):
        earlier.append([a for a in range(i) if nbrs[i] >> a & 1])
        for j in range(i):
            if nbrs[i] & ~(1 << j) == nbrs[j] & ~(1 << i):
                prev_twin[i] = j
        j = prev_twin[i]
        while j >= 0:
            need[j] += 1
            j = prev_twin[j]

    adj = g.adj
    everyone = (1 << n) - 1
    assign = [0] * k
    cands = [everyone] + [0] * (k - 1)
    used = 0
    i = 0
    while True:
        cand = cands[i]
        if cand.bit_count() < need[i]:
            if i == 0:
                return None
            i -= 1
            used ^= 1 << assign[i]
            continue
        low = cand & -cand
        cands[i] = cand ^ low
        assign[i] = low.bit_length() - 1
        if i + 1 == k:
            return tuple(assign)
        used |= low
        i += 1
        cand = everyone & ~used
        for a in earlier[i]:
            cand &= adj[assign[a]]
        if prev_twin[i] >= 0:
            cand &= -2 << assign[prev_twin[i]]
        cands[i] = cand


def _check_size(n: int, c: int) -> None:
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in [1, {MAX_VERTICES}], got {n}")
    if c < 1:
        raise ValueError(f"color count must be >= 1, got {c}")


def _check_pair_color(col, c: int) -> None:
    if not isinstance(col, int):
        raise TypeError(f"color {col!r} is not an integer")
    if not 0 <= col < c:
        raise ValueError(f"color {col} out of range for c={c}")


class EdgeColoring:
    """Complete edge coloring of K_n with c colors: every pair, in canonical
    pair order, has an integer color in 0..c-1.  The constructor enforces
    it, and set() keeps it."""

    __slots__ = ("n", "c", "colors")

    def __init__(self, n: int, c: int, colors: Sequence[int]):
        _check_size(n, c)
        self.n = n
        self.c = c
        colors = list(colors)
        npairs = n * (n - 1) // 2
        if len(colors) != npairs:
            raise ValueError(f"expected {npairs} pair colors, got {len(colors)}")
        # a sum of ints is an int, and a float, a numpy integer or any other
        # number among them makes it another type (1.0 and 1 would be one
        # set member); where the sum or a distinct color is bad, or the colors
        # cannot be summed, scan in pair order for the first bad one
        try:
            bad = type(sum(colors)) is not int or any(not 0 <= col < c for col in set(colors))
        except TypeError:
            bad = True
        if bad:
            for col in colors:
                _check_pair_color(col, c)
        self.colors = colors

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for n={self.n}")

    def _check_color(self, i: int) -> None:
        if not 0 <= i < self.c:
            raise IndexError(f"color {i} out of range for c={self.c}")

    def get(self, u: int, v: int) -> int:
        self._check_vertex(u)
        self._check_vertex(v)
        return self.colors[pair_index(u, v)]

    def set(self, u: int, v: int, color: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        _check_pair_color(color, self.c)
        self.colors[pair_index(u, v)] = color

    def color_class(self, i: int) -> SimpleGraph:
        self._check_color(i)
        # one "0"/"1" flag per pair in canonical order, built in C and read
        # as the pair bitset: bytearray() takes colors 0..255, so a larger
        # color falls back to the 0/1 bytes of color == i
        try:
            flags = bytearray(self.colors).translate(_class_flags(i))
        except ValueError:
            flags = bytes(map(i.__eq__, self.colors)).translate(_class_flags(1))
        g = SimpleGraph.__new__(SimpleGraph)
        g.n = self.n
        g.adj = _rows_from_bits(int(flags[::-1] or b"0", 2), self.n)
        return g

    def color_classes(self) -> list[SimpleGraph]:
        """Every color class, in color order, as color_class builds them.

        One pass over the pairs fills the rows of all classes.  It costs
        about 0.17 us a pair, where c color_class calls cost about 6 us each
        plus 0.03 us a pair, so it wins on small graphs (6.5 against 14 us at n = 11, c = 3) and
        loses from about n = 21 (36 against 22 us at n = 29, c = 3; 810
        against 260 us at n = 128, c = 2; timeit on random colorings, 2-core
        x86, Python 3.11).
        """
        n = self.n
        rows = [[0] * n for _ in range(self.c)]
        for (u, v, bu, bv), col in zip(_pair_table(n), self.colors):
            row = rows[col]
            row[u] |= bv
            row[v] |= bu
        classes = []
        for adj in rows:
            g = SimpleGraph.__new__(SimpleGraph)
            g.n = n
            g.adj = adj
            classes.append(g)
        return classes

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EdgeColoring)
            and self.n == other.n
            and self.c == other.c
            and self.colors == other.colors
        )

    def __hash__(self):
        return hash((self.n, self.c, tuple(self.colors)))

    def __repr__(self):
        return f"EdgeColoring(n={self.n}, c={self.c})"


@functools.lru_cache(maxsize=256)
def _class_flags(i: int) -> bytes:
    """bytes.translate table: byte i to "1", every other byte to "0"."""
    return bytes(49 if b == i else 48 for b in range(256))


def is_good_coloring(coloring: EdgeColoring, target_list: Sequence[TargetGraph]) -> bool:
    """True iff no color class contains its target (an (H_1,...,H_c)-coloring).

    Builds every class in one pass by EdgeColoring.color_classes, then
    tests them in color order with contains_target up to the first that
    holds its target; verify_lower_bound, which names that copy, builds
    the classes one at a time instead."""
    if len(target_list) != coloring.c:
        raise ValueError(
            f"need {coloring.c} targets (one per color), got {len(target_list)}"
        )
    return not any(map(contains_target, coloring.color_classes(), target_list))


# ---------------------------------------------------------------------------
# graph6 serialization.  graph6 writes six bits per byte, most significant
# first, offset by 63: base64 with the alphabet chr(63)..chr(126).  So
# binascii packs and unpacks the groups and bytes.translate swaps alphabets.


class Graph6Error(ValueError):
    pass


_G6_ALPHABET = bytes(range(63, 127))
_B64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_B64_TO_G6 = bytes.maketrans(_B64_ALPHABET, _G6_ALPHABET)
_G6_TO_B64 = bytes.maketrans(_G6_ALPHABET, _B64_ALPHABET)


def _bit_reversed_bytes() -> bytes:
    """Byte b maps to b with its bit order reversed.

    A little-endian int's bytes, so translated, hold bit k at position k
    counted from the first byte's top bit.  Built by doubling, which keeps
    the import cheap: the bytes below 2**(k+1) are those below 2**k and the
    same with bit k set, which the reversal moves to bit 7 - k.
    """
    table = [0]
    for k in range(8):
        table += [r | 1 << (7 - k) for r in table]
    return bytes(table)


_REVERSE_BITS = _bit_reversed_bytes()


def graph6_encode(g: SimpleGraph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
    # bit pair_index(u, v) of body is the pair's bit: column v is v's lower row
    adj = g.adj
    body = 0
    start = 0
    for v in range(1, n):
        body |= (adj[v] & ((1 << v) - 1)) << start
        start += v
    nchars = (start + 5) // 6
    packed = body.to_bytes(-(-nchars // 4) * 3, "little").translate(_REVERSE_BITS)
    return head + binascii.b2a_base64(packed, newline=False)[:nchars].translate(_B64_TO_G6).decode()


def graph6_decode(text: str) -> SimpleGraph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise Graph6Error("empty graph6 string")
    if not s.isascii() or s.encode().translate(None, _G6_ALPHABET):
        bad = next(ch for ch in s if not 63 <= ord(ch) <= 126)
        raise Graph6Error(f"invalid graph6 byte {bad!r}")
    raw = s.encode()
    if raw[0] == 126:
        if len(raw) < 4 or raw[1] == 126:
            raise Graph6Error("unsupported graph6 size encoding")
        n = (raw[1] - 63) << 12 | (raw[2] - 63) << 6 | (raw[3] - 63)
        body = raw[4:]
    else:
        n = raw[0] - 63
        body = raw[1:]
    if not 1 <= n <= MAX_VERTICES:
        raise Graph6Error(f"graph order {n} outside supported range [1, {MAX_VERTICES}]")
    npairs = n * (n - 1) // 2
    expected = (npairs + 5) // 6
    if len(body) != expected:
        raise Graph6Error(
            f"expected {expected} body bytes for n={n}, got {len(body)}"
        )
    # 'A' is a zero group in base64: it pads the body to whole 4-char groups
    packed = binascii.a2b_base64(body.translate(_G6_TO_B64) + b"A" * (-len(body) % 4))
    pairs = int.from_bytes(packed.translate(_REVERSE_BITS), "little")
    if pairs >> npairs:
        raise Graph6Error("nonzero padding bits")
    g = SimpleGraph.__new__(SimpleGraph)
    g.n = n
    g.adj = _rows_from_bits(pairs, n)
    return g


@functools.lru_cache(maxsize=None)
def _bit_network(width: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """Shift stages and masks for _rows_from_bits on a width x width matrix.

    Moves: row v (v bits) starts at v(v-1)/2 and must go left by
    d(v) = v*width - v(v-1)/2, one stage per bit of d, most significant
    first.  d rises with v, and so does d with its lower bits cleared, so
    rows never overlap on the way.  A stage's mask covers the rows whose d has
    its bit, where they stand at that stage: the sum of 2**end - 2**start
    over their spans.  Swaps: the delta swaps of a bit-matrix transpose
    (Hacker's Delight, 2nd ed., section 7-3); swap j trades bit j of row
    and column index, moving the bits of rows without bit j and columns
    with it by j*(width - 1).  Its mask repeats one row pattern.
    """
    size = width * width // 8
    moves = []
    pos = [v * (v - 1) // 2 for v in range(width)]
    shift = [v * width - pos[v] for v in range(width)]
    for b in reversed(range(shift[-1].bit_length())):
        step = 1 << b
        starts, ends = bytearray(size), bytearray(size)
        for v in range(1, width):
            if shift[v] & step:
                p, e = pos[v], pos[v] + v
                starts[p >> 3] |= 1 << (p & 7)
                ends[e >> 3] |= 1 << (e & 7)
                pos[v] += step
        moves.append((step, int.from_bytes(ends, "little") - int.from_bytes(starts, "little")))
    swaps = []
    row_bytes = width // 8
    j = width
    while j > 1:
        j //= 2
        # a row's columns with bit j: whole bytes from j = 8 on, else one
        # byte pattern (0xF0, 0xCC, 0xAA)
        if j >= 8:
            row = (bytes(j // 8) + b"\xff" * (j // 8)) * (width // (2 * j))
        else:
            row = bytes([sum(1 << c for c in range(8) if c & j)]) * row_bytes
        mask = (row * j + bytes(row_bytes * j)) * (width // (2 * j))
        swaps.append((j * (width - 1), int.from_bytes(mask, "little")))
    return tuple(moves), tuple(swaps)


# struct codes of the unsigned words that hold one row of a width x width
# matrix
_WORDS = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _rows_from_bits(pairs: int, n: int) -> list[int]:
    """Adjacency rows from the pair bitset, bit pair_index(u, v) for pair uv,
    by a bit-matrix network.

    Row v's lower part, bits v(v-1)/2 .. v(v+1)/2 - 1 of pairs, moves to
    bit v*W of a W x W matrix, W the next power of two >= max(n, 8); the
    matrix ORed with its transpose holds every row, and one to_bytes and
    one struct.unpack split them.
    """
    width = 1 << max(n - 1, 7).bit_length()
    moves, swaps = _bit_network(width)
    for step, mask in moves:
        t = pairs & mask
        pairs = pairs ^ t | t << step
    x = pairs
    for shift, mask in swaps:
        t = (x ^ x >> shift) & mask
        x ^= t ^ t << shift
    data = (x | pairs).to_bytes(width * width // 8, "little")
    if width <= 64:
        return list(struct.unpack_from(f"<{n}{_WORDS[width]}", data))
    # a 128-bit row is two 64-bit words, low word first
    words = struct.unpack_from(f"<{2 * n}Q", data)
    return [low | high << 64 for low, high in zip(words[::2], words[1::2])]


# ---------------------------------------------------------------------------
# Coloring text format: line 1 "N c", then "u v color" for every pair, each
# color in 0..c-1; '#' starts a comment.  A document that leaves a pair out,
# or gives it '-' where a color belongs, is refused with the pair named.
# coloring_to_text writes the canonical form: the header, then one line per
# pair in canonical order, single spaces, '\n' line ends and no comment.
#
# Two designs carry the format, each in both directions.  The bulk path is
# a per-n byte template for c <= 10, where every color is one character: the
# writer fills its slots and the reader takes them out by strided slices.
# The reference path is one line per pair: the writer formats each line,
# and _coloring_from_lines reads any document and words every error.  It
# writes and reads c > 10, and takes every document the template does not
# match.  At n = 128 (2-core x86, Python 3.11) the template writes a
# 2-coloring in about 0.1 ms and reads it in 0.15 ms; the pair lines write
# an 11-coloring in about 2.8 ms and read it in 6 ms.

# With at most this many colors every token is one character, '0'..'9', so
# the canonical body of K_n is one per-n template with a token slot at a
# fixed offset on every line.
_TEMPLATE_COLORS = 10

_DIGITS = b"0123456789"
# colors 0..9 to their tokens, and every other byte to 0
_COLOR_TO_TOKEN = bytes(_DIGITS[b] if b < 10 else 0 for b in range(256))
# tokens to colors
_TOKEN_TO_COLOR = bytes.maketrans(_DIGITS, bytes(range(10)))


@functools.lru_cache(maxsize=16)
def _text_template(n: int) -> tuple[bytes, tuple[tuple[int, int, int, int, int], ...]]:
    """The canonical body of K_n with a 0 byte in every token slot, and the
    slots as runs (start, stop, step, first, last).

    Consecutive lines of equal width hold pairs first..last-1, and their
    slots are at range(start, stop, step).  Within a column a run ends
    where the width of u changes; a run that the next column's first lines
    continue at the same width goes on, so all of K_10 is one run and K_128
    has 261.
    """
    names = [str(u) for u in range(n)]
    parts, runs = [], []
    offset = pair = 0
    for v in range(1, n):
        tail = f" {v} \0\n"
        parts.append(tail.join(names[:v]) + tail)
        for lo, hi in ((0, 10), (10, 100), (100, v)):
            count = min(hi, v) - lo
            if count <= 0:
                break
            step = len(names[lo]) + len(tail)
            start, first = offset + step - 2, pair
            if runs and runs[-1][1:3] == (start, step):
                start, _, _, first, _ = runs.pop()
            offset += step * count
            pair += count
            runs.append((start, offset + step - 2, step, first, pair))
    return "".join(parts).encode(), tuple(runs)


def _filled_template(n: int, tokens: bytes) -> bytearray:
    """The canonical body of K_n with tokens[i] in pair i's slot."""
    body, runs = _text_template(n)
    body = bytearray(body)
    for start, stop, step, first, last in runs:
        body[start:stop:step] = tokens[first:last]
    return body


def coloring_to_text(coloring: EdgeColoring) -> str:
    n, c = coloring.n, coloring.c
    header = f"{n} {c}\n"
    if c <= _TEMPLATE_COLORS:
        # the tokens fill the template's slots; a color stored past the
        # constructor's check, which bytearray() refuses or which has no
        # one-character token, takes the pair lines below
        try:
            tokens = bytearray(coloring.colors).translate(_COLOR_TO_TOKEN)
        except (ValueError, TypeError):
            tokens = None
        if tokens is not None and b"\0" not in tokens:
            return header + _filled_template(n, tokens).decode()
    # ':d' writes a bool color as 0 or 1 and refuses a non-integer one
    lines = [f"{u} {v} {col:d}\n" for (u, v, _, _), col in zip(_pair_table(n), coloring.colors)]
    return header + "".join(lines)


def _canonical_colors(text: str) -> Optional[tuple[int, int, list[int]]]:
    """(n, c, colors) if text is exactly coloring_to_text's output and
    c <= 10, else None.

    The first line must be "n c" as coloring_to_text writes it, with
    1 <= n <= MAX_VERTICES.  Strided slices read the template's token
    slots; each must hold a color token below c, and the template filled
    with these tokens must be the body, which checks every byte outside the
    slots at once.  Only ASCII text can match, so its bytes stand for its
    characters.
    """
    if not text.isascii():
        return None
    header, newline, body = text.partition("\n")
    a, _, b = header.partition(" ")
    try:
        n, c = int(a), int(b)
    except ValueError:
        return None
    if not newline or f"{n} {c}" != header or not (1 <= n <= MAX_VERTICES and 1 <= c <= _TEMPLATE_COLORS):
        return None
    body = body.encode()
    template, runs = _text_template(n)
    if len(body) != len(template):
        return None
    tokens = b"".join([body[start:stop:step] for start, stop, step, _, _ in runs])
    if tokens.translate(None, _DIGITS[:c]) or _filled_template(n, tokens) != body:
        return None
    return n, c, list(tokens.translate(_TOKEN_TO_COLOR))


def coloring_from_text(text: str) -> EdgeColoring:
    fast = _canonical_colors(text)
    if fast is None:
        return _coloring_from_lines(text)
    # the canonical form has n, c and every color in range already
    coloring = EdgeColoring.__new__(EdgeColoring)
    coloring.n, coloring.c, coloring.colors = fast
    return coloring


def _coloring_from_lines(text: str) -> EdgeColoring:
    """Reads any coloring document line by line; words every error."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise ValueError("empty coloring document")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header {rows[0]!r}; expected 'N c'")
    n, c = int(head[0]), int(head[1])
    _check_size(n, c)
    colors = [0] * (n * (n - 1) // 2)
    seen = bytearray(len(colors))
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"bad pair line {line!r}; expected 'u v color'")
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex out of range for n={n} in line {line!r}")
        if u == v:
            raise ValueError(f"self pair in line {line!r}")
        idx = v * (v - 1) // 2 + u if u < v else u * (u - 1) // 2 + v
        if seen[idx]:
            raise ValueError(f"duplicate pair {u} {v}")
        seen[idx] = 1
        if parts[2] == "-":
            raise ValueError(f"unassigned pair {u} {v}: every pair needs a color in 0..{c - 1}")
        col = int(parts[2])
        if not 0 <= col < c:
            raise ValueError(f"color out of range for c={c} in line {line!r}")
        colors[idx] = col
    missing = seen.find(0)
    if missing >= 0:
        u, v = list(pair_iter(n))[missing]
        raise ValueError(f"missing pair {u} {v}: every pair needs a color in 0..{c - 1}")
    return EdgeColoring(n, c, colors)
