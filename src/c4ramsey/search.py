"""Backtracking search for good edge colorings at desk scale.

Edges are assigned in canonical pair order; after each assignment only the
subgraphs through the new edge are checked, so a partial class never
contains its target.  Infeasible is reported only after the full tree has
been enumerated (modulo the declared color-permutation reduction on the
first edge); budget exhaustion is always reported as Unknown.  A long
search_coloring run is shared with helper processes on the machine's other
cores, with the same status, node count and witness (see _Split).

The backtracking loop is generated from source, once per process for each
n, target list and degree caps (see _kernel), so a short search pays one
cache lookup for it.  It is one loop for every edge, the first included: every
color's target test is written inline in its own unrolled block, with the
degree cap folded in, so a node calls no Python function (but _clique_in
for a clique of five or more vertices), and the reduction is a guard on
the blocks of the colors it skips on edge 0.  A fresh edge tries every
color in turn; after a backtrack an edge resumes at one past its last
color, so no cursor stack is kept.  For n <= 14 the tests scan a bitset
through a per-n table of its set bits and count its bits through another,
both built with the first kernel for that n (see _tables); above it they
peel off one bit at a time.  _creates_test compiles the same test text on
its own, in the form for a given n, for the brute-force checks.
"""

from __future__ import annotations

import functools
import re
import time
from typing import Callable, Optional, Sequence

from . import targets as tg
from ._record import Record, set_field
from .graphs import (
    MAX_COLORS,
    EdgeColoring,
    SimpleGraph,
    _clique_in,
    _pair_table,
    coloring_to_text,
    contains_target,
    is_good_coloring,
)
from .targets import CYCLE4, TargetGraph, clique

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"

# A search_coloring run still going after SPLIT_AFTER nodes is shared with
# helper processes, one per further usable core.  Items are queued as 2-byte
# records in one write of at most 4096 bytes, which fits any pipe.
SPLIT_AFTER = 16 * 4096
_ITEM_BYTES = 2
_ITEMS_MAX = 2048
_ITEMS_WANTED = 256
_PLAN_WORK = 16 * 4096  # most nodes spent listing items
_NEVER = float("inf")


class SearchBudget(Record):
    _fields = ("node_limit", "time_limit")

    def __init__(self, node_limit: int = 50_000_000, time_limit: float = 600.0):
        if node_limit < 1 or not time_limit > 0:  # NaN is not > 0 either
            raise ValueError(f"budget limits must be positive, got {node_limit} nodes and {time_limit} s")
        set_field(self, "node_limit", node_limit)
        set_field(self, "time_limit", time_limit)


_DEFAULT_BUDGET = SearchBudget()


class SearchOutcome(Record):
    _fields = ("status", "nodes_explored", "wall_time", "witness", "certificate_note")

    def __init__(self, status: str, nodes_explored: int, wall_time: float,
                 witness: Optional[EdgeColoring] = None, certificate_note: str = ""):
        # status is feasible, infeasible or unknown
        set_field(self, "status", status)
        set_field(self, "nodes_explored", nodes_explored)
        set_field(self, "wall_time", wall_time)
        set_field(self, "witness", witness)
        set_field(self, "certificate_note", certificate_note)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "nodes": self.nodes_explored,
            "wall_time": self.wall_time,
            "witness": coloring_to_text(self.witness) if self.witness else None,
            "certificate_note": self.certificate_note,
        }


def _effective_target(t: TargetGraph, n: int) -> Optional[TargetGraph]:
    """Reduce a target for an n-vertex search; None means it cannot fit.

    A fitting base + tK1 is present exactly when its base is, and
    with_isolated never makes the base itself a base + sK1."""
    if n < t.vertex_count:
        return None
    return t.base if t.kind == tg.WITH_ISOLATED else t


# One test snippet per target kind.  A snippet runs ACCEPT exactly when
# adding edge uv to the class with adjacency rows {a} creates no copy of the
# target, and otherwise falls through; ACCEPT always leaves the snippet.  The
# class is assumed target-free before the addition, so only copies through
# the new edge are checked.  Snippets are written in table form: BITS[m] is
# the ascending tuple of the set bits of m and POP[m] their count (see
# _tables); _in_form rewrites both where n is too large for the tables.
_C4 = """\
# a new 4-cycle is uv plus a path u-a-b-v already in the class, so there is
# none while v has no neighbour in it
av = {a}[v]
if not av:
    ACCEPT
for b in BITS[{a}[u]]:
    if {a}[b] & av:
        break
else:
    ACCEPT
"""
_K4 = """\
# a new K4 is uv plus an edge among the common neighbours
common = {a}[u] & {a}[v]
for b in BITS[common]:
    if {a}[b] & common:
        break
else:
    ACCEPT
"""
_BOOK = """\
# spine uv: the pages are the common neighbours of u and v
common = {a}[u] & {a}[v]
if POP[common] < {k}:
    # page edge uv: the spine is ux (or vx) and v (or u) is its new page,
    # so x lies in N(u) & N(v).  Spine ux had |N(u) & N(x)| pages before
    # and gains v; the class was B_k-free, so the book appears exactly when
    # that count was k-1.  A neighbour x of u outside N(v) gains no page,
    # so no other x can complete a book.
    au, av = {a}[u], {a}[v]
    for b in BITS[common]:
        x = {a}[b]
        if POP[au & x] >= {pages} or POP[av & x] >= {pages}:
            break
    else:
        ACCEPT
"""


def _snippet(t: Optional[TargetGraph], cap: Optional[int] = None) -> str:
    """The snippet of target t with degree cap cap folded in, in table form.
    t None is a target too large to fit, which no edge creates; cap None is a
    cap that cannot refuse an edge."""
    kind, k = (t.kind, t.k) if t is not None else (None, 0)
    if kind == tg.STAR:
        d = k - 1 if cap is None else min(k - 1, cap)
        return f"if POP[{{a}}[u]] < {d} and POP[{{a}}[v]] < {d}:\n    ACCEPT\n"
    if kind is None:
        text = "ACCEPT\n"
    elif kind == tg.CYCLE4_KIND:
        text = _C4
    # K3 and K4: the _clique_in test below at need 1 and 2, inline to save a call a node
    elif kind == tg.CLIQUE and k == 3:
        text = "if not {a}[u] & {a}[v]:\n    ACCEPT\n"
    elif kind == tg.CLIQUE and k == 4:
        text = _K4
    elif kind == tg.CLIQUE:
        text = f"if not _clique_in({{a}}, {{a}}[u] & {{a}}[v], {k - 2}):\n    ACCEPT\n"
    elif kind == tg.BOOK:
        text = _BOOK.replace("{k}", str(k)).replace("{pages}", str(k - 1))
    else:
        raise ValueError(f"unsupported incremental target {t}")
    if cap is None:
        return text
    # a vertex with cap edges of this color already takes no more
    return f"if POP[{{a}}[u]] < {cap} and POP[{{a}}[v]] < {cap}:\n" + _indent(text, 1)


# The largest n whose searches scan with the tables: at n = 14 they hold
# 16,384 entries each, about 1.8 MB together, and take about 5 ms to build
# (x86, Python 3.11).
_TABLE_N = 14


@functools.lru_cache(maxsize=None)
def _tables(n: int) -> tuple[tuple, tuple]:
    """(BITS, POP) for masks of n bits: BITS[m] the set-bit positions of m in
    ascending order, POP[m] how many there are.  Built when the first kernel
    or test for n is, never at import."""
    bits, pop = [()], [0]
    for i in range(n):
        # the masks with top bit i are those below it with bit i added
        bits += [b + (i,) for b in bits]
        pop += [c + 1 for c in pop]
    return tuple(bits), tuple(pop)


_SCAN = re.compile(r"^( *)for b in BITS\[(.+)\]:$", re.M)
_POP = re.compile(r"POP\[((?:[^][]|\[[^][]*\])+)\]")


def _in_form(snippet: str, n: int) -> str:
    """snippet as an n-vertex search inlines it: as written for n <= _TABLE_N,
    else with each table scan turned into a loop that peels off the lowest set
    bit, and each POP[m] into m.bit_count().  The loop's b is that bit, so
    a row read [b] becomes [b.bit_length() - 1]; snippets use a scan's b for
    nothing else."""
    if n <= _TABLE_N:
        return snippet
    text = _SCAN.sub(r"\1rest = \2\n\1while rest:\n\1    b = rest & -rest\n\1    rest ^= b", snippet)
    text = _POP.sub(lambda m: (m[1] if " " not in m[1] else f"({m[1]})") + ".bit_count()", text)
    return text.replace("[b]", "[b.bit_length() - 1]")


def _indent(text: str, levels: int) -> str:
    """text with each non-blank line indented by levels of four spaces."""
    return "".join("    " * levels + line if line.strip() else line for line in text.splitlines(True))


def _filled(snippet: str, a: str, accept: str, levels: int) -> str:
    """snippet on rows a, with each ACCEPT line replaced by the lines accept,
    indented by levels."""
    lines = []
    for line in snippet.replace("{a}", a).splitlines(True):
        body = line.lstrip(" ")
        lines.append(_indent(accept, (len(line) - len(body)) // 4) if body == "ACCEPT\n" else line)
    return _indent("".join(lines), levels)


def _compiled(source: str, name: str, n: int):
    """The function name that source defines, run with the names kernels of
    n-vertex searches use: BITS and POP are their tables, None above
    _TABLE_N, where no snippet reads them."""
    scope = {"time": time, "_clique_in": _clique_in, "FEASIBLE": FEASIBLE, "INFEASIBLE": INFEASIBLE,
             "UNKNOWN": UNKNOWN, "NEVER": _NEVER}
    scope["BITS"], scope["POP"] = _tables(n) if n <= _TABLE_N else (None, None)
    exec(compile(source, f"<c4ramsey.search {name}>", "exec"), scope)
    return scope[name]


@functools.lru_cache(maxsize=128)
def _creates_test(t: TargetGraph, n: int) -> Callable[[list[int], int, int], bool]:
    """Target t's snippet compiled into a test (adj, u, v) -> bool for
    graphs on at most n vertices.

    The test says whether adding edge uv to the class with adjacency adj
    would create a copy of t.  It runs the text the kernel of an n-vertex
    search inlines, so checking it checks the kernel's tests.  Each target
    is compiled once per process for each n.
    """
    return _test_function(_snippet(t), n)


def _test_function(snippet: str, n: int) -> Callable[[list[int], int, int], bool]:
    """snippet compiled on its own in its form for n vertices: (adj, u, v) ->
    whether it refuses uv."""
    body = _filled(_in_form(snippet, n), "adj", "return False\n", 1)
    return _compiled(f"def test(adj, u, v, BITS=BITS, POP=POP):\n{body}    return True\n", "test", n)


# The search kernel: one loop for every edge, the base edge included.  Each
# color is one unrolled block that counts a node and inlines its target's
# test on the color's own rows r0, r1, ...  A fresh edge runs every color's
# block in turn, unguarded.  Once every color has failed at an edge, the
# edge before it is undone and resumed at start = its color + 1, through a
# second set of blocks guarded by start <= col, the only code that reads
# start; a backtrack that reaches floor (base at first) ends the search.
# The first-edge color-permutation reduction is compiled in: the blocks of a
# color whose declared group appeared earlier in the list are guarded by idx
# as well, so it is skipped on edge 0, which only a search from the root
# reaches.  Budget checks fall at each multiple of 4096 nodes and at
# node_limit + 1; the first at or past split_at calls on_split(idx,
# assignment), which returns a depth D (0 where nothing is handed out), and
# the search keeps the edges before D as they are and ends once it would
# backtrack into them.  With listed, each accepted prefix of length stop is
# appended to it with the node count at that moment, and the search goes on
# as if everything below it had failed.  The tables BITS and POP are bound
# as defaults, so they are locals.
_KERNEL = """\
def kernel(edges, rows, assignment, base, stop, listed, nodes, node_limit, deadline, split_at, on_split,
           BITS=BITS, POP=POP):
    {rows} = rows
    check = min(nodes - nodes % 4096 + 4096, node_limit + 1)
    floor = idx = base
    while True:
        while idx < stop:
            u, v, bu, bv = edges[idx]
{fresh}            break
        else:
            if listed is None:
                return FEASIBLE, assignment, nodes
            listed.append((nodes, tuple(assignment[:stop])))
        # no color is left to try at idx: undo the edge before it and resume it
        while idx != floor:
            idx -= 1
            u, v, bu, bv = edges[idx]
            start = assignment[idx]
            row = rows[start]
            row[u] ^= bv
            row[v] ^= bu
            start += 1
{resumed}        else:
            return INFEASIBLE, None, nodes
"""
# one node: counted, then the budget checked
_COUNT = """\
nodes += 1
if nodes >= check:
    if nodes > node_limit or time.monotonic() > deadline:
        return UNKNOWN, None, nodes
    check = min(check + 4096, node_limit + 1)
    if nodes >= split_at:
        split_at = NEVER
        floor = max(floor, on_split(idx, assignment))
"""
# color {col} taken at edge idx; {then} goes on to the next edge, which is
# fresh
_ACCEPT = """\
r{col}[u] |= bv
r{col}[v] |= bu
assignment[idx] = {col}
idx += 1
{then}
"""


@functools.lru_cache(maxsize=256)
def _kernel(n: int, targets: tuple, degree_caps: Optional[tuple]):
    """The search kernel of an n-vertex search for targets under degree_caps
    (None for no caps), compiled on first use, or None where an edgeless
    target fits: it is in every color class, so no coloring exists.  Built
    once per process for each n, target list and caps, all tuples, so a
    short search pays one cache lookup for it."""
    effective = [_effective_target(t, n) for t in targets]
    if any(eff is not None and eff.kind == tg.EMPTY for eff in effective):
        return None
    # color-permutation reduction: on the first edge, only the first color of
    # each group of identical declared targets and degree caps is tried, so a
    # color whose group appeared earlier is not tried on edge 0
    groups = targets if degree_caps is None else list(zip(targets, degree_caps))
    repeats = [groups.index(g) < i for i, g in enumerate(groups)]
    # a vertex has at most n - 2 edges of a color before uv, so a cap of
    # n - 1 or more never refuses one (None: no cap test)
    caps = [cap if cap < n - 1 else None for cap in degree_caps or [n - 1] * len(targets)]

    def tries(col, snippet, then, guard):
        """Color col's block: a node counted and its test, under the line
        guard where there is one."""
        block = _COUNT + _filled(snippet, f"r{col}", _ACCEPT.format(col=col, then=then), 0)
        return _indent(f"{guard}\n" + _indent(block, 1) if guard else block, 3)

    fresh, resumed = [], []
    for col, (t, cap) in enumerate(zip(effective, caps)):
        snippet = _in_form(_snippet(t, cap), n)
        fresh.append(tries(col, snippet, "continue", "if idx:" if repeats[col] else ""))
        if col:  # a resumed edge has start >= 1
            skip = " and idx" if repeats[col] else ""
            resumed.append(tries(col, snippet, "break", f"if start <= {col}{skip}:"))
    source = _KERNEL.format(rows="(" + "".join(f"r{col}, " for col in range(len(effective))) + ")",
                            fresh="".join(fresh), resumed="".join(resumed))
    return _compiled(source, "kernel", n)


def _search_edges(
    n: int,
    edges: Sequence[tuple[int, int, int, int]],
    targets: Sequence[TargetGraph],
    budget: SearchBudget,
    degree_caps: Optional[Sequence[int]] = None,
    split: bool = False,
) -> tuple[str, Optional[list[int]], int]:
    """Core backtracking over a fixed edge list.

    edges lists each edge as (u, v, 1 << u, 1 << v), in search order.
    Returns (status, assignment or None, nodes).  The assignment is indexed
    parallel to edges.  A node is one color tried on one edge.  With
    split, a search still running after SPLIT_AFTER nodes shares its tree
    with helper processes (see _Split); the result is the same.
    """
    kernel = _kernel(n, tuple(targets), None if degree_caps is None else tuple(degree_caps))
    if kernel is None:
        return INFEASIBLE, None, 0
    tree = _Tree(n, edges, kernel, len(targets), time.monotonic() + budget.time_limit)
    if not split:
        return tree.dfs((), 0, budget.node_limit)
    splitter = _Split(tree, budget.node_limit)
    try:
        return splitter.walk(*tree.dfs((), 0, budget.node_limit, split_at=SPLIT_AFTER, on_split=splitter.split))
    finally:
        splitter.close()


class _Tree:
    """The fixed part of one search: the edges in search order, the kernel
    of its targets, degree caps and first-edge reduction (see _kernel), and
    the deadline."""

    def __init__(self, n, edges, kernel, color_count, deadline):
        self.n = n
        self.kernel = kernel
        self.edges = edges
        self.color_count = color_count
        self.deadline = deadline

    def dfs(self, prefix, nodes, node_limit, stop=None, listed=None, split_at=_NEVER, on_split=None):
        """The search below a fixed prefix of edge colors.

        Tries the colors on edge len(prefix), the base depth (on edge 0 only
        the first of each group), and goes on in DFS order without
        backtracking into the prefix.  Returns (status, assignment or None,
        nodes): feasible at the first good coloring, infeasible once the base
        edge's colors and everything below them have failed, and unknown
        once nodes passes node_limit (at node_limit + 1) or a budget check
        finds the deadline past.  nodes counts on from the value given;
        the budget is checked at each multiple of 4096 and at node_limit + 1.

        With a stop depth, every accepted prefix of that length is appended
        to listed, with the node count at that moment, instead of being
        searched below.  on_split(idx, assignment) is called once, at the
        first budget check at or past split_at; the search ends once it would
        backtrack above the depth it returns.
        """
        n, edges = self.n, self.edges
        rows = [[0] * n for _ in range(self.color_count)]  # rows[col]: color col's adjacency rows
        for i, col in enumerate(prefix):
            u, v, bu, bv = edges[i]
            a = rows[col]
            a[u] |= bv
            a[v] |= bu
        m = len(edges)
        if stop is None:
            stop = m
        base = len(prefix)
        assignment = [*prefix, *[-1] * (m - base)]
        return self.kernel(edges, rows, assignment, base, stop, listed, nodes, node_limit,
                           self.deadline, split_at, on_split)


class _Split:
    """One search_coloring run shared with helper processes.

    At the first budget check past SPLIT_AFTER nodes the main process keeps
    the subtree of its current path below some depth D and hands out the
    depth-D prefixes after its own, listed from the root down to depth D:
    the items, in DFS order, with the nodes counted between them (the gaps).
    Helpers and the main process, once its own part is done, claim items
    from one pipe in that order.  The main process adds the results up in
    that order, so status, node count and witness are those of the
    sequential search.  Each process checks the deadline every 4096 of its
    own nodes.
    """

    def __init__(self, tree, node_limit):
        self.tree = tree
        self.node_limit = node_limit
        self.items = []  # prefixes of depth D, in DFS order
        self.gaps = []  # gaps[i]: nodes just before items[i]; gaps[-1]: after the last
        self.queue = None  # read end of the pipe of item indices
        self.pids = []
        self.helpers = {}  # result pipe read end -> bytes received, not yet parsed

    def split(self, idx, assignment):
        """The split hook: plan items, queue them and start the helpers.
        Returns the items' depth, above which the main process's own search
        must not backtrack, or 0 where nothing is handed out."""
        import os
        import signal

        helpers = _helper_count()
        if not helpers:
            return 0
        plan = self._plan(assignment[:idx])
        if plan is None:
            return 0
        depth, self.items, self.gaps = plan
        self.queue, w = os.pipe()
        records = b"".join(i.to_bytes(_ITEM_BYTES, "little") for i in range(len(self.items)))
        written = os.write(w, records)
        os.close(w)
        if written != len(records):
            raise RuntimeError("internal error: item queue did not fit its pipe")
        # SIGINT stays blocked while forking: a child ignores it from the
        # start of _help, and a Ctrl-C reaches this process only once the
        # child's pid is recorded for close()
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for _ in range(helpers):
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(r)
                    os.close(w)
                    break
                if pid == 0:
                    self._help(r, w, mask)
                os.close(w)
                self.pids.append(pid)
                self.helpers[r] = b""
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        return depth

    def _plan(self, path):
        """(D, items, gaps) for the shallowest depth D <= len(path) that
        gives _ITEMS_WANTED items, or the most under _ITEMS_MAX; None when
        there is nothing to hand out.

        The items follow path[:D], the main process's own prefix, in a listing
        of the whole tree; the gaps are differences of its counts, the last
        up to its end.  The listings take at most _PLAN_WORK nodes in all;
        one cut short by that or the deadline keeps the plan made so far."""
        plan, work = None, 0
        for depth in range(1, len(path) + 1):
            listed = []
            status, _, used = self.tree.dfs((), 0, _PLAN_WORK - work, depth, listed)
            if status == UNKNOWN:
                break
            work += used
            at = [prefix for _, prefix in listed].index(tuple(path[:depth]))
            items = [prefix for _, prefix in listed[at + 1:]]
            if len(items) > _ITEMS_MAX:
                break
            counts = [count for count, _ in listed[at:]] + [used]
            plan = depth, items, [b - a for a, b in zip(counts, counts[1:])]
            if len(items) >= _ITEMS_WANTED:
                break
        return plan if plan and plan[1] else None

    def _claim(self):
        """The next item index from the queue, or None once it is empty."""
        import os

        if self.queue is None:
            return None
        record = os.read(self.queue, _ITEM_BYTES)
        if record:
            return int.from_bytes(record, "little")
        os.close(self.queue)
        self.queue = None
        return None

    def run(self, i, nodes):
        """Run item i on a process's node counter nodes, within node_limit
        nodes of its own: (status, assignment, the item's nodes, the counter
        after it)."""
        status, assignment, after = self.tree.dfs(self.items[i], nodes, nodes + self.node_limit)
        return status, assignment, after - nodes, after

    def _help(self, r, out, mask):
        """A helper's whole life, from the fork on: claim, run and report items
        until the queue is empty, then exit.  It never returns.  It ignores
        SIGINT, which the main process answers by stopping it; mask is the
        signal mask to restore."""
        import os
        import signal

        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for fd in (r, *self.helpers):
                os.close(fd)
            nodes = 0
            while (i := self._claim()) is not None:
                status, assignment, used, nodes = self.run(i, nodes)
                colors = " ".join(map(str, assignment)) if assignment else "-"
                _write(out, f"{i} {status} {used} {colors}\n".encode())
            code = 0
        finally:
            os._exit(code)

    def walk(self, status, assignment, nodes):
        """The search's result, given the main process's own part: the items
        added up in DFS order, running the queue's items and, once no helper
        is left, any item a helper took and died on."""
        if not self.items or status != INFEASIBLE:
            return status, assignment, nodes
        limit = self.node_limit
        results = {}
        own = total = nodes
        i = 0
        while True:
            while i in results:
                status, assignment, used = results.pop(i)
                total += self.gaps[i] + used
                if total > limit:
                    return UNKNOWN, None, limit + 1
                if status != INFEASIBLE:
                    return status, assignment, total
                i += 1
            if i == len(self.items):
                total += self.gaps[i]
                return (UNKNOWN, None, limit + 1) if total > limit else (INFEASIBLE, None, total)
            j = self._claim()
            if j is None:
                if self.helpers:  # a helper runs item i, or has run it
                    self._receive(results, None)
                    continue
                j = i  # the helper that took it died
            status, assignment, used, own = self.run(j, own)
            results[j] = status, assignment, used
            self._receive(results, 0)

    def _receive(self, results, timeout):
        """Read what the helpers sent within timeout ms (None: wait for news)."""
        import os
        import select

        if not self.helpers:
            return
        poll = select.poll()
        for fd in self.helpers:
            poll.register(fd, select.POLLIN)
        for fd, _ in poll.poll(timeout):
            data = os.read(fd, 1 << 16)
            if not data:
                del self.helpers[fd]
                os.close(fd)
                continue
            *lines, self.helpers[fd] = (self.helpers[fd] + data).split(b"\n")
            for line in lines:
                i, status, used, *colors = line.split()
                assignment = None if colors == [b"-"] else list(map(int, colors))
                results[int(i)] = status.decode(), assignment, int(used)

    def close(self):
        """Stop and reap every helper; close the pipes."""
        import os
        import signal

        for pid in self.pids:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # reaped already, where the program ignores SIGCHLD
        self.pids = []
        for fd in self.helpers:
            os.close(fd)
        self.helpers = {}
        if self.queue is not None:
            os.close(self.queue)
            self.queue = None


def _helper_count() -> int:
    """How many helpers a split starts: the usable cores less one, and none
    without fork or beside other threads, which a forked child would lack."""
    import os
    import threading

    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 0
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return cores - 1


def _write(fd: int, data: bytes) -> None:
    import os

    while data:
        data = data[os.write(fd, data):]


def search_coloring(
    n: int,
    targets: Sequence[TargetGraph],
    budget: Optional[SearchBudget] = None,
    degree_caps: Optional[Sequence[int]] = None,
) -> SearchOutcome:
    """Search for a good coloring of K_n avoiding targets[i] in color i."""
    if not 1 <= n <= 128:
        raise ValueError(f"n must be in [1, 128], got {n}")
    if not targets:
        raise ValueError("need at least one target")
    if len(targets) > MAX_COLORS:
        raise ValueError(f"need at most {MAX_COLORS} targets (one per color), got {len(targets)}")
    budget = budget or _DEFAULT_BUDGET
    start = time.monotonic()
    if degree_caps is not None:
        if len(degree_caps) != len(targets):
            raise ValueError(f"need {len(targets)} degree caps, got {len(degree_caps)}")
        if any(cap < 0 for cap in degree_caps):
            raise ValueError(f"degree caps must be >= 0, got {list(degree_caps)}")
        # counting cut: each vertex has n-1 edges and color i takes at most
        # degree_caps[i] of them, so no coloring exists when the caps sum lower
        if sum(degree_caps) < n - 1:
            return SearchOutcome(
                INFEASIBLE, 0, time.monotonic() - start, None,
                f"degree caps sum to {sum(degree_caps)} < n - 1 = {n - 1}",
            )
    status, assignment, nodes = _search_edges(n, _pair_table(n), targets, budget, degree_caps, split=True)
    wall = time.monotonic() - start
    # edges are in canonical pair order, so assignment is the coloring
    witness = EdgeColoring(n, len(targets), assignment) if status == FEASIBLE else None
    return _finished(status, nodes, wall, witness, list(targets), "witness verified",
                     "exhaustive modulo first-edge color-permutation reduction")


def _finished(status: str, nodes: int, wall: float, witness: Optional[EdgeColoring],
              targets: list[TargetGraph], found: str, exhausted: str) -> SearchOutcome:
    """The outcome of a search that ran: the witness of a feasible one,
    re-verified good for targets first, with the note found; an infeasible
    one with the note exhausted."""
    if status == FEASIBLE:
        if not is_good_coloring(witness, targets):
            raise RuntimeError("internal error: search produced a bad witness")
        return SearchOutcome(FEASIBLE, nodes, wall, witness, found)
    return SearchOutcome(status, nodes, wall, None, exhausted if status == INFEASIBLE else "budget exhausted")


def ramsey_by_search(
    targets: Sequence[TargetGraph],
    n_min: int,
    n_max: int,
    budget: Optional[SearchBudget] = None,
) -> dict[int, SearchOutcome]:
    """Per-N search outcomes over [n_min, n_max]."""
    if not 1 <= n_min <= n_max <= 128:
        raise ValueError(f"bad range [{n_min}, {n_max}]")
    return {
        n: search_coloring(n, targets, budget) for n in range(n_min, n_max + 1)
    }


def computed_ramsey(outcomes: dict[int, SearchOutcome]) -> Optional[int]:
    """Least infeasible N when all smaller N in range are feasible, else None."""
    for n in sorted(outcomes):
        st = outcomes[n].status
        if st == INFEASIBLE:
            return n
        if st != FEASIBLE:
            return None
    return None


def partition_check(
    g: SimpleGraph,
    pair_targets: Sequence[TargetGraph] = (clique(3), clique(4)),
    budget: Optional[SearchBudget] = None,
) -> SearchOutcome:
    """Can g's non-edges be split into two classes avoiding the pair targets?

    g must be C4-free and pair_targets must hold exactly two targets.  A
    feasible outcome carries the full 3-colored witness (g's edges in color
    0, the split in colors 1 and 2), verified good for
    (C4, pair_targets[0], pair_targets[1]).
    """
    if len(pair_targets) != 2:
        raise ValueError(f"need exactly two pair targets, got {len(pair_targets)}")
    if contains_target(g, CYCLE4):
        raise ValueError("input graph contains a C4; partition kernel requires C4-free input")
    budget = budget or _DEFAULT_BUDGET
    start = time.monotonic()
    # the non-edges in pair order, and their pair indices
    pairs = _pair_table(g.n)
    adj = g.adj
    where = [i for i, (u, _, _, bv) in enumerate(pairs) if not adj[u] & bv]
    non_edges = [pairs[i] for i in where]
    # Not split across cores: the main process keeps its current path's
    # subtree, and on feasible partition searches that part holds the witness
    # and most nodes (59.3%, 90.7% and 98.9% of 160,930, 705,356 and
    # 6,104,075), so a helper only runs items after the witness.
    status, assignment, nodes = _search_edges(g.n, non_edges, pair_targets, budget)
    wall = time.monotonic() - start
    witness = None
    if status == FEASIBLE:
        # g's edges in color 0, each non-edge's color shifted by one
        colors = bytearray(len(pairs))
        for i, col in zip(where, assignment):
            colors[i] = col + 1
        witness = EdgeColoring(g.n, 3, colors)
    swap = " modulo first-edge color swap" if pair_targets[0] == pair_targets[1] else ""
    return _finished(status, nodes, wall, witness, [CYCLE4, *pair_targets],
                     "3-colored witness verified", "exhaustive over all non-edge splits" + swap)
