"""Backtracking search for good edge colorings at desk scale.

Edges are assigned in canonical pair order; after each assignment only the
subgraphs through the new edge are checked, so a partial class never
contains its target.  Infeasible is reported only after the full tree has
been enumerated (modulo the declared color-permutation reduction on the
first edge); budget exhaustion is always reported as Unknown.  A long
search_coloring run is shared with helper processes on the machine's other
cores, with the same status, node count and witness (see _Split).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import targets as tg
from .graphs import (
    EdgeColoring,
    SimpleGraph,
    _clique_in,
    contains_target,
    is_good_coloring,
    pair_iter,
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
_PLAN_WORK = 16 * 4096  # most nodes and prefix edges spent listing items
_NEVER = float("inf")


@dataclass(frozen=True)
class SearchBudget:
    node_limit: int = 50_000_000
    time_limit: float = 600.0

    def __post_init__(self):
        if self.node_limit < 1 or not self.time_limit > 0:  # NaN is not > 0 either
            raise ValueError(f"budget limits must be positive, got {self.node_limit} nodes and {self.time_limit} s")


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # feasible | infeasible | unknown
    nodes_explored: int
    wall_time: float
    witness: Optional[EdgeColoring] = None
    certificate_note: str = ""

    def to_dict(self) -> dict:
        from .graphs import coloring_to_text

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


def _never(adj: list[int], u: int, v: int) -> bool:
    """The test of a target too large to fit: no edge creates it."""
    return False


def _creates_test(t: TargetGraph) -> Callable[[list[int], int, int], int]:
    """Compile target t into a test (adj, u, v) -> truthy.

    The test says whether adding edge uv to the class with adjacency adj
    would create a copy of t.  The class is assumed t-free before the
    addition, so only copies through the new edge need checking.
    """
    kind, k = t.kind, t.k
    if kind == tg.PATH3_KIND:
        return lambda adj, u, v: adj[u] or adj[v]
    if kind == tg.STAR:
        d = k - 1
        return lambda adj, u, v: adj[u].bit_count() >= d or adj[v].bit_count() >= d
    if kind == tg.CYCLE4_KIND:

        def c4(adj, u, v):
            # a new 4-cycle is uv plus a path u-a-b-v already in the class
            rest, av = adj[u], adj[v]
            while rest:
                b = rest & -rest
                if adj[b.bit_length() - 1] & av:
                    return True
                rest ^= b
            return False

        return c4
    if kind == tg.CLIQUE and k == 3:
        return lambda adj, u, v: adj[u] & adj[v]
    if kind == tg.CLIQUE and k == 4:

        def k4(adj, u, v):
            # a new K4 is uv plus an edge among the common neighbours
            rest = adj[u] & adj[v]
            while rest:
                b = rest & -rest
                rest ^= b
                if adj[b.bit_length() - 1] & rest:
                    return True
            return False

        return k4
    if kind == tg.CLIQUE:
        need = k - 2
        return lambda adj, u, v: _clique_in(adj, adj[u] & adj[v], need)
    if kind == tg.BOOK:
        pages = k - 1

        def bk(adj, u, v):
            # spine uv: the pages are the common neighbours of u and v
            common = adj[u] & adj[v]
            if common.bit_count() >= k:
                return True
            # page edge uv: the spine is ux (or vx) and v (or u) is its new
            # page, so x lies in N(u) & N(v).  Spine ux had |N(u) & N(x)|
            # pages before and gains v; the class was B_k-free, so the book
            # appears exactly when that count was k-1.  A neighbour x of u
            # outside N(v) gains no page, so no other x can complete a book.
            au, av = adj[u], adj[v]
            while common:
                b = common & -common
                common ^= b
                ax = adj[b.bit_length() - 1]
                if (au & ax).bit_count() >= pages or (av & ax).bit_count() >= pages:
                    return True
            return False

        return bk
    raise ValueError(f"unsupported incremental target {t}")


def _search_edges(
    n: int,
    edge_list: list[tuple[int, int]],
    targets: Sequence[TargetGraph],
    budget: SearchBudget,
    degree_caps: Optional[Sequence[int]] = None,
    split: bool = False,
) -> tuple[str, Optional[list[int]], int]:
    """Core backtracking over a fixed edge list.

    Returns (status, assignment or None, nodes).  The assignment is indexed
    parallel to edge_list.  A node is one color tried on one edge.  With
    split, a search still running after SPLIT_AFTER nodes shares its tree
    with helper processes (see _Split); the result is the same.
    """
    targets = list(targets)
    effective = [_effective_target(t, n) for t in targets]
    # an edgeless target that fits is in every color class
    if any(eff is not None and eff.kind == tg.EMPTY for eff in effective):
        return INFEASIBLE, None, 0
    tree = _Tree(n, edge_list, effective, degree_caps, time.monotonic() + budget.time_limit)
    # color-permutation reduction: on the first edge, only the first color of
    # each group of identical declared targets and degree caps is tried
    groups = targets if degree_caps is None else list(zip(targets, degree_caps))
    first = [i for i, g in enumerate(groups) if groups.index(g) == i]
    if not split:
        return tree.dfs((), iter(first), 0, budget.node_limit)
    splitter = _Split(tree, budget.node_limit)
    try:
        return splitter.walk(*tree.dfs((), iter(first), 0, budget.node_limit,
                                       split_at=SPLIT_AFTER, on_split=splitter.split))
    finally:
        splitter.close()


class _Tree:
    """The fixed part of one search: the edges in search order, one target
    test and degree cap (None: uncapped) per color, and the deadline."""

    def __init__(self, n, edge_list, effective, degree_caps, deadline):
        self.n = n
        self.tests = [
            (_creates_test(eff) if eff is not None else _never,
             None if degree_caps is None else degree_caps[col])
            for col, eff in enumerate(effective)
        ]
        self.edges = [(u, v, 1 << u, 1 << v) for u, v in edge_list]
        self.every = range(len(effective))
        self.deadline = deadline

    def dfs(self, prefix, colors, nodes, node_limit, stop=None, listed=None,
            split_at=_NEVER, on_split=None):
        """The backtracking loop below a fixed prefix of edge colors.

        Tries colors on edge len(prefix), the base depth, and goes on in DFS
        order without backtracking into the prefix.  Returns (status,
        assignment or None, nodes): feasible at the first good coloring,
        infeasible once colors and everything below them have failed, and
        unknown once nodes passes node_limit (at node_limit + 1) or a budget
        check finds the deadline past.  nodes counts on from the value given;
        the budget is checked at each multiple of 4096 and at node_limit + 1.

        With a stop depth, every accepted prefix of that length is appended
        to listed, with the node count at that moment, instead of being
        searched below.  on_split(idx, cursors, assignment, nodes) is called
        once, at the first budget check at or past split_at.
        """
        n, edges, every = self.n, self.edges, self.every
        # one slot per color: its target test, its adjacency rows, its cap
        slots = [(test, [0] * n, cap) for test, cap in self.tests]
        for i, col in enumerate(prefix):
            u, v, bu, bv = edges[i]
            a = slots[col][1]
            a[u] |= bv
            a[v] |= bu
        m = len(edges)
        if stop is None:
            stop = m
        base = idx = len(prefix)
        assignment = [*prefix, *[-1] * (m - base)]
        cursors = []  # cursors[i]: the colors not yet tried on edge base + i
        deadline = self.deadline
        check = min(nodes - nodes % 4096 + 4096, node_limit + 1)
        while True:
            while idx < stop:
                u, v, bu, bv = edges[idx]
                for col in colors:
                    nodes += 1
                    if nodes >= check:
                        if nodes > node_limit or time.monotonic() > deadline:
                            return UNKNOWN, None, nodes
                        check = min(check + 4096, node_limit + 1)
                        if nodes >= split_at:
                            split_at = _NEVER
                            on_split(idx, cursors, assignment, nodes)
                    test, a, cap = slots[col]
                    if cap is not None and (a[u].bit_count() >= cap or a[v].bit_count() >= cap):
                        continue
                    if test(a, u, v):
                        continue
                    a[u] |= bv
                    a[v] |= bu
                    break
                else:
                    # every color failed here: undo the previous edge and resume it
                    if idx == base:
                        return INFEASIBLE, None, nodes
                    idx -= 1
                    colors = cursors.pop()
                    u, v, bu, bv = edges[idx]
                    a = slots[assignment[idx]][1]
                    a[u] ^= bv
                    a[v] ^= bu
                    continue
                assignment[idx] = col
                cursors.append(colors)
                colors = iter(every)
                idx += 1
            if listed is None:
                return FEASIBLE, assignment, nodes
            # list the prefix, then go on as if everything below it had failed
            listed.append((nodes, tuple(assignment[:stop])))
            idx -= 1
            colors = cursors.pop()
            u, v, bu, bv = edges[idx]
            a = slots[assignment[idx]][1]
            a[u] ^= bv
            a[v] ^= bu


class _Split:
    """One search_coloring run shared with helper processes.

    At the first budget check past SPLIT_AFTER nodes the main process keeps
    the subtree of its current path below some depth D and hands out every
    color still untried above D, listed down to prefixes of depth D: the
    items, in DFS order, with the nodes counted between them (the gaps).
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
        self.limits = []  # limits[i]: most nodes items[i] may take within node_limit
        self.queue = None  # read end of the pipe of item indices
        self.pids = []
        self.helpers = {}  # result pipe read end -> bytes received, not yet parsed

    def split(self, idx, cursors, assignment, nodes):
        """The split hook: plan items, empty the cursors above their depth,
        queue the items and start the helpers."""
        import os
        import signal

        helpers = _helper_count()
        if not helpers:
            return
        untried = [list(cursor) for cursor in cursors]
        cursors[:] = map(iter, untried)
        plan = self._plan(idx, untried, assignment)
        if plan is None:
            return
        depth, level, tail = plan
        cursors[:depth] = [iter(())] * depth
        self.items = [prefix for _, prefix in level]
        self.gaps = [gap for gap, _ in level] + [tail]
        before = nodes
        for gap in self.gaps[:-1]:
            before += gap
            self.limits.append(self.node_limit - before)
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

    def _plan(self, idx, untried, assignment):
        """(D, [(gap, prefix)], tail) for the shallowest depth D <= idx that
        gives _ITEMS_WANTED items, or the most under _ITEMS_MAX; None when
        there is nothing to hand out or the deadline passed.

        Level D + 1 lists, in DFS order, the untried colors on edge D, then
        the level-D items, each down to depth D + 1."""
        tree = self.tree
        level, tail, depth = [], 0, 0
        work = 0
        while depth < idx and len(level) < _ITEMS_WANTED and work < _PLAN_WORK:
            sources = [(0, tuple(assignment[:depth]), untried[depth])]
            sources += [(gap, prefix, tree.every) for gap, prefix in level]
            deeper, pending = [], 0
            for gap, prefix, colors in sources:
                pending += gap
                listed = []
                status, _, used = tree.dfs(prefix, iter(colors), 0, _NEVER, depth + 1, listed)
                if status == UNKNOWN:
                    return None
                last = 0
                for count, sub in listed:
                    deeper.append((pending + count - last, sub))
                    pending, last = 0, count
                pending += used - last
                work += used + depth
            if len(deeper) > _ITEMS_MAX:
                break
            level, tail, depth = deeper, pending + tail, depth + 1
        return (depth, level, tail) if level else None

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
        """Run item i on a process's node counter nodes: (status, assignment,
        the item's nodes, the counter after it)."""
        every = self.tree.every
        status, assignment, after = self.tree.dfs(self.items[i], iter(every), nodes, nodes + self.limits[i])
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
    budget = budget or SearchBudget()
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
    edge_list = list(pair_iter(n))
    status, assignment, nodes = _search_edges(n, edge_list, targets, budget, degree_caps, split=True)
    wall = time.monotonic() - start
    # edge_list is the canonical pair order, so assignment is the coloring
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
    pair_targets: tuple[TargetGraph, TargetGraph] = (clique(3), clique(4)),
    budget: Optional[SearchBudget] = None,
) -> SearchOutcome:
    """Can g's non-edges be split into two classes avoiding the pair targets?

    g must be C4-free.  A feasible outcome carries the full 3-colored
    witness (g's edges in color 0, the split in colors 1 and 2), verified
    good for (C4, pair_targets[0], pair_targets[1]).
    """
    if contains_target(g, CYCLE4):
        raise ValueError("input graph contains a C4; partition kernel requires C4-free input")
    budget = budget or SearchBudget()
    start = time.monotonic()
    comp_edges = g.complement().edges()
    status, assignment, nodes = _search_edges(g.n, comp_edges, pair_targets, budget)
    wall = time.monotonic() - start
    witness = None
    if status == FEASIBLE:
        # g's edges in color 0; comp_edges lists the non-edges in pair order
        split = iter(assignment)
        adj = g.adj
        witness = EdgeColoring(
            g.n, 3, [0 if adj[u] >> v & 1 else next(split) + 1 for u, v in pair_iter(g.n)]
        )
    swap = " modulo first-edge color swap" if pair_targets[0] == pair_targets[1] else ""
    return _finished(status, nodes, wall, witness, [CYCLE4, pair_targets[0], pair_targets[1]],
                     "3-colored witness verified", "exhaustive over all non-edge splits" + swap)

