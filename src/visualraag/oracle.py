"""Brute-force ground truth: enumerate every admissible witness and test it.

For a bipartite host the tree conditions are equivalent to picking one
spanning tree of the complement inside each color class, so the oracle
enumerates all tree pairs and checks the two join conditions directly, with
the mask-level ``r3_violation`` and ``r4_violation`` that ``verify_fidl``
also runs; a failing pair is never named.  Its value is simplicity.  Two
shortcuts keep it literal: the bipartiteness reduction, and a per-tree
square filter that skips only pairs R3 rejects (see ``_tested_pairs``).
The expected enumeration size is pre-computed with the matrix-tree theorem
so explosive instances fail fast as budget refusals instead of hanging.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterator

from .dl import (
    HullOracle,
    Lambda,
    induced_squares,
    precondition_failures,
    r3_violation,
    r4_violation,
    verified,
)
from .dismantle import Budget, BudgetExceeded, Verdict, record_stage
from .graphs import (
    Graph,
    NotBipartiteError,
    bipartition,
    bit_list,
    bits,
    induced_cycles,
    reach,
)


@dataclass(frozen=True)
class OracleLimits:
    max_tree_pairs: int = 2_000_000
    seconds: float | None = None


def spanning_tree_count(n: int, edges: list[tuple[int, int]]) -> int:
    """Number of spanning trees, by the matrix-tree theorem: the determinant
    of a reduced Laplacian, by Bareiss's fraction-free elimination (1968).

    Every division is exact (Sylvester's identity), so all entries stay
    integers; row swaps only flip the sign, which the absolute value drops.
    """
    if n == 0:
        return 0
    if n == 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for u, w in edges:
        lap[u][u] += 1
        lap[w][w] += 1
        lap[u][w] -= 1
        lap[w][u] -= 1
    m = [row[:-1] for row in lap[:-1]]
    size = n - 1
    prev = 1
    for k in range(size):
        pivot = next((r for r in range(k, size) if m[r][k]), None)
        if pivot is None:
            return 0
        m[k], m[pivot] = m[pivot], m[k]
        for r in range(k + 1, size):
            for c in range(k + 1, size):
                m[r][c] = (m[r][c] * m[k][k] - m[r][k] * m[k][c]) // prev
        prev = m[k][k]
    return abs(prev)


def spanning_trees(n: int, edges: list[tuple[int, int]]) -> Iterator[frozenset[tuple[int, int]]]:
    """All spanning trees by recursive edge contraction/deletion.

    Vertices are merged with a union-find map; parallel edges after
    contraction stay distinct because they remember their original pair.
    Deletion branches are pruned when the deleted edge is a bridge.
    """
    if n == 0:
        return
    if n == 1:
        yield frozenset()
        return

    def rec(live: list[tuple[tuple[int, int], int, int]], nverts: int, chosen: list[tuple[int, int]]):
        if nverts == 1:
            yield frozenset(chosen)
            return
        if not live:
            return
        (orig, u, w) = live[0]
        # contract u-w: relabel w to u, drop self-loops
        contracted = []
        for o, a, b in live[1:]:
            a2 = u if a == w else a
            b2 = u if b == w else b
            if a2 != b2:
                contracted.append((o, a2, b2))
        yield from rec(contracted, nverts - 1, chosen + [orig])
        # delete u-w: only if the remainder still connects
        rest = live[1:]
        if _connected(rest, nverts):
            yield from rec(rest, nverts, chosen)

    live = [((u, w), u, w) for u, w in edges]
    yield from rec(live, n, [])


def _connected(live: list[tuple[tuple[int, int], int, int]], nverts: int) -> bool:
    if nverts <= 1:
        return True
    adj: dict[int, int] = {}
    for _o, a, b in live:
        adj[a] = adj.get(a, 0) | 1 << b
        adj[b] = adj.get(b, 0) | 1 << a
    if len(adj) < nverts:
        return False
    verts = bits(adj)
    return reach(adj, next(iter(adj)), verts) == verts


def _tested_pairs(
    g: Graph, limits: OracleLimits, timings: dict
) -> Verdict | tuple[int, float, Iterator[tuple[int, tuple, tuple, bool]]]:
    """The one loop of ``naive_search`` and ``count_all_fidl``.

    Runs the preconditions (stage ``preconditions`` of ``timings``) and the
    enumeration gates: the host is bipartite, and the tree pairs number at
    most ``limits.max_tree_pairs``.  There is always at least one pair: a
    graph passing the preconditions is connected (else the empty clique
    separates it) and has an edge (else it has at most one vertex and counts
    as complete), so both colour classes are non-empty independent sets; the
    complement is complete on each, so each has a spanning tree.  Returns
    the verdict of the first gate that decides, or the number of tree pairs,
    the start of the ``oracle`` stage and a generator that checks the budget
    once per tree and once per judged pair, and yields (index, red edges,
    blue edges, passed) for each judged pair; index is the pair's 1-based
    place in the unfiltered red-major order, and passed means
    ``r3_violation`` and then ``r4_violation`` find nothing.

    The square filter is exact.  Take an induced square with diagonals
    {a,b} in one class and {c,d} in the other.  A pair's hull of {a,b} is
    the class tree's path a..b, and its hull of {c,d} holds c and d, so R3
    puts that path inside lk c & lk d whatever the other tree is.  A tree
    failing this for some square passes with no partner, so its pairs go
    unjudged; every other pair is judged literally, so the passing pairs,
    their order and the first one's index are the unfiltered loop's.  The
    blue pool of edge tuples is built whole before the first pair; a blue
    tree's hull oracle and verdict are built on first use and kept by pool
    index, and a red tree is judged as it is walked, a rejected one
    skipping its row.
    """
    t0 = time.perf_counter()
    fails = precondition_failures(g)
    t0 = record_stage(timings, "preconditions", t0)
    if fails:
        return Verdict.refusal(fails, timings)
    try:
        col = bipartition(g)
    except NotBipartiteError as err:
        return Verdict("no", "oracle", reason="NotBipartite",
                       detail={"odd_walk": [g.names[v] for v in err.odd_walk]},
                       timings_ms=timings)
    total = math.prod(spanning_tree_count(m, list(itertools.combinations(range(m), 2)))
                      for m in (col.red.bit_count(), col.blue.bit_count()))
    if total > limits.max_tree_pairs:
        return Verdict("budget_exceeded", "oracle", reason="BudgetExceeded",
                       detail={"tree_pairs": total, "cap": limits.max_tree_pairs},
                       timings_ms=timings)
    squares = induced_squares(g)
    cycles = list(induced_cycles(g))
    budget = Budget.from_seconds(limits.seconds)
    # R3 on a square puts the class tree's path a..b inside lk c & lk d
    needs = {cls: [(1 << a | 1 << b, g.adj[c] & g.adj[d]) for p, q in squares
                   for (a, b), (c, d) in ((p, q), (q, p)) if cls >> a & 1] for cls in (col.red, col.blue)}

    def trees(cls: int) -> Iterator[tuple]:
        # the class is independent in the host: its complement is complete
        verts = bit_list(cls)
        m = len(verts)
        for t in spanning_trees(m, list(itertools.combinations(range(m), 2))):
            budget.check()
            yield tuple((verts[a], verts[b]) for a, b in t)

    def judged(cls: int, edges: tuple) -> Callable[[int], int] | None:
        # a hull oracle reads only the forest, so the tree's colour is moot
        hull = HullOracle(Lambda(g, edges, ())).hull
        return None if any(hull(s) & ~ok for s, ok in needs[cls]) else hull

    def pairs() -> Iterator[tuple[int, tuple, tuple, bool]]:
        blue_pool = list(trees(col.blue))
        blue_judged = cache(lambda j: judged(col.blue, blue_pool[j]))
        for i, red in enumerate(trees(col.red)):
            red_hull = judged(col.red, red)
            for j in range(len(blue_pool)) if red_hull else ():
                blue_hull = blue_judged(j)
                if blue_hull:
                    budget.check()
                    hull = lambda m: m | red_hull(m & col.red) | blue_hull(m & col.blue)
                    yield i * len(blue_pool) + j + 1, red, blue_pool[j], (
                        r3_violation(g, squares, hull) is None and r4_violation(g, cycles, hull) is None)

    return total, t0, pairs()


def naive_search(g: Graph, limits: OracleLimits = OracleLimits()) -> Verdict:
    """Enumerate and test all two-tree witnesses; first pass wins.

    Budget exhaustion is its own outcome, never conflated with a refutation.
    """
    timings: dict = {}
    setup = _tested_pairs(g, limits, timings)
    if isinstance(setup, Verdict):
        return setup
    total, t0, pairs = setup
    tested = 0
    try:
        for tested, red, blue, passed in pairs:
            if passed:
                lam = Lambda.make(g, red, blue)
                report = verified(g, lam)
                record_stage(timings, "oracle", t0)
                return Verdict("yes", "oracle", lam=lam, report=report, timings_ms=timings,
                               detail={"tested": tested, "tree_pairs": total})
    except BudgetExceeded:
        return Verdict("budget_exceeded", "oracle", reason="BudgetExceeded",
                       detail={"tested": tested, "tree_pairs": total}, timings_ms=timings)
    record_stage(timings, "oracle", t0)
    return Verdict("no", "oracle", reason="NoFidlLambda",
                   detail={"tested": total, "tree_pairs": total}, timings_ms=timings)


def count_all_fidl(g: Graph) -> tuple[int, list[Lambda]] | Verdict:
    """All passing witnesses, canonicalized (sorted edges, classes anchored so
    the class containing vertex 0 comes first), under the default
    ``OracleLimits``: no deadline, and a verdict past the tree-pair cap."""
    setup = _tested_pairs(g, OracleLimits(), {})
    if isinstance(setup, Verdict):
        if setup.reason == "NotBipartite":
            return 0, []
        return setup
    _total, _t0, pairs = setup
    found = [canonical_lambda(Lambda.make(g, red, blue)) for _, red, blue, passed in pairs if passed]
    found.sort(key=lambda lam: (lam.red_edges, lam.blue_edges))
    return len(found), found


def canonical_lambda(lam: Lambda) -> Lambda:
    """Anchor the class containing vertex 0 as red."""
    if lam.blue_support & 1:
        return lam.swapped()
    return lam
