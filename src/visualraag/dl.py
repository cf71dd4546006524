"""Dani-Levcovitz certificate verification.

A candidate witness is a two-forest subgraph of the complement: red edges on
one bipartition class, blue edges on the other.  This module builds the
combined edge-tagged graph, computes hulls inside the forests, and checks the
subgroup conditions R1-R4 and the index condition F1 in their simplified
two-component triangle-free form.  The remaining index condition is implied
by R2 and F1 in this setting and is never checked separately.

Each join condition has one mask-level check, ``r3_violation`` and
``r4_violation``, given any hull function; ``verify_fidl`` runs them through
``check_r3``/``check_r4``, and the brute-force oracle runs them on every tree
pair.  Verification is pure; every failure carries a concrete witness so
reports are machine-checkable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .graphs import (
    Graph,
    NotBipartiteError,
    bfs_forest,
    bipartition,
    bits,
    find_edge_cycle,
    has_separating_clique,
    induced_cycles,
    is_incomplete,
    is_triangle_free,
    iter_bits,
    reach,
)
from .squares import DiagonalGraph, Square, diagonal_graph, induced_squares


def _norm_edge(e: Iterable[int]) -> tuple[int, int]:
    a, b = sorted(e)
    if a == b:
        raise ValueError(f"degenerate edge ({a},{b})")
    return (a, b)


@dataclass(frozen=True)
class Lambda:
    """Two-component candidate subgraph of the complement of the host graph.

    ``red_edges`` and ``blue_edges`` are sorted tuples of sorted vertex-id
    pairs.  Invariants enforced at construction: every edge joins vertices
    that are non-adjacent in the host, and the red and blue vertex supports
    are disjoint.
    """

    host: Graph
    red_edges: tuple[tuple[int, int], ...]
    blue_edges: tuple[tuple[int, int], ...]

    @classmethod
    def make(cls, host: Graph, red: Iterable[Iterable[int]], blue: Iterable[Iterable[int]]) -> "Lambda":
        red_t = tuple(sorted({_norm_edge(e) for e in red}))
        blue_t = tuple(sorted({_norm_edge(e) for e in blue}))
        for a, b in red_t + blue_t:
            if host.has_edge(a, b):
                raise ValueError(
                    f"edge {host.names[a]}-{host.names[b]} is not in the complement"
                )
        lam = cls(host, red_t, blue_t)
        if lam.red_support & lam.blue_support:
            raise ValueError("red and blue supports intersect")
        return lam

    @classmethod
    def from_names(cls, host: Graph, red: Iterable[Sequence[str]], blue: Iterable[Sequence[str]]) -> "Lambda":
        conv = lambda pairs: [(host.vertex_id(a), host.vertex_id(b)) for a, b in pairs]
        return cls.make(host, conv(red), conv(blue))

    @classmethod
    def from_json_dict(cls, host: Graph, data: dict) -> "Lambda":
        try:
            return cls.from_names(host, data.get("red", []), data.get("blue", []))
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"malformed witness JSON: {exc}") from exc

    @property
    def red_support(self) -> int:
        return bits(v for e in self.red_edges for v in e)

    @property
    def blue_support(self) -> int:
        return bits(v for e in self.blue_edges for v in e)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self.red_edges + self.blue_edges

    def swapped(self) -> "Lambda":
        return Lambda(self.host, self.blue_edges, self.red_edges)

    def adjacency(self) -> list[int]:
        """Adjacency bitmasks of the union forest (both colors)."""
        adj = [0] * self.host.n
        for a, b in self.edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return adj

    def to_json_dict(self) -> dict:
        names = self.host.names
        return {
            "red": [[names[a], names[b]] for a, b in self.red_edges],
            "blue": [[names[a], names[b]] for a, b in self.blue_edges],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)


# ----------------------------------------------------------------- hulls


class HullOracle:
    """Hull computations for one witness, with memoized queries; the oracle
    passes each spanning tree it pairs as a one-colour witness.

    The forest is rooted once by ``graphs.bfs_forest`` (parent and depth
    per vertex, ``comp`` the root of each); the hull of a set is the union,
    per forest component, of the tree paths from each member to the first
    member, computed by depth-aligned upward walks.
    """

    __slots__ = ("parent", "depth", "comp", "_memo")

    def __init__(self, lam: "Lambda"):
        parent, self.depth, order = bfs_forest(lam.adjacency())
        comp = [0] * len(parent)
        for v in order:
            comp[v] = v if parent[v] < 0 else comp[parent[v]]
        self.parent, self.comp = parent, comp
        self._memo: dict[int, int] = {}

    def _path_mask(self, u: int, w: int) -> int:
        mask = 0
        du, dw = self.depth[u], self.depth[w]
        parent = self.parent
        while du > dw:
            mask |= 1 << u
            u = parent[u]
            du -= 1
        while dw > du:
            mask |= 1 << w
            w = parent[w]
            dw -= 1
        while u != w:
            mask |= 1 << u | 1 << w
            u = parent[u]
            w = parent[w]
        return mask | 1 << u

    def hull(self, smask: int) -> int:
        got = self._memo.get(smask)
        if got is not None:
            return got
        hull = smask
        groups: dict[int, list[int]] = {}
        for v in iter_bits(smask):
            groups.setdefault(self.comp[v], []).append(v)
        for vs in groups.values():
            if len(vs) >= 2:
                r = vs[0]
                for v in vs[1:]:
                    hull |= self._path_mask(v, r)
        self._memo[smask] = hull
        return hull


def lambda_hull(lam: Lambda, s: Iterable[int] | int) -> int:
    """Vertex set of the convex hull of ``s`` inside the witness forest.

    Computed per color and per forest component: vertices of ``s`` in one
    component contribute the minimal subtree containing them; vertices in no
    component map to themselves.  Requires each color class to be a forest
    (condition R1); results are unspecified otherwise.
    """
    return HullOracle(lam).hull(s if isinstance(s, int) else bits(s))


def is_lambda_convex(lam: Lambda, s: Iterable[int] | int) -> bool:
    smask = s if isinstance(s, int) else bits(s)
    return lambda_hull(lam, smask) == smask


# ------------------------------------------------------------- conditions


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    witness: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "witness": self.witness}


@dataclass(frozen=True)
class DLReport:
    precondition_failures: tuple[str, ...]
    results: tuple[ConditionResult, ...]

    @property
    def passed(self) -> bool:
        return not self.precondition_failures and all(r.passed for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "pass": self.passed,
            "precondition_failures": list(self.precondition_failures),
            "conditions": [r.to_json_dict() for r in self.results],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)


def _names(g: Graph, mask_or_seq) -> list[str]:
    if isinstance(mask_or_seq, int):
        return [g.names[v] for v in iter_bits(mask_or_seq)]
    return [g.names[v] for v in mask_or_seq]


def _tree_failure(g: Graph, edges: tuple[tuple[int, int], ...], label: str) -> dict | None:
    """None when the edge set is a tree on its support, else a witness."""
    if not edges:
        return {"component": label, "reason": "no edges"}
    nbrs = [0] * g.n
    support = 0
    for a, b in edges:
        nbrs[a] |= 1 << b
        nbrs[b] |= 1 << a
        support |= 1 << a | 1 << b
    if reach(nbrs, edges[0][0], support) != support:
        return {"component": label, "reason": "disconnected"}
    if len(edges) != support.bit_count() - 1:
        adj: dict[int, set[int]] = {}
        for a, b in edges:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        return {"component": label, "cycle": _names(g, find_edge_cycle(adj))}
    return None


def check_r1_r2_f1(g: Graph, lam: Lambda) -> list[ConditionResult]:
    """Literal checks of R1 (forests are trees), R2 (induced in the combined
    graph) and F1 (witness spans the host), plus the coloring consistency they
    jointly require: the two supports must be the classes of a proper
    2-coloring, each class spanned by its tree.
    """
    results: list[ConditionResult] = []
    r1_witness = _tree_failure(g, lam.red_edges, "red") or _tree_failure(g, lam.blue_edges, "blue")
    results.append(ConditionResult("R1", r1_witness is None, r1_witness or {}))

    # R2: each component induced in the combined graph.  Host edges inside one
    # support are the only possible violations, since within-class witness
    # edges belong to that class by construction.
    r2_witness: dict = {}
    for label, sup in (("red", lam.red_support), ("blue", lam.blue_support)):
        for v in iter_bits(sup):
            bad = g.adj[v] & sup
            if bad:
                w = (bad & -bad).bit_length() - 1
                r2_witness = {
                    "component": label,
                    "host_edge_inside_class": [g.names[v], g.names[w]],
                }
                break
        if r2_witness:
            break
    results.append(ConditionResult("R2", not r2_witness, r2_witness))

    # F1: the witness spans the host graph.
    missing = g.full_mask & ~(lam.red_support | lam.blue_support)
    results.append(
        ConditionResult("F1", missing == 0, {"unspanned": _names(g, missing)} if missing else {})
    )

    # coloring consistency: host must be bipartite and the supports must be
    # (contained in) opposite classes of a proper coloring
    try:
        col = bipartition(g)
    except NotBipartiteError as err:
        results.append(
            ConditionResult("coloring", False, {"odd_walk": _names(g, err.odd_walk)})
        )
        return results
    mismatch: dict = {}
    for a, b in lam.edges:
        if not col.same_class(a, b):
            mismatch = {"edge_across_classes": [g.names[a], g.names[b]]}
            break
    results.append(ConditionResult("coloring", not mismatch, mismatch))
    return results


def r3_violation(
    g: Graph, squares: Iterable[Square], hull: Callable[[int], int]
) -> tuple[Square, int, int] | None:
    """R3: for every induced square, the join of the two diagonal hulls must
    lie in the host graph.

    ``hull`` maps a vertex mask to its hull mask.  Returns the first
    violation as (square, v, w), where v-w is the missing join edge, or None.
    """
    for square in squares:
        (a, b), (c, d) = square
        hull1 = hull(1 << a | 1 << b)
        hull2 = hull(1 << c | 1 << d)
        for v in iter_bits(hull1):
            missing = hull2 & ~g.adj[v]
            if missing:
                return square, v, (missing & -missing).bit_length() - 1
    return None


def r4_violation(
    g: Graph, cycles: Iterable[Sequence[int]], hull: Callable[[int], int]
) -> tuple[Sequence[int], int, int] | None:
    """R4: every edge of every induced cycle must sit in an induced square
    whose opposite corners lie in the hull of the cycle.

    ``hull`` maps a vertex mask to its hull mask.  Returns the first
    violation as (cycle, a, b), where a-b is the edge with no hull square,
    or None.

    Checking induced cycles only is sufficient: a shortest violating cycle
    can be cut along any chord into shorter cycles covering its edges.
    Induced squares are skipped, as they cannot fail: on a square a-b-c-d
    the edge a-b sits in the square itself, whose opposite corners c and d
    lie in the cycle, hence in its hull.  So the first failing cycle, and
    the report, are those of the full check.
    """
    for cyc in cycles:
        if len(cyc) == 4:
            continue
        cyc_hull = hull(bits(cyc))
        closed = list(cyc) + [cyc[0]]
        for i in range(len(cyc)):
            a, b = closed[i], closed[i + 1]
            if not _edge_in_hull_square(g, a, b, cyc_hull):
                return cyc, a, b
    return None


def check_r3(g: Graph, lam: Lambda, hulls: HullOracle | None = None) -> ConditionResult:
    """``r3_violation`` on every induced square of ``g``, its witness named."""
    bad = r3_violation(g, induced_squares(g), (hulls or HullOracle(lam)).hull)
    if bad is None:
        return ConditionResult("R3", True)
    square, v, w = bad
    return ConditionResult("R3", False, {"square": [_names(g, pair) for pair in square],
                                         "missing_edge": [g.names[v], g.names[w]]})


def check_r4(g: Graph, lam: Lambda, hulls: HullOracle | None = None) -> ConditionResult:
    """``r4_violation`` on every induced cycle of ``g``, its witness named."""
    bad = r4_violation(g, induced_cycles(g), (hulls or HullOracle(lam)).hull)
    if bad is None:
        return ConditionResult("R4", True)
    cyc, a, b = bad
    return ConditionResult(
        "R4", False, {"cycle": _names(g, cyc), "edge": [g.names[a], g.names[b]]}
    )


def _edge_in_hull_square(g: Graph, a: int, b: int, hull: int) -> bool:
    """Is there an induced square {a,a'}*{b,b'} with a',b' in ``hull``?"""
    for a2 in iter_bits(hull & g.adj[b] & ~g.adj[a] & ~(1 << a)):
        if g.adj[a2] & hull & g.adj[a] & ~g.adj[b] & ~(1 << b):
            return True
    return False


def precondition_failures(g: Graph) -> list[str]:
    fails = []
    if not is_incomplete(g):
        fails.append("graph is complete")
    if not is_triangle_free(g):
        fails.append("graph has a triangle")
    if has_separating_clique(g):
        fails.append("graph has a separating clique")
    return fails


def verify_fidl(g: Graph, lam: Lambda) -> DLReport:
    """Full certificate check: preconditions, then R1/R2/F1, then R3 and R4.

    R3 and R4 are only meaningful once the tree conditions hold, so they are
    skipped (reported as failed with a note) when the first block fails.
    """
    pre = tuple(precondition_failures(g))
    results = check_r1_r2_f1(g, lam)
    if all(r.passed for r in results):
        hulls = HullOracle(lam)
        results.append(check_r3(g, lam, hulls=hulls))
        results.append(check_r4(g, lam, hulls=hulls))
    else:
        skipped = {"skipped": "R1/R2/F1 failed"}
        results.append(ConditionResult("R3", False, skipped))
        results.append(ConditionResult("R4", False, skipped))
    return DLReport(pre, tuple(results))


def verified(g: Graph, lam: Lambda) -> DLReport:
    """``verify_fidl``'s report on a witness a search answers "yes" with;
    raises AssertionError when it fails, since a search built it."""
    report = verify_fidl(g, lam)
    if not report.passed:
        raise AssertionError("internal consistency: witness failed verification: "
                             + report.to_json())
    return report


# --------------------------------------------------------- commuting graph


@dataclass(frozen=True)
class CommutingGraph:
    """One vertex per witness edge; adjacency when two edges span an induced
    square of the host.  ``embedding[i]`` is the index of edge i's diagonal in
    the host diagonal graph (None when the edge is not a diagonal)."""

    host: Graph
    lam: Lambda
    graph: Graph
    embedding: tuple[int | None, ...]
    diagonal: DiagonalGraph

    @property
    def n(self) -> int:
        return self.graph.n

    def to_json_dict(self) -> dict:
        names = self.host.names
        return {
            "vertices": [[names[a], names[b]] for a, b in self.lam.edges],
            "edges": [[i, j] for i, j in self.graph.edges()],
        }


def commuting_graph(g: Graph, lam: Lambda) -> CommutingGraph:
    """Two witness edges commute exactly when they are the two diagonals of
    an induced square, that is, adjacent diagonals in the diagonal graph."""
    edges = lam.edges
    dg = diagonal_graph(g)
    embedding = tuple(dg.index_of(a, b) for a, b in edges)
    at = {d: i for i, d in enumerate(embedding) if d is not None}
    adj = [0] * len(edges)
    for i, d in enumerate(embedding):
        if d is not None:
            adj[i] = bits(at[e] for e in iter_bits(dg.adj[d]) if e in at)
    names = [f"{g.names[a]}{g.names[b]}" for a, b in edges]
    return CommutingGraph(g, lam, Graph(names, adj), embedding, dg)
