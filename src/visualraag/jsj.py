"""Cuts, crossing, the graph of cylinders, and split/assemble machinery.

A cut is either a separating pair of non-adjacent vertices or a 2-path cut
triple (a common neighbor c of a non-separating pair {a,b} such that removing
all three disconnects); ``cuts_through`` tests given pairs inside a vertex
mask, ``find_cuts`` every pair.  Crossing is defined within kinds only;
uncrossed cuts give the cylinder vertices of the graph-of-cylinders
decomposition, built for the ``jsj`` command.  The search reads only the
cuts: after its gates no two cross, and a part's usable cuts run through the
host's cut pairs (README, "Why the split needs no guards").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .dl import Lambda
from .graphs import Graph, bit_list, bits, iter_bits


@dataclass(frozen=True)
class Cut:
    """A separating pair or 2-path cut triple with its component masks.

    ``vertices`` is (a, b) for a pair and (a, b, c) for a triple with c the
    common-neighbor midpoint; ``components`` are the connected components of
    the graph minus the cut vertices.
    """

    vertices: tuple[int, ...]
    components: tuple[int, ...]

    @property
    def is_pair(self) -> bool:
        return len(self.vertices) == 2

    @property
    def pair(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[1]

    @property
    def mask(self) -> int:
        return bits(self.vertices)

    def component_of(self, v: int) -> int | None:
        for comp in self.components:
            if comp >> v & 1:
                return comp
        return None


def find_cuts(g: Graph) -> list[Cut]:
    """All cut pairs and 2-path cut triples, each with its components: the
    cuts through every pair.  Assumes an incomplete, triangle-free host with
    no separating clique (the search pipeline validates this upstream)."""
    return cuts_through(g, g.full_mask, itertools.combinations(range(g.n), 2))


def cuts_through(g: Graph, mask: int, pairs: Iterable[tuple[int, int]]) -> list[Cut]:
    """The cuts of the induced subgraph on ``mask`` through ``pairs``, in
    order: a non-adjacent pair inside ``mask`` gives its pair cut when it
    separates ``mask``, else one triple per common neighbor in ``mask`` whose
    removal with the pair separates it.  Components are taken inside ``mask``.
    """
    cuts: list[Cut] = []
    for a, b in pairs:
        if g.adj[a] >> b & 1 or not (mask >> a & 1 and mask >> b & 1):
            continue
        rest = mask & ~(1 << a) & ~(1 << b)
        comps = g.components(rest)
        if len(comps) > 1:
            cuts.append(Cut((a, b), tuple(comps)))
            continue
        for c in iter_bits(g.adj[a] & g.adj[b] & mask):
            comps3 = g.components(rest & ~(1 << c))
            if len(comps3) > 1:
                cuts.append(Cut((a, b, c), tuple(comps3)))
    return cuts


def crosses(g: Graph, k1: Cut, k2: Cut) -> bool:
    """Is k1 crossed by k2?

    Pairs cross pairs (k2 separates k1's vertices); triples cross triples
    (same midpoint, k2 separates k1's defining pair).  Mixed kinds never
    cross.  ``_separates_pair`` rules out a k1 vertex on k2, so crossing
    pairs are disjoint and crossing triples span five vertices.
    """
    if k1.is_pair != k2.is_pair or not k1.is_pair and k1.vertices[2] != k2.vertices[2]:
        return False
    return _separates_pair(k2, k1.vertices[0], k1.vertices[1])


def crossing_pair(g: Graph, cuts: Sequence[Cut]) -> tuple[Cut, Cut] | None:
    for k1, k2 in itertools.permutations(cuts, 2):
        if crosses(g, k1, k2):
            return k1, k2
    return None


def uncrossed_cuts(g: Graph, cuts: Sequence[Cut]) -> list[Cut]:
    return [k for k in cuts if not any(crosses(g, k, other) for other in cuts if other is not k)]


# ------------------------------------------------------------ graph of cylinders


@dataclass(frozen=True)
class GraphOfCylinders:
    """Cylinder vertices (uncrossed-cut pairs with their common neighborhoods),
    rigid vertices (maximal unseparated essential sets of size >= 4), and their
    incidence.  When ``hanging`` is set, some cut is crossed and no further
    structure is computed."""

    host: Graph
    hanging: bool
    crossing_witness: tuple[Cut, Cut] | None
    cylinders: tuple[tuple[tuple[int, int], int], ...]  # (pair, vertex-set mask)
    rigids: tuple[int, ...]                              # vertex-set masks
    edges: tuple[tuple[int, int], ...]                   # (cylinder idx, rigid idx)
    cuts: tuple[Cut, ...]

    def to_json_dict(self) -> dict:
        names = self.host.names
        return {
            "hanging": self.hanging,
            "crossing_witness": [
                [names[v] for v in k.vertices] for k in (self.crossing_witness or ())
            ] or None,
            "cylinders": [
                {"pair": [names[a], names[b]], "vertices": [names[v] for v in iter_bits(m)]}
                for (a, b), m in self.cylinders
            ],
            "rigids": [[names[v] for v in iter_bits(m)] for m in self.rigids],
            "edges": [[c, r] for c, r in self.edges],
        }

    def to_dot(self) -> str:
        names = self.host.names
        lines = ["graph cylinders {"]
        for i, ((a, b), m) in enumerate(self.cylinders):
            label = "{" + names[a] + "," + names[b] + "}"
            lines.append(f'  c{i} [shape=ellipse, label="{label}"];')
        for i, m in enumerate(self.rigids):
            label = ",".join(names[v] for v in iter_bits(m))
            lines.append(f'  r{i} [shape=box, label="{label}"];')
        for ci, ri in self.edges:
            lines.append(f"  c{ci} -- r{ri};")
        lines.append("}")
        return "\n".join(lines)


def _separates_pair(cut: Cut, u: int, w: int) -> bool:
    if cut.mask >> u & 1 or cut.mask >> w & 1:
        return False
    cu, cw = cut.component_of(u), cut.component_of(w)
    return cu is not None and cw is not None and cu != cw


def graph_of_cylinders(g: Graph) -> GraphOfCylinders:
    """Compute the graph-of-cylinders data for a valid host graph.

    Rigid vertices come from the pairwise never-separated relation on
    essential (valence >= 3) vertices: a cut separates a set exactly when it
    separates some pair outside the cut, so the maximal unseparated sets are
    the maximal cliques of that relation, filtered to size >= 4.
    """
    cuts = find_cuts(g)
    witness = crossing_pair(g, cuts)
    if witness is not None:
        return GraphOfCylinders(g, True, witness, (), (), (), tuple(cuts))
    pairs = sorted({(k.vertices[0], k.vertices[1]) for k in cuts})
    cylinders = tuple(
        ((a, b), (1 << a) | (1 << b) | (g.adj[a] & g.adj[b])) for a, b in pairs
    )
    essential = bits(v for v in range(g.n) if g.degree(v) >= 3)
    ev = bit_list(essential)
    compat = {v: 0 for v in ev}
    for u, w in itertools.combinations(ev, 2):
        if not any(_separates_pair(k, u, w) for k in cuts):
            compat[u] |= 1 << w
            compat[w] |= 1 << u
    rigids = tuple(
        sorted(m for m in _max_cliques(compat, essential) if m.bit_count() >= 4)
    )
    edges = []
    for ci, ((a, b), _m) in enumerate(cylinders):
        for ri, bmask in enumerate(rigids):
            if bmask >> a & 1 and bmask >> b & 1:
                edges.append((ci, ri))
    return GraphOfCylinders(g, False, None, cylinders, rigids, tuple(edges), tuple(cuts))


def _max_cliques(adj: dict[int, int], universe: int) -> list[int]:
    """Bron-Kerbosch with pivoting over a bitmask relation graph."""
    out: list[int] = []

    def bk(r: int, p: int, x: int):
        if p == 0 and x == 0:
            out.append(r)
            return
        pux = p | x
        pivot = max(iter_bits(pux), key=lambda v: (adj[v] & p).bit_count())
        for v in iter_bits(p & ~adj[pivot]):
            bk(r | 1 << v, p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    bk(0, universe, 0)
    return out


# ------------------------------------------------------------------- assemble


def assemble_lambdas(
    g: Graph, cut: Cut, parts: list[tuple[Graph, Lambda]]
) -> Lambda:
    """Combine per-part witnesses across an uncrossed cut.

    Each part witness must contain the cut's defining pair as an edge; parts
    are recolored so that pair lands in the red class.  Red trees share
    exactly that edge, so their union is a tree.  Blue trees share the triple
    midpoint (triple case) or get joined by a star on one chosen common
    neighbor per component (pair case).

    In the pair case ``parts`` need not cover every component: the
    single-vertex components are cylinder vertices, never solved as parts.
    The cut edge a-b is always red and the hub star joins one common neighbor
    of every component, so those vertices are covered here; with no parts at
    all (K_{2,m}) the cylinder's own witness is returned.
    """
    a, b = cut.pair
    name_a, name_b = g.names[a], g.names[b]
    red: set[tuple[int, int]] = set()
    blue: set[tuple[int, int]] = set()
    for part_g, part_lam in parts:
        to_host = {v: g.vertex_id(part_g.names[v]) for v in range(part_g.n)}
        pa, pb = part_g.vertex_id(name_a), part_g.vertex_id(name_b)
        key = tuple(sorted((pa, pb)))
        if key in part_lam.red_edges:
            oriented = part_lam
        elif key in part_lam.blue_edges:
            oriented = part_lam.swapped()
        else:
            raise ValueError(
                f"part witness lacks the required edge {name_a}-{name_b}"
            )
        red.update(tuple(sorted((to_host[u], to_host[w]))) for u, w in oriented.red_edges)
        blue.update(tuple(sorted((to_host[u], to_host[w]))) for u, w in oriented.blue_edges)
    if cut.is_pair:
        red.add(tuple(sorted((a, b))))
    if cut.is_pair and len(cut.components) > 1:
        hubs = []
        for comp in cut.components:
            common = g.adj[a] & g.adj[b] & comp
            if not common:
                raise RuntimeError(
                    "internal consistency: a component has no common neighbor "
                    "of the cut pair; the parts were not genuine witnesses"
                )
            hubs.append((common & -common).bit_length() - 1)
        for c in hubs[1:]:
            blue.add(tuple(sorted((hubs[0], c))))
    return Lambda.make(g, red, blue)
