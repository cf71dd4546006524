"""Induced squares, the diagonal graph and the component-of-full-support tests.

One list, ``induced_squares``, serves every square-shaped question: the
diagonal graph has one vertex per diagonal of an induced square and one edge
per square, so it is read off the list in time linear in its length, as
neighbour masks over diagonal indices (a named ``Graph`` is built only when
read); R3 and the commuting graph use the same list.  A graph is CFS when
some component of its diagonal graph has full support (all non-cone
vertices); strongly CFS additionally requires the diagonal graph to be
connected.  Both take its components with ``graphs.reach`` and
``graphs.components``.  Both tests gate the search pipeline; the
dismantling search takes the diagonal graph the CFS gate built
(``CfsReport.diagonal``) and decides each state's strong CFS by restricting
it to the state's vertex mask.  ``DiagonalGraph.strongly_cfs`` is the one
such restriction; ``is_strongly_cfs`` is its whole-graph form.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import cached_property

from .graphs import Graph, bit_list, bits, components, iter_bits, reach

# an induced square as its two diagonals ((a, b), (c, d))
Square = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class DiagonalGraph:
    """Diagonal graph of a host graph.

    ``diagonals`` are sorted host-vertex pairs, in sorted order; ``adj``
    holds the neighbour mask of each, over their indices.  ``host`` keeps
    the reference for support queries and names.
    """

    host: Graph
    diagonals: tuple[tuple[int, int], ...]
    adj: tuple[int, ...]

    @cached_property
    def graph(self) -> Graph:
        """The diagonal graph as a ``Graph`` named "{a,b}" by host display names."""
        names = [f"{{{self.host.names[a]},{self.host.names[b]}}}" for a, b in self.diagonals]
        return Graph(names, self.adj)

    @cached_property
    def _index(self) -> dict[tuple[int, int], int]:
        return {p: i for i, p in enumerate(self.diagonals)}

    def index_of(self, a: int, b: int) -> int | None:
        return self._index.get((a, b) if a < b else (b, a))

    def support_mask(self, diag_indices) -> int:
        m = 0
        for i in diag_indices:
            a, b = self.diagonals[i]
            m |= 1 << a | 1 << b
        return m

    @cached_property
    def through(self) -> list[int]:
        """Per host vertex, the mask of the diagonals with an end at it."""
        out = [0] * self.host.n
        for i, (a, b) in enumerate(self.diagonals):
            out[a] |= 1 << i
            out[b] |= 1 << i
        return out

    def strongly_cfs(self, active: int) -> bool:
        """Is the host restricted to ``active`` strongly CFS?

        A square lies inside ``active`` exactly when both its diagonals do,
        and the induced squares of an induced subgraph are the host's
        squares inside it; so its diagonal graph is this one on the
        diagonals inside ``active`` that keep a neighbour there.  It must
        be non-empty and connected, and its support with the cone
        vertices must cover ``active``.
        """
        inside = (1 << len(self.diagonals)) - 1
        for v in iter_bits(self.host.full_mask & ~active):
            inside &= ~self.through[v]
        adj = self.adj
        nodes = bits(i for i in iter_bits(inside) if adj[i] & inside)
        if not nodes or reach(adj, (nodes & -nodes).bit_length() - 1, inside) != nodes:
            return False
        corners = self.support_mask(iter_bits(nodes))
        return corners == active or corners | _cone(self.host, active) == active


def induced_squares(g: Graph) -> list[Square]:
    """Induced squares of g, each once as its diagonal pair ((a, b), (c, d))
    with a < b, c < d and a < c, so the first pair holds the smallest
    vertex; listed in ascending (a, b, c, d) order."""
    out = []
    for a in range(g.n):
        above = g.full_mask >> (a + 1) << (a + 1)
        for b in iter_bits(above & ~g.adj[a]):
            common = g.adj[a] & g.adj[b] & above
            for c, d in itertools.combinations(bit_list(common), 2):
                if not g.adj[c] >> d & 1:
                    out.append(((a, b), (c, d)))
    return out


def _diagonal_adjacency(squares: list[Square]) -> tuple[list[tuple[int, int]], list[int]]:
    """The diagonals of ``squares`` in sorted order, and the diagonal graph's
    adjacency bitsets over their indices: one edge per square."""
    diags = sorted({pair for square in squares for pair in square})
    index = {pair: i for i, pair in enumerate(diags)}
    adj = [0] * len(diags)
    for p, q in squares:
        i, j = index[p], index[q]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return diags, adj


def _cone(g: Graph, active: int) -> int:
    """Vertices of ``active`` adjacent to every other vertex of it."""
    if active.bit_count() < 2:
        return 0
    return bits(v for v in iter_bits(active) if g.adj[v] & active == active & ~(1 << v))


def diagonal_graph(g: Graph) -> DiagonalGraph:
    """Exact diagonal graph of g."""
    diags, adj = _diagonal_adjacency(induced_squares(g))
    return DiagonalGraph(g, tuple(diags), tuple(adj))


class CfsStatus(enum.Enum):
    NOT_CFS = "NotCFS"
    CFS = "CFS"
    STRONGLY_CFS = "StronglyCFS"


@dataclass(frozen=True)
class CfsReport:
    status: CfsStatus
    diagonal: DiagonalGraph
    witness_component: tuple[int, ...]  # diagonal indices of the full-support component
    diagnostic: str = ""


def cfs_status(g: Graph) -> CfsReport:
    """Classify as NotCFS / CFS / StronglyCFS with the witnessing component.

    Cone vertices (adjacent to everything else) are excluded from the support
    requirement; in connected triangle-free inputs with at least 3 vertices
    they only occur in stars, which therefore report NotCFS with a diagnostic.
    """
    cone = _cone(g, g.full_mask)
    dg = diagonal_graph(g)
    if not dg.diagonals:
        diagnostic = "diagonal graph is empty"
        if cone:
            diagnostic += "; graph has cone vertices (star-like)"
        return CfsReport(CfsStatus.NOT_CFS, dg, (), diagnostic)
    comps = components(dg.adj, (1 << len(dg.adj)) - 1)
    witness = next((tuple(iter_bits(c)) for c in comps
                    if dg.support_mask(iter_bits(c)) | cone == g.full_mask), ())
    if not witness:
        return CfsReport(CfsStatus.NOT_CFS, dg, (), "no component has full support")
    if len(comps) == 1:
        return CfsReport(CfsStatus.STRONGLY_CFS, dg, witness)
    return CfsReport(CfsStatus.CFS, dg, witness, "diagonal graph is disconnected")


def is_strongly_cfs(g: Graph) -> bool:
    """Is g strongly CFS?  ``DiagonalGraph.strongly_cfs`` on the whole
    vertex set."""
    return diagonal_graph(g).strongly_cfs(g.full_mask)
