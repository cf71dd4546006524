"""Shared helpers for the test suite.

networkx is used throughout the tests as an independent cross-validation
oracle (connectivity, bipartiteness, isomorphism, graph6); the package under
test never imports it.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import networkx as nx
import pytest

from visualraag.dl import Lambda
from visualraag.generators import bicycle_wheel, glue_at_lambda_edge
from visualraag.graphs import Graph, bit_list, bits


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def from_networkx(h: nx.Graph) -> Graph:
    nodes = sorted(h.nodes())
    pos = {v: i for i, v in enumerate(nodes)}
    return Graph.from_int_edges(len(nodes), [(pos[u], pos[w]) for u, w in h.edges()])


def cycle_graph(n: int) -> Graph:
    return Graph.from_int_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_int_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_int_edges(n, list(itertools.combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_int_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def square() -> Graph:
    """The 4-cycle a-c-b-d with diagonals {a,b} and {c,d}."""
    return Graph.from_edges("acbd", [("a", "c"), ("c", "b"), ("b", "d"), ("d", "a")])


def wheel_glued_to_square() -> tuple[Graph, tuple[int, int]]:
    """The n=3 bicycle wheel glued to a square along a witness edge {p,q}.

    Removing the cut pair {p,q} leaves the rest of the wheel (one component
    of six vertices) and the square's two other corners, each a
    single-vertex component that is a common neighbor of p and q.
    """
    sq = square()
    sq_lam = Lambda.from_names(sq, [("a", "b")], [("c", "d")])
    return glue_at_lambda_edge(bicycle_wheel(3), (sq, sq_lam), None, sq_lam.red_edges[0])


def glued32() -> Graph:
    """A 32-vertex "no" graph that splits: the ``RigidPartFailed`` fixture
    ``IM_hoBFpO`` glued at its non-edge {0, 7} to a 20-step coning graph at
    one of its witness edges.  It passes the preconditions and both gates;
    with the required pair (23, 30), the vertices B_x15 and B_x22 of another
    witness edge, whole-graph ``relative_search`` is exponential on it."""
    from visualraag.generators import random_coning
    from visualraag.graphs import from_graph6

    c = random_coning(1, 20)
    g, _ = glue_at_lambda_edge((from_graph6("IM_hoBFpO"), None), (c.graph, c.lam), (0, 7),
                               c.lam.edges[0])
    return g


def sweep_graphs() -> list[Graph]:
    """Every qualifying graph on at most 8 vertices (the committed sweep)."""
    from visualraag.graphs import from_graph6

    path = Path(__file__).parent / "data" / "connected_tf_nosep_le8.g6"
    return [from_graph6(line) for line in path.read_text().split()]


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_int_edges(n, edges)


def random_triangle_free(rng: random.Random, n: int, tries: int = 3 * 10**3) -> Graph:
    """Random maximal-ish triangle-free graph by edge insertion with rejection."""
    adj = [0] * n
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    budget = rng.randint(n, max(n, n * (n - 1) // 3))
    added = 0
    for i, j in pairs:
        if added >= budget:
            break
        if adj[i] & adj[j]:
            continue
        if rng.random() < 0.7:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            added += 1
    return Graph([str(i) for i in range(n)], adj)


def brute_force_induced_cycles(g: Graph) -> set[frozenset[int]]:
    """Vertex sets of chordless cycles, by checking every vertex subset."""
    out = set()
    for r in range(3, g.n + 1):
        for subset in itertools.combinations(range(g.n), r):
            sub = bits(subset)
            if all(bin(g.adj[v] & sub).count("1") == 2 for v in subset) and g.is_connected_mask(sub):
                out.add(frozenset(subset))
    return out


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
