"""Constructors of guaranteed-yes and guaranteed-no instances.

The coning construction grows a verified pair (graph, witness) from the
square one vertex at a time: cone a convex subset of a link to a fresh
vertex and tie the new vertex to the dominating one in the witness.  Every
output admits the grown witness by induction, which makes these generators
the property-test workhorse for the search pipeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .dl import Lambda, is_lambda_convex
from .graphs import Graph, bits, iter_bits, link, reach


@dataclass(frozen=True)
class ConingStep:
    v: int          # dominating vertex, gains the witness edge to x
    cone_set: int   # coned-off subset of the link of v (mask, >= 2 vertices, convex)
    x: int          # the new vertex id in the grown graph


@dataclass(frozen=True)
class ConingSequence:
    base: Graph
    steps: tuple[ConingStep, ...]
    graph: Graph
    lam: Lambda


def base_square() -> tuple[Graph, Lambda]:
    """The square a-c-b-d with its complement (the two diagonals) as witness."""
    g = Graph.from_edges("acbd", [("a", "c"), ("c", "b"), ("b", "d"), ("d", "a")])
    lam = Lambda.from_names(g, [("a", "b")], [("c", "d")])
    return g, lam


def cone_step(
    g: Graph, lam: Lambda, v: int, cone_set: int, name: str | None = None
) -> tuple[Graph, Lambda]:
    """Cone off a convex subset of the link of v to a fresh vertex.

    Preconditions (each rejected with the failed clause): the set lies in the
    link of v, has at least two vertices, and is witness-convex.  The new
    vertex is adjacent to exactly the coned set and becomes a witness leaf
    hanging on v, hence a satellite of v in the result.
    """
    if cone_set & ~link(g, v):
        raise ValueError("cone set is not contained in the link of v")
    if cone_set.bit_count() < 2:
        raise ValueError("cone set needs at least two vertices")
    if not is_lambda_convex(lam, cone_set):
        raise ValueError("cone set is not witness-convex")
    if name is None:
        k = g.n
        while f"x{k}" in g.names:
            k += 1
        name = f"x{k}"
    x = g.n
    adj = [row | (1 << x if cone_set >> u & 1 else 0) for u, row in enumerate(g.adj)]
    adj.append(cone_set)
    g2 = Graph(list(g.names) + [name], adj)
    new_edge = (min(v, x), max(v, x))
    if lam.red_support >> v & 1:
        red, blue = lam.red_edges + (new_edge,), lam.blue_edges
    elif lam.blue_support >> v & 1:
        red, blue = lam.red_edges, lam.blue_edges + (new_edge,)
    else:
        raise ValueError("dominating vertex lies in neither witness class")
    return g2, Lambda.make(g2, red, blue)


MAX_LINK_FOR_ENUMERATION = 12


def _convex_link_subsets(g: Graph, lam: Lambda, v: int) -> list[int]:
    """Witness-convex subsets of lk(v) with at least two vertices.

    The link of a vertex in a verified instance is convex, so its convex
    subsets are exactly the vertex sets of subtrees of the witness forest
    restricted to the link; enumerated by growing connected sets.  A link
    larger than ``MAX_LINK_FOR_ENUMERATION`` is returned whole (cost guard).
    """
    lk = link(g, v)
    if lk.bit_count() > MAX_LINK_FOR_ENUMERATION:
        return [lk]
    adj = lam.adjacency()
    found: set[int] = set()
    frontier: list[int] = []
    for u in iter_bits(lk):
        frontier.append(1 << u)
    seen = set(frontier)
    while frontier:
        s = frontier.pop()
        for u in iter_bits(s):
            for w in iter_bits(adj[u] & lk & ~s):
                t = s | 1 << w
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        if s.bit_count() >= 2:
            found.add(s)
    return sorted(found)


def random_coning(seed: int, steps: int) -> ConingSequence:
    """Grow a verified instance with uniformly random valid coning steps.

    Deterministic for a fixed seed.  Dead ends cannot occur: the full link of
    any vertex is always a valid cone set in a verified instance.
    """
    if steps < 0:
        raise ValueError("coning needs steps >= 0")
    rng = random.Random(seed)
    g, lam = base_square()
    base = g
    out_steps: list[ConingStep] = []
    for _ in range(steps):
        v = rng.randrange(g.n)
        options = _convex_link_subsets(g, lam, v)
        cone_set = options[rng.randrange(len(options))]
        x = g.n
        g, lam = cone_step(g, lam, v, cone_set)
        out_steps.append(ConingStep(v, cone_set, x))
    return ConingSequence(base, tuple(out_steps), g, lam)


# ----------------------------------------------------------------- families


def bicycle_wheel(n: int) -> tuple[Graph, Lambda]:
    """Hub edge x-y, even rim c1,d1,...,cn,dn, spokes c_i-x and d_i-y.

    The witness is the pair of opposite-spoke stars: x to every d_i and y to
    every c_i.
    """
    if n < 3:
        raise ValueError("bicycle wheel needs n >= 3")
    names = ["x", "y"] + [f"{kind}{i}" for i in range(1, n + 1) for kind in ("c", "d")]
    edges = [("x", "y")]
    rim = [f"{kind}{i}" for i in range(1, n + 1) for kind in ("c", "d")]
    for k in range(2 * n):
        edges.append((rim[k], rim[(k + 1) % (2 * n)]))
    for i in range(1, n + 1):
        edges.append((f"c{i}", "x"))
        edges.append((f"d{i}", "y"))
    g = Graph.from_edges(names, edges)
    red = [("x", f"d{i}") for i in range(1, n + 1)]
    blue = [("y", f"c{i}") for i in range(1, n + 1)]
    return g, Lambda.from_names(g, red, blue)


@dataclass(frozen=True)
class LabelledTree:
    """A finite tree with positive integer labels; label 1 only on leaves,
    and a single-edge tree must have both labels greater than 1."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    labels: dict[str, int] = field(hash=False)

    def __post_init__(self):
        n = len(self.vertices)
        if len(self.edges) != n - 1 or n < 2:
            raise ValueError("labelled tree must be a tree with at least one edge")
        index = {v: i for i, v in enumerate(self.vertices)}
        adj = [0] * n
        for a, b in self.edges:
            adj[index[a]] |= 1 << index[b]
            adj[index[b]] |= 1 << index[a]
        if reach(adj, 0, (1 << n) - 1) != (1 << n) - 1:
            raise ValueError("labelled tree is disconnected")
        for v, nbrs in zip(self.vertices, adj):
            lbl = self.labels[v]
            if lbl < 1:
                raise ValueError("labels must be positive")
            if lbl == 1 and nbrs.bit_count() > 1:
                raise ValueError("label 1 is only allowed on leaves")
        if n == 2 and (self.labels[self.vertices[0]] == 1 or self.labels[self.vertices[1]] == 1):
            raise ValueError("a single edge needs both labels greater than 1")


def tree_family(t: LabelledTree) -> Graph:
    """Blow each tree vertex v up into label(v) copies; copies of v and w are
    adjacent exactly when v and w are adjacent in the tree."""
    names = [f"{v}{i}" for v in t.vertices for i in range(t.labels[v])]
    edges = []
    for a, b in t.edges:
        for i in range(t.labels[a]):
            for j in range(t.labels[b]):
                edges.append((f"{a}{i}", f"{b}{j}"))
    return Graph.from_edges(names, edges)


def glue_at_lambda_edge(
    a: tuple[Graph, Lambda], b: tuple[Graph, Lambda],
    edge_a: tuple[int, int] | None = None, edge_b: tuple[int, int] | None = None,
) -> tuple[Graph, tuple[int, int]]:
    """Glue two verified instances by identifying one witness edge of each.

    The identified pair becomes an uncrossed cut pair of the result, which
    makes these gluings the standard split/assemble test instances.  Returns
    the glued graph and the shared pair (ids in the new graph).
    """
    ga, la = a
    gb, lb = b
    edge_a = edge_a or la.edges[0]
    edge_b = edge_b or lb.edges[0]
    pa, qa = edge_a
    pb, qb = edge_b
    names = [f"A_{nm}" for nm in ga.names]
    names[pa] = "p"
    names[qa] = "q"
    edges = [(names[u], names[w]) for u, w in ga.edges()]
    bmap = {}
    for v, nm in enumerate(gb.names):
        if v == pb:
            bmap[v] = "p"
        elif v == qb:
            bmap[v] = "q"
        else:
            bmap[v] = f"B_{nm}"
            names.append(bmap[v])
    edges += [(bmap[u], bmap[w]) for u, w in gb.edges()]
    g = Graph.from_edges(names, edges)
    return g, (g.vertex_id("p"), g.vertex_id("q"))


def cube_with_diagonal_coning() -> ConingSequence:
    """An explicit coning sequence growing the 3-cube-with-space-diagonal
    (the n=3 bicycle wheel) from a square; the grown witness is the pair of
    opposite-spoke stars."""
    g = Graph.from_edges(
        ["x", "y", "d2", "c3"],
        [("x", "y"), ("y", "d2"), ("d2", "c3"), ("c3", "x")],
    )
    lam = Lambda.from_names(g, [("x", "d2")], [("y", "c3")])
    base = g
    steps = []
    plan = [
        ("x", ("y", "c3"), "d3"),
        ("y", ("x", "d2"), "c2"),
        ("y", ("x", "d3"), "c1"),
        ("x", ("y", "c1", "c2"), "d1"),
    ]
    for v_name, cone_names, new_name in plan:
        v = g.vertex_id(v_name)
        cone = bits(g.vertex_id(nm) for nm in cone_names)
        x = g.n
        g, lam = cone_step(g, lam, v, cone, name=new_name)
        steps.append(ConingStep(v, cone, x))
    return ConingSequence(base, tuple(steps), g, lam)


# ------------------------------------------------------------------ fixtures


@dataclass(frozen=True)
class Fixture:
    graph: Graph
    lam: Lambda | None = None
    expect_search: str | None = None   # "yes" / "no" / "refused"
    expect_verify: bool | None = None
    note: str = ""


def ordermatters_graph() -> Graph:
    """The 7-vertex instance whose dismantling order decides feasibility."""
    return Graph.from_int_edges(
        7,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1), (0, 3), (2, 5), (5, 0), (0, 6), (6, 4)],
    )


def mixed_tree_instance() -> tuple[Graph, Lambda]:
    """Blow-up of the labelled path a:1, b:4, c:3, d:2 with its drawn witness."""
    t = LabelledTree(("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "d")),
                     {"a": 1, "b": 4, "c": 3, "d": 2})
    g = tree_family(t)
    lam = Lambda.from_names(
        g,
        red=[("c0", "c1"), ("c1", "c2"), ("a0", "c0")],
        blue=[("b0", "b1"), ("b1", "b2"), ("b2", "b3"), ("d0", "d1"), ("b0", "d0")],
    )
    return g, lam


def fixtures() -> dict[str, Fixture]:
    """Named instances used across the test suite and docs."""
    out: dict[str, Fixture] = {}
    sq, sq_lam = base_square()
    out["square"] = Fixture(sq, sq_lam, expect_search="yes", expect_verify=True)
    for n in range(3, 7):
        g, lam = bicycle_wheel(n)
        out[f"wheel{n}"] = Fixture(g, lam, expect_search="yes", expect_verify=True)
    coning = cube_with_diagonal_coning()
    out["cube_with_diagonal"] = Fixture(
        coning.graph, coning.lam, expect_search="yes", expect_verify=True,
        note="isomorphic to wheel3; witness grown by an explicit coning sequence",
    )
    om = ordermatters_graph()
    out["ordermatters"] = Fixture(om, expect_search="yes")
    candidates = {
        "a": ([(1, 3), (1, 5), (1, 6)], [(0, 2), (2, 4)], False),
        "b": ([(1, 3), (1, 5), (3, 6)], [(0, 2), (2, 4)], False),
        "c": ([(1, 3), (1, 5), (1, 6)], [(0, 2), (0, 4)], True),
        "d": ([(1, 3), (1, 5), (3, 6)], [(0, 2), (0, 4)], True),
    }
    for key, (red, blue, ok) in candidates.items():
        out[f"potential_lambda_{key}"] = Fixture(
            om, Lambda.make(om, red, blue), expect_verify=ok,
            expect_search="yes" if ok else None,
        )
    mg, mlam = mixed_tree_instance()
    out["mixed_tree"] = Fixture(mg, mlam, expect_search="yes", expect_verify=True)
    hexagon = Graph.from_int_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    out["hexagon"] = Fixture(hexagon, expect_search="no", note="not CFS")
    c8 = Graph.from_int_edges(8, [(i, (i + 1) % 8) for i in range(8)])
    out["c8"] = Fixture(c8, expect_search="no", note="chordless long cycle; crossing cuts")
    k23 = Graph.from_edges(
        ["a", "b", "c", "d", "e"],
        [(p, m) for p in ("a", "b") for m in ("c", "d", "e")],
    )
    out["k23"] = Fixture(k23, expect_search="yes")
    w1 = bicycle_wheel(3)
    w2 = bicycle_wheel(3)
    glued, _pair = glue_at_lambda_edge(w1, w2, (w1[0].vertex_id("x"), w1[0].vertex_id("d1")),
                                       (w2[0].vertex_id("x"), w2[0].vertex_id("d1")))
    out["glued_wheels"] = Fixture(glued, expect_search="yes",
                                  note="two wheels sharing an uncrossed cut pair")
    out["glued_trees_triple"] = Fixture(_glued_trees_triple(), expect_search="yes",
                                        note="two tree blow-ups sharing a 2-path cut triple")
    return out


def _glued_trees_triple() -> Graph:
    """Two copies of the mixed-tree instance glued along the 2-path b0-c0-d0,
    creating a 2-path cut triple {b0, d0; c0}."""
    g, _lam = mixed_tree_instance()
    shared = {"b0", "c0", "d0"}
    names = [nm if nm in shared else f"A_{nm}" for nm in g.names]
    rename_a = dict(zip(g.names, names))
    edges = [(rename_a[g.names[u]], rename_a[g.names[w]]) for u, w in g.edges()]
    rename_b = {nm: (nm if nm in shared else f"B_{nm}") for nm in g.names}
    for nm, new in rename_b.items():
        if new not in names:
            names.append(new)
    edges += [(rename_b[g.names[u]], rename_b[g.names[w]]) for u, w in g.edges()]
    return Graph.from_edges(names, edges)
