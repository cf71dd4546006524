import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visualraag.graphs import (
    Graph,
    NotBipartiteError,
    bfs_forest,
    bipartition,
    bit_list,
    bits,
    cliques,
    components,
    dominator,
    from_graph6,
    from_json,
    has_separating_clique,
    induced_cycles,
    is_incomplete,
    is_triangle_free,
    link,
    n_chords,
    reach,
    to_graph6,
    to_json,
)

from conftest import (
    brute_force_induced_cycles,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    from_networkx,
    path_graph,
    random_graph,
    random_triangle_free,
    square,
    sweep_graphs,
    to_networkx,
)


def wheel3() -> Graph:
    from visualraag.generators import bicycle_wheel

    return bicycle_wheel(3)[0]


# ---------------------------------------------------------------------- link


def test_link_wheel_hub():
    g = wheel3()
    x = g.vertex_id("x")
    assert {g.names[v] for v in bit_list(link(g, x))} == {"y", "c1", "c2", "c3"}


def test_link_isolated_and_square():
    g = Graph.from_edges(["a"], [])
    assert link(g, 0) == 0
    s = square()
    assert {s.names[v] for v in bit_list(link(s, s.vertex_id("a")))} == {"c", "d"}


def test_link_unknown_vertex():
    with pytest.raises(KeyError):
        link(square(), 17)


# ------------------------------------------------------------ triangle-free


def test_triangle_free_examples():
    assert is_triangle_free(wheel3())
    assert not is_triangle_free(complete_graph(3))
    assert is_triangle_free(Graph([], []))


@given(st.integers(1, 8), st.floats(0, 1))
@settings(max_examples=60)
def test_triangle_free_matches_triple_scan(n, p):
    g = random_graph(random.Random(n * 77 + int(p * 99)), n, p)
    brute = not any(
        g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        for a, b, c in itertools.combinations(range(g.n), 3)
    )
    assert is_triangle_free(g) == brute


# -------------------------------------------------------------- incomplete


def test_incomplete_examples():
    assert is_incomplete(square())
    assert not is_incomplete(complete_graph(4))
    assert not is_incomplete(Graph(["v"], [0]))
    assert not is_incomplete(Graph([], []))


# ---------------------------------------------------- separating cliques


def test_separating_clique_examples():
    two_edges = Graph.from_int_edges(4, [(0, 1), (2, 3)])
    assert has_separating_clique(two_edges)  # disconnected: empty clique
    assert not has_separating_clique(square())
    assert has_separating_clique(path_graph(3))  # cut vertex


def _brute_separating(g: Graph) -> bool:
    for r in range(g.n + 1):
        for c in itertools.combinations(range(g.n), r):
            cm = bits(c)
            if any(not g.has_edge(u, w) for u, w in itertools.combinations(c, 2)):
                continue
            if len(g.components(g.full_mask & ~cm)) > 1:
                return True
    return False


@given(st.integers(1, 8), st.floats(0, 1))
@settings(max_examples=60)
def test_separating_clique_matches_all_subsets(n, p):
    g = random_graph(random.Random(n * 131 + int(p * 997)), n, p)
    assert has_separating_clique(g) == _brute_separating(g)


def test_cliques_of_triangle_free_are_small():
    g = wheel3()
    for c in cliques(g):
        assert c.bit_count() <= 2


# ---------------------------------------------------------------- bipartition


def test_bipartition_square():
    g = square()
    col = bipartition(g)
    names = {g.names[v] for v in bit_list(col.red)}
    assert names == {"a", "b"}  # vertex 0 anchored red


def test_bipartition_c5_witness():
    with pytest.raises(NotBipartiteError) as err:
        bipartition(cycle_graph(5))
    walk = err.value.odd_walk
    assert len(walk) % 2 == 1 or len(walk) >= 3  # odd closed walk, endpoints meet
    # evidence must be a closed odd walk in the graph
    g = cycle_graph(5)
    closed = walk + [walk[0]]
    assert all(g.has_edge(closed[i], closed[i + 1]) for i in range(len(closed) - 1))
    assert len(walk) % 2 == 1


def test_bipartition_wheel_parts():
    g = wheel3()
    col = bipartition(g)
    red = {g.names[v] for v in bit_list(col.red)}
    assert red == {"x", "d1", "d2", "d3"}
    blue = {g.names[v] for v in bit_list(col.blue)}
    assert blue == {"y", "c1", "c2", "c3"}


@given(st.integers(2, 9))
@settings(max_examples=40)
def test_bipartition_proper_when_it_succeeds(n):
    g = random_triangle_free(random.Random(n * 3), n)
    try:
        col = bipartition(g)
    except NotBipartiteError:
        assert not nx.is_bipartite(to_networkx(g))
        return
    assert nx.is_bipartite(to_networkx(g))
    for u, w in g.edges():
        assert not col.same_class(u, w)


# ----------------------------------------------------------------- satellites


def test_satellites_k23_twins():
    g = complete_bipartite(2, 3)
    assert dominator(g, 0) == 1
    assert dominator(g, 1) == 0
    assert dominator(g, 2) == 3
    assert dominator(g, 3) == 2
    assert dominator(g, 4) == 2


def test_satellites_square_diagonal():
    g = square()  # order a,c,b,d
    a, b = g.vertex_id("a"), g.vertex_id("b")
    assert dominator(g, a) == b and dominator(g, b) == a


@given(st.integers(2, 8))
@settings(max_examples=40)
def test_satellites_match_double_loop(n):
    """``dominator`` is the lowest w != v with lk v inside lk w."""
    g = random_triangle_free(random.Random(n * 17 + 5), n)
    for v in range(g.n):
        doms = [w for w in range(g.n) if w != v and not g.adj[v] & ~g.adj[w]]
        assert dominator(g, v) == (doms[0] if doms else None)


# -------------------------------------------------------------- induced cycles


def test_induced_cycles_square():
    cycles = list(induced_cycles(square()))
    assert len(cycles) == 1 and len(cycles[0]) == 4


def test_induced_cycles_wheel_contains_rim():
    g = wheel3()
    rim = frozenset(g.vertex_id(v) for v in ["c1", "d1", "c2", "d2", "c3", "d3"])
    found = {frozenset(c) for c in induced_cycles(g)}
    assert rim in found


def test_induced_cycles_tree_empty():
    assert list(induced_cycles(path_graph(6))) == []


@given(st.integers(3, 8), st.floats(0.1, 0.9))
@settings(max_examples=50, deadline=None)
def test_induced_cycles_match_brute_force(n, p):
    g = random_graph(random.Random(n * 13 + int(p * 100)), n, p)
    got = [tuple(c) for c in induced_cycles(g)]
    # every yielded sequence is a cycle with no 1-chord, yielded exactly once
    as_sets = [frozenset(c) for c in got]
    assert len(set(as_sets)) == len(as_sets)
    for cyc in got:
        closed = list(cyc) + [cyc[0]]
        assert all(g.has_edge(closed[i], closed[i + 1]) for i in range(len(cyc)))
        assert n_chords(g, list(cyc), 1) == []
    assert set(as_sets) == brute_force_induced_cycles(g)


# ------------------------------------------------------------------- n-chords


def test_no_chords_possible_on_square():
    g = square()
    cyc = [g.vertex_id(v) for v in "acbd"]
    assert n_chords(g, cyc, 1) == []
    assert n_chords(g, cyc, 2) == []


def test_wheel_rim_has_no_short_chords():
    g = wheel3()
    rim = [g.vertex_id(v) for v in ["c1", "d1", "c2", "d2", "c3", "d3"]]
    assert n_chords(g, rim, 1) == []
    assert n_chords(g, rim, 2) == []


def test_two_chord_across_octagon():
    # C_8 plus one long diagonal u0-u4 plus midpoint m adjacent to u0 and u4
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (0, 8), (8, 4)]
    g = Graph.from_int_edges(9, edges)
    cyc = list(range(8))
    assert (0, 4) in n_chords(g, cyc, 1)
    assert (0, 8, 4) in n_chords(g, cyc, 2)


# -------------------------------------------------------------- serialization


def test_json_round_trip():
    g = wheel3()
    assert from_json(to_json(g)) == g


def test_json_parse_error():
    with pytest.raises(ValueError):
        from_json('{"vertices": ["a"]}')


@pytest.mark.parametrize("text", [
    '{"vertices": ["a", "b"], "edges": [["a", "z"]]}',
    '{"vertices": [["a"]], "edges": []}',
    '{"vertices": ["a"], "edges": [[["a"], "a"]]}',
], ids=["unknown_vertex", "unhashable_vertex", "unhashable_endpoint"])
def test_json_bad_vertex_is_a_value_error(text):
    with pytest.raises(ValueError, match="malformed graph JSON"):
        from_json(text)


def test_graph6_known_values():
    # cross-checked against networkx: the 5-cycle encodes as "Dhc"
    assert to_graph6(cycle_graph(5)) == "Dhc"
    g = from_graph6("Dhc")
    assert g.edge_count() == 5
    assert all(g.degree(v) == 2 for v in range(5))


@given(st.integers(1, 12), st.floats(0, 1))
@settings(max_examples=80)
def test_graph6_round_trip_and_networkx_agreement(n, p):
    g = random_graph(random.Random(n * 7 + int(p * 31)), n, p)
    s = to_graph6(g)
    back = from_graph6(s)
    assert back.adj == g.adj
    via_nx = nx.from_graph6_bytes(s.encode("ascii"))
    assert set(via_nx.edges()) == set(g.edges()) or {
        tuple(sorted(e)) for e in via_nx.edges()
    } == set(g.edges())
    assert nx.to_graph6_bytes(to_networkx(g), header=False).strip().decode() == s


def test_graph6_header_accepted():
    g = from_graph6(">>graph6<<DQc")
    assert g.n == 5


def test_find_edge_cycle():
    from visualraag.graphs import find_edge_cycle

    tree = {0: {1, 2}, 1: {0}, 2: {0, 3}, 3: {2}}
    assert find_edge_cycle(tree) is None
    assert find_edge_cycle({}) is None
    square = {0: {1, 3}, 1: {0, 2}, 2: {1, 3}, 3: {2, 0}, 4: {5}, 5: {4}}
    cycle = find_edge_cycle(square)
    assert sorted(cycle) == [0, 1, 2, 3]
    assert all(cycle[i - 1] in square[cycle[i]] for i in range(len(cycle)))


# ------------------------------------------- separating cliques on a vertex mask


def test_separating_clique_on_mask_matches_subgraph_sweep():
    for g in sweep_graphs():
        for mask in range(1 << g.n):
            assert has_separating_clique(g, mask) == has_separating_clique(g.subgraph(mask))


def test_separating_clique_on_mask_matches_subgraph_with_triangles():
    rng = random.Random(4242)
    triangles = 0
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 7), rng.choice((0.3, 0.5, 0.7)))
        triangles += not is_triangle_free(g)
        for mask in range(1 << g.n):
            sub = g.subgraph(mask)
            assert has_separating_clique(g, mask) == has_separating_clique(sub)
            assert sorted(c.bit_count() for c in cliques(g, mask)) == sorted(
                c.bit_count() for c in cliques(sub))
    assert triangles >= 10


def test_dominator_lemma_on_sweep():
    """If M has no separating clique and w dominates x in M, every separating
    clique of M - x contains w: testing only the cliques through w decides."""
    triples = 0
    for g in sweep_graphs():
        for mask in range(1, 1 << g.n):
            if has_separating_clique(g, mask):
                continue
            for x in bit_list(mask):
                rest = mask & ~(1 << x)
                full = has_separating_clique(g, rest)
                for w in bit_list(rest):
                    if g.adj[x] & mask & ~g.adj[w]:
                        continue
                    triples += 1
                    assert has_separating_clique(g, rest, through=w) == full
    assert triples == 11196  # (mask, satellite, dominator) triples of the sweep


# ------------------------------------------------------------ the one walk


def test_reach_and_components_match_networkx_on_random_masks():
    rng = random.Random(0x5EED)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 12), rng.choice((0.1, 0.25, 0.5)))
        active = rng.getrandbits(g.n)
        h = to_networkx(g).subgraph(bit_list(active))
        want = sorted(bits(c) for c in nx.connected_components(h))
        assert sorted(components(list(g.adj), active)) == want
        assert g.components(active) == components(g.adj, active)
        for v in bit_list(active):
            assert reach(g.adj, v, active) == bits(nx.node_connected_component(h, v))
        assert g.is_connected_mask(active) == (len(want) <= 1)


def test_bfs_forest_on_a_disconnected_graph():
    # 0-3, 0-4, 3-1, 4-1 (1 is reached from 3, queued before 4), 2-5, and 6 alone
    g = Graph.from_int_edges(7, [(0, 3), (0, 4), (3, 1), (4, 1), (2, 5)])
    parent, depth, order = bfs_forest(g.adj)
    assert order == [0, 3, 4, 1, 2, 5, 6]
    assert parent == [-1, 3, -1, 0, 0, 2, -1]
    assert depth == [0, 2, 0, 1, 1, 1, 0]


@given(st.integers(1, 12), st.floats(0, 1))
@settings(max_examples=80)
def test_bfs_forest_roots_and_tree_edges(n, p):
    g = random_graph(random.Random(int(p * 1000) + n), n, p)
    parent, depth, order = bfs_forest(g.adj)
    assert sorted(order) == list(range(n))
    lowest = {v: (c & -c).bit_length() - 1 for c in components(g.adj, g.full_mask)
              for v in bit_list(c)}
    nxg = to_networkx(g)
    for w in range(n):
        root = w
        while parent[root] >= 0:
            root = parent[root]
        assert root == lowest[w]
        assert depth[w] == nx.shortest_path_length(nxg, root, w)
        if parent[w] >= 0:
            assert g.has_edge(w, parent[w])
            assert depth[w] == depth[parent[w]] + 1
        else:
            assert w == root and depth[w] == 0
