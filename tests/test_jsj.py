import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visualraag.dl import Lambda, precondition_failures, verify_fidl
from visualraag.dismantle import relative_search
from visualraag.graphs import bits, bit_list, has_separating_clique, iter_bits, reach
from visualraag.jsj import (
    Cut,
    assemble_lambdas,
    crosses,
    find_cuts,
    graph_of_cylinders,
    uncrossed_cuts,
)
from visualraag.generators import bicycle_wheel, fixtures, glue_at_lambda_edge, random_coning

from conftest import (
    complete_bipartite,
    cycle_graph,
    random_triangle_free,
    square,
    sweep_graphs,
    wheel_glued_to_square,
)


def test_square_diagonals_are_cut_pairs():
    g = square()
    cuts = find_cuts(g)
    pairs = {tuple(sorted(k.vertices)) for k in cuts if k.is_pair}
    a, b = g.vertex_id("a"), g.vertex_id("b")
    c, d = g.vertex_id("c"), g.vertex_id("d")
    assert pairs == {tuple(sorted((a, b))), tuple(sorted((c, d)))}


def test_k23_cut_structure():
    g = complete_bipartite(2, 3)
    cuts = find_cuts(g)
    pair_cuts = [k for k in cuts if k.is_pair]
    assert len(pair_cuts) == 1
    assert pair_cuts[0].vertices == (0, 1)
    assert len(pair_cuts[0].components) == 3
    assert all(not k.is_pair is False or True for k in cuts)


def test_wheel_has_no_cuts():
    g, _ = bicycle_wheel(3)
    assert find_cuts(g) == []


def test_cut_invariants_reverified():
    for name in ("ordermatters", "glued_wheels", "glued_trees_triple", "k23"):
        g = fixtures()[name].graph
        for cut in find_cuts(g):
            rest = g.full_mask & ~cut.mask
            comps = g.components(rest)
            assert len(comps) > 1
            assert set(comps) == set(cut.components)
            if not cut.is_pair:
                a, b, c = cut.vertices
                assert g.has_edge(a, c) and g.has_edge(b, c)
                assert not g.has_edge(a, b)
                # the pair alone does not separate
                assert len(g.components(g.full_mask & ~bits((a, b)))) == 1
            # every component contains a neighbor of each cut vertex
            for comp in cut.components:
                for v in cut.vertices:
                    assert g.adj[v] & comp


def test_crossing_on_hexagon_and_square():
    g6 = cycle_graph(6)
    cuts = find_cuts(g6)
    k03 = next(k for k in cuts if set(k.vertices) == {0, 3})
    k14 = next(k for k in cuts if set(k.vertices) == {1, 4})
    assert crosses(g6, k03, k14)
    assert crosses(g6, k14, k03)
    sq = square()
    kab, kcd = find_cuts(sq)
    assert crosses(sq, kab, kcd) and crosses(sq, kcd, kab)


def test_cuts_sharing_a_vertex_do_not_cross():
    g = cycle_graph(6)
    cuts = find_cuts(g)
    k02 = next(k for k in cuts if set(k.vertices) == {0, 2})
    k04 = next(k for k in cuts if set(k.vertices) == {0, 4})
    assert not crosses(g, k02, k04)


@given(st.integers(5, 9))
@settings(max_examples=40, deadline=None)
def test_pair_crossing_symmetric(n):
    # symmetry is expected only under the pipeline preconditions (in
    # particular no separating clique); arbitrary graphs can be asymmetric
    from visualraag.dl import precondition_failures

    g = random_triangle_free(random.Random(n * 7 + 2), n)
    if precondition_failures(g):
        return
    cuts = [k for k in find_cuts(g) if k.is_pair]
    for k1, k2 in itertools.combinations(cuts, 2):
        assert crosses(g, k1, k2) == crosses(g, k2, k1)


# ------------------------------------------------------------ graph of cylinders


def test_no_cut_graph_single_rigid():
    g, _ = bicycle_wheel(3)
    goc = graph_of_cylinders(g)
    assert not goc.hanging
    assert goc.cylinders == ()
    assert len(goc.rigids) == 1
    assert goc.rigids[0] == g.full_mask  # every wheel vertex is essential


def test_glued_wheels_two_rigids_one_cylinder():
    g = fixtures()["glued_wheels"].graph
    goc = graph_of_cylinders(g)
    assert not goc.hanging
    assert len(goc.cylinders) == 1
    assert len(goc.rigids) == 2
    assert len(goc.edges) == 2
    # the cylinder and both rigids form a tree
    nc, k = len(goc.cylinders), len(goc.cylinders) + len(goc.rigids)
    adj = [0] * k
    for ci, ri in goc.edges:
        adj[ci] |= 1 << (nc + ri)
        adj[nc + ri] |= 1 << ci
    assert reach(adj, 0, (1 << k) - 1) == (1 << k) - 1 and len(goc.edges) == k - 1
    (pair, cyl_mask), = goc.cylinders
    p, q = g.vertex_id("p"), g.vertex_id("q")
    assert set(pair) == {p, q}
    # cylinder vertex set is the pair plus its common neighbors
    assert cyl_mask == bits((p, q)) | (g.adj[p] & g.adj[q])


def test_crossing_graph_reports_hanging():
    goc = graph_of_cylinders(cycle_graph(8))
    assert goc.hanging
    assert goc.crossing_witness is not None
    assert goc.cylinders == () and goc.rigids == ()


def test_rigid_sets_match_subset_enumeration():
    for name in ("glued_wheels", "glued_trees_triple", "ordermatters"):
        g = fixtures()[name].graph
        goc = graph_of_cylinders(g)
        if goc.hanging:
            continue
        cuts = find_cuts(g)
        essential = [v for v in range(g.n) if g.degree(v) >= 3]

        def separated(bset):
            for cut in cuts:
                outside = [v for v in bset if not cut.mask >> v & 1]
                comps = {cut.component_of(v) for v in outside}
                if len(comps) > 1:
                    return True
            return False

        unsep = [
            frozenset(c)
            for r in range(4, len(essential) + 1)
            for c in itertools.combinations(essential, r)
            if not separated(c)
        ]
        maximal = {
            b for b in unsep if not any(b < other for other in unsep)
        }
        assert {frozenset(bit_list(m)) for m in goc.rigids} == maximal


# ------------------------------------------------------------ split / assemble


def _parts(g, cut):
    """One induced part per component of ``cut``: the component with the cut."""
    return [g.subgraph(comp | cut.mask) for comp in cut.components]


def test_split_k23_gives_three_paths():
    g = complete_bipartite(2, 3)
    cut = next(k for k in find_cuts(g) if k.is_pair)
    parts = _parts(g, cut)
    assert len(parts) == 3
    assert all(p.n == 3 and p.edge_count() == 2 for p in parts)


def test_split_glued_wheels_gives_wheels():
    g = fixtures()["glued_wheels"].graph
    cut = next(k for k in find_cuts(g) if k.is_pair)
    parts = _parts(g, cut)
    assert len(parts) == 2
    assert all(p.n == 8 and p.edge_count() == 13 for p in parts)


def test_split_triple_midpoint_everywhere():
    g = fixtures()["glued_trees_triple"].graph
    cut = next(k for k in find_cuts(g) if not k.is_pair)
    parts = _parts(g, cut)
    hub = g.names[cut.vertices[2]]
    assert all(hub in p.names for p in parts)


def test_assemble_round_trip_pair_case():
    g = fixtures()["glued_wheels"].graph
    cut = next(k for k in find_cuts(g) if k.is_pair)
    parts = _parts(g, cut)
    solved = []
    for part in parts:
        a = part.vertex_id(g.names[cut.vertices[0]])
        b = part.vertex_id(g.names[cut.vertices[1]])
        verdict = relative_search(part, [(a, b)])
        assert verdict.is_yes
        solved.append((part, verdict.lam))
    lam = assemble_lambdas(g, cut, solved)
    assert verify_fidl(g, lam).passed


def test_assemble_round_trip_triple_case():
    g = fixtures()["glued_trees_triple"].graph
    cut = next(k for k in find_cuts(g) if not k.is_pair)
    parts = _parts(g, cut)
    solved = []
    for part in parts:
        a = part.vertex_id(g.names[cut.vertices[0]])
        b = part.vertex_id(g.names[cut.vertices[1]])
        verdict = relative_search(part, [(a, b)])
        assert verdict.is_yes
        solved.append((part, verdict.lam))
    lam = assemble_lambdas(g, cut, solved)
    assert verify_fidl(g, lam).passed


def test_assemble_covers_k23_cylinder_without_parts():
    # every component of K_{2,3} minus the cut pair is a single common
    # neighbor: the cylinder alone carries the witness
    g = complete_bipartite(2, 3)
    cut = next(k for k in find_cuts(g) if k.is_pair)
    a, b = cut.pair
    lam = assemble_lambdas(g, cut, [])
    assert lam.red_edges == ((a, b),)
    assert lam.blue_support == g.adj[a] & g.adj[b]
    assert verify_fidl(g, lam).passed


def test_assemble_one_part_with_common_neighbor_singletons():
    g, (p, q) = wheel_glued_to_square()
    cut = next(k for k in find_cuts(g) if set(k.vertices) == {p, q})
    sizes = sorted(comp.bit_count() for comp in cut.components)
    assert sizes[-1] >= 2 and sizes[-2] == 1
    solved = []
    for comp, part in zip(cut.components, _parts(g, cut)):
        if comp.bit_count() == 1:
            continue
        verdict = relative_search(part, [(part.vertex_id("p"), part.vertex_id("q"))])
        assert verdict.is_yes
        solved.append((part, verdict.lam))
    assert len(solved) == 1
    lam = assemble_lambdas(g, cut, solved)
    assert verify_fidl(g, lam).passed


def test_assemble_single_part_identity():
    g, lam = bicycle_wheel(3)
    fake_cut = Cut((g.vertex_id("x"), g.vertex_id("d1")), (g.full_mask,))
    out = assemble_lambdas(g, fake_cut, [(g, lam)])
    assert set(out.edges) == set(lam.edges)


def test_assemble_rejects_missing_edge():
    # a genuine part witness always contains the cut edge (that is the
    # convexity lemma), so hand-build a defective one lacking it
    g = fixtures()["glued_wheels"].graph
    cut = next(k for k in find_cuts(g) if k.is_pair)
    parts = _parts(g, cut)
    part = parts[0]
    verdict = relative_search(part, [])
    assert verdict.is_yes
    a = part.vertex_id(g.names[cut.vertices[0]])
    b = part.vertex_id(g.names[cut.vertices[1]])
    key = tuple(sorted((a, b)))
    assert key in set(verdict.lam.edges)  # the convexity lemma in action
    defective = Lambda.make(
        part,
        [e for e in verdict.lam.red_edges if e != key],
        [e for e in verdict.lam.blue_edges if e != key],
    )
    with pytest.raises(ValueError):
        assemble_lambdas(g, cut, [(part, defective)] * 2)


def test_goc_json_and_dot():
    g = fixtures()["glued_wheels"].graph
    goc = graph_of_cylinders(g)
    data = goc.to_json_dict()
    assert data["hanging"] is False
    assert len(data["cylinders"]) == 1
    dot = goc.to_dot()
    assert "ellipse" in dot and "box" in dot


def _glued_instances(count: int):
    """The gluings of acceptance criterion 8: two random conings glued along
    a witness edge each, kept when they pass the search preconditions."""
    rng = random.Random(0xA55E)
    out = []
    while len(out) < count:
        s1 = random_coning(seed=rng.randrange(2**32), steps=rng.randint(1, 7))
        s2 = random_coning(seed=rng.randrange(2**32), steps=rng.randint(1, 7))
        e1 = s1.lam.edges[rng.randrange(len(s1.lam.edges))]
        e2 = s2.lam.edges[rng.randrange(len(s2.lam.edges))]
        g, _pair = glue_at_lambda_edge((s1.graph, s1.lam), (s2.graph, s2.lam), e1, e2)
        if not precondition_failures(g):
            out.append(g)
    return out


def test_part_preconditions_reduce_to_separating_clique_on_masks():
    # the search judges a part by has_separating_clique on its vertex mask:
    # the part holds the cut's non-adjacent pair and is an induced subgraph
    # of a triangle-free graph, so no other precondition can fail
    checked = 0
    for g in sweep_graphs() + _glued_instances(100):
        cuts = find_cuts(g)
        for cut in uncrossed_cuts(g, cuts):
            for comp in cut.components:
                if comp.bit_count() < 2:
                    continue
                part = comp | cut.mask
                assert has_separating_clique(g, part) == bool(
                    precondition_failures(g.subgraph(part))
                ), (g.names, cut.vertices, comp)
                checked += 1
    assert checked > 100
