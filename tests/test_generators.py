import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visualraag.dl import verify_fidl
from visualraag.dismantle import global_search
from visualraag.graphs import (
    bipartition,
    bits,
    has_separating_clique,
    is_incomplete,
    is_triangle_free,
    link,
)
from visualraag.generators import (
    LabelledTree,
    base_square,
    bicycle_wheel,
    cone_step,
    cube_with_diagonal_coning,
    fixtures,
    glue_at_lambda_edge,
    mixed_tree_instance,
    ordermatters_graph,
    random_coning,
    tree_family,
)


# ----------------------------------------------------------------- cone_step


def test_first_cone_step_gives_k23_shape():
    g, lam = base_square()
    a = g.vertex_id("a")
    g2, lam2 = cone_step(g, lam, a, link(g, a))
    assert g2.n == 5 and g2.edge_count() == 6
    new_edge = tuple(sorted((a, 4)))
    assert new_edge in set(lam2.edges)
    # the new vertex is a satellite of a
    from visualraag.graphs import dominator

    assert dominator(g2, 4) is not None


def test_cone_step_rejections():
    g, lam = base_square()
    a, b = g.vertex_id("a"), g.vertex_id("b")
    c = g.vertex_id("c")
    with pytest.raises(ValueError, match="link"):
        cone_step(g, lam, a, bits((b, c)))  # b is not a neighbor of a
    with pytest.raises(ValueError, match="two"):
        cone_step(g, lam, a, bits((c,)))
    g2, lam2 = cone_step(g, lam, a, link(g, a))
    # after the step, lk(c) = {a, b, x}; the pair {a, x} is witness-convex
    # but {a, b} is not (their witness geodesic passes nothing? a-b IS an edge)
    # build a genuinely non-convex example instead: cone c's link minus midpoint
    g3, lam3 = cone_step(g2, lam2, g2.vertex_id("c"), link(g2, g2.vertex_id("c")))
    x2 = g3.n - 1
    lk_b = link(g3, g3.vertex_id("b"))
    # {c, d} hull inside the witness passes through a or x handles; find a
    # non-convex pair directly
    from visualraag.dl import is_lambda_convex

    non_convex = None
    for v in range(g3.n):
        lk = link(g3, v)
        for sub in range(1, 1 << g3.n):
            if sub & ~lk or bin(sub).count("1") < 2:
                continue
            if not is_lambda_convex(lam3, sub):
                non_convex = (v, sub)
                break
        if non_convex:
            break
    if non_convex is None:
        pytest.skip("no non-convex link subset in this small instance")
    v, sub = non_convex
    with pytest.raises(ValueError, match="convex"):
        cone_step(g3, lam3, v, sub)


def test_cone_step_preserves_gates():
    g, lam = base_square()
    rng = random.Random(5)
    for _ in range(12):
        v = rng.randrange(g.n)
        g, lam = cone_step(g, lam, v, link(g, v))
        assert is_incomplete(g) and is_triangle_free(g)
        assert not has_separating_clique(g)
        assert verify_fidl(g, lam).passed


# ------------------------------------------------------------- random coning


def test_random_coning_zero_steps_is_square():
    seq = random_coning(seed=1, steps=0)
    g, lam = base_square()
    assert seq.graph == g and set(seq.lam.edges) == set(lam.edges)


def test_random_coning_deterministic():
    a = random_coning(seed=42, steps=15)
    b = random_coning(seed=42, steps=15)
    assert a.graph == b.graph
    assert a.lam == b.lam
    c = random_coning(seed=43, steps=15)
    assert a.graph != c.graph or a.lam != c.lam


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_random_coning_always_verifies(seed):
    seq = random_coning(seed, steps=seed % 13)
    assert verify_fidl(seq.graph, seq.lam).passed


def test_random_coning_50_steps():
    seq = random_coning(seed=7, steps=50)
    assert seq.graph.n == 54
    assert verify_fidl(seq.graph, seq.lam).passed


# ------------------------------------------------------------------ families


def test_wheel_structure():
    g, lam = bicycle_wheel(4)
    assert g.n == 10 and g.edge_count() == 1 + 8 + 8
    assert is_triangle_free(g)
    col = bipartition(g)
    assert col.same_class(g.vertex_id("x"), g.vertex_id("d1"))
    assert verify_fidl(g, lam).passed


def test_wheel_rejects_small_n():
    with pytest.raises(ValueError):
        bicycle_wheel(2)


def test_tree_family_figure_instance():
    g, lam = mixed_tree_instance()
    assert g.n == 10
    assert g.edge_count() == 4 + 12 + 6
    assert is_triangle_free(g)
    try:
        bipartition(g)
    except Exception as exc:  # pragma: no cover
        raise AssertionError("blow-up of a tree must be bipartite") from exc


def test_tree_family_single_edge_both_2_is_square():
    t = LabelledTree(("u", "v"), (("u", "v"),), {"u": 2, "v": 2})
    g = tree_family(t)
    assert g.n == 4 and g.edge_count() == 4
    assert all(g.degree(v) == 2 for v in range(4))


def test_labelled_tree_invariants():
    with pytest.raises(ValueError):
        LabelledTree(("u", "v"), (("u", "v"),), {"u": 1, "v": 3})
    with pytest.raises(ValueError):
        LabelledTree(("u", "v", "w"), (("u", "v"), ("v", "w")), {"u": 2, "v": 1, "w": 2})
    with pytest.raises(ValueError):
        LabelledTree(("u", "v", "w"), (("u", "v"),), {"u": 2, "v": 2, "w": 2})


@given(st.integers(0, 10**5))
@settings(max_examples=20, deadline=None)
def test_tree_family_blowups_solve(seed):
    rng = random.Random(seed)
    n_tree = rng.randint(2, 4)
    verts = tuple(f"t{i}" for i in range(n_tree))
    edges = tuple((verts[rng.randrange(i)], verts[i]) for i in range(1, n_tree))
    labels = {}
    deg = {v: 0 for v in verts}
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    budget = 12
    for v in verts:
        low = 1 if (deg[v] <= 1 and n_tree > 2) else 2
        labels[v] = rng.randint(low, 3)
    if sum(labels.values()) > budget:
        return
    t = LabelledTree(verts, edges, labels)
    g = tree_family(t)
    assert is_triangle_free(g)
    verdict = global_search(g)
    assert verdict.is_yes, (labels, edges, verdict.reason)


def test_glue_produces_uncrossed_cut():
    from visualraag.jsj import find_cuts, uncrossed_cuts

    w1, w2 = bicycle_wheel(3), bicycle_wheel(3)
    g, (p, q) = glue_at_lambda_edge(w1, w2)
    cuts = find_cuts(g)
    target = next(k for k in cuts if set(k.vertices) == {p, q})
    assert target in uncrossed_cuts(g, cuts)


# ------------------------------------------------------------------ fixtures


def test_fixture_catalogue_well_formed():
    fx = fixtures()
    expected_names = {
        "square", "wheel3", "wheel4", "wheel5", "wheel6", "cube_with_diagonal",
        "ordermatters", "potential_lambda_a", "potential_lambda_b",
        "potential_lambda_c", "potential_lambda_d", "mixed_tree", "hexagon",
        "c8", "k23", "glued_wheels", "glued_trees_triple",
    }
    assert expected_names <= set(fx)
    om = fx["ordermatters"]
    assert om.graph.n == 7 and om.graph.edge_count() == 10
    assert fx["hexagon"].expect_search == "no"
    assert verify_fidl(fx["wheel3"].graph, fx["wheel3"].lam).passed


def test_cube_coning_sequence_is_wheel3():
    import networkx as nx

    seq = cube_with_diagonal_coning()
    w3, _ = bicycle_wheel(3)
    assert nx.is_isomorphic(
        nx.Graph(list(seq.graph.edges())), nx.Graph(list(w3.edges()))
    )
    assert verify_fidl(seq.graph, seq.lam).passed
    # the grown witness is the pair of opposite-spoke stars
    names = seq.graph.names
    got = {frozenset((names[a], names[b])) for a, b in seq.lam.edges}
    expected = {frozenset(("x", f"d{i}")) for i in (1, 2, 3)} | {
        frozenset(("y", f"c{i}")) for i in (1, 2, 3)
    }
    assert got == expected
