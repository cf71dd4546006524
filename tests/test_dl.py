import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visualraag import dl
from visualraag.dismantle import global_search, relative_search
from visualraag.dl import (
    DLReport,
    Lambda,
    check_r1_r2_f1,
    check_r3,
    check_r4,
    commuting_graph,
    induced_squares,
    is_lambda_convex,
    lambda_hull,
    verify_fidl,
)
from visualraag.graphs import Graph, bits, bit_list, link
from visualraag.generators import (
    base_square,
    bicycle_wheel,
    fixtures,
    mixed_tree_instance,
    random_coning,
)
from visualraag.oracle import naive_search

from conftest import complete_bipartite, square


def test_lambda_rejects_host_edges():
    g = square()
    with pytest.raises(ValueError):
        Lambda.from_names(g, [("a", "c")], [])


def test_lambda_rejects_overlapping_supports():
    g, _ = bicycle_wheel(3)
    with pytest.raises(ValueError):
        Lambda.from_names(g, [("x", "d1")], [("d1", "d2")])


def test_lambda_json_round_trip():
    g, lam = bicycle_wheel(3)
    again = Lambda.from_json_dict(g, json.loads(lam.to_json()))
    assert again == lam


# -------------------------------------------------------------------- hulls


def test_hull_of_single_edge_is_itself():
    g, lam = base_square()
    a, b = g.vertex_id("a"), g.vertex_id("b")
    assert lambda_hull(lam, bits((a, b))) == bits((a, b))
    assert is_lambda_convex(lam, bits((a, b)))


def test_hull_along_path():
    # blue path c0-c1-c2: hull of the endpoints picks up the midpoint
    g = Graph.from_edges(
        ["r0", "r1", "c0", "c1", "c2"],
        [("r0", "c0"), ("r0", "c1"), ("r0", "c2"), ("r1", "c0"), ("r1", "c2")],
    )
    lam = Lambda.from_names(g, [("r0", "r1")], [("c0", "c1"), ("c1", "c2")])
    ends = bits((g.vertex_id("c0"), g.vertex_id("c2")))
    hull = lambda_hull(lam, ends)
    assert hull == ends | 1 << g.vertex_id("c1")
    assert not is_lambda_convex(lam, ends)


def test_hull_in_wheel_star():
    g, lam = bicycle_wheel(3)
    c1, c3, y = g.vertex_id("c1"), g.vertex_id("c3"), g.vertex_id("y")
    assert lambda_hull(lam, bits((c1, c3))) == bits((c1, y, c3))


def test_hull_of_vertices_outside_forest():
    g, lam = base_square()
    # a vertex alone maps to itself even with no incident witness edges
    a = g.vertex_id("a")
    assert lambda_hull(lam, 1 << a) == 1 << a


# ----------------------------------------------------------- tree conditions


def test_r1_r2_f1_pass_on_square_diagonals():
    g, lam = base_square()
    assert all(r.passed for r in check_r1_r2_f1(g, lam))


def test_f1_fails_with_one_diagonal():
    g, _ = base_square()
    lam = Lambda.from_names(g, [("a", "b")], [])
    results = {r.name: r for r in check_r1_r2_f1(g, lam)}
    assert not results["F1"].passed or not results["R1"].passed


def test_r1_cycle_witness():
    g = complete_bipartite(2, 4)  # poles 0,1; middles 2..5
    lam = Lambda.make(g, [(0, 1)], [(2, 3), (3, 4), (4, 2), (2, 5)])
    results = {r.name: r for r in check_r1_r2_f1(g, lam)}
    assert not results["R1"].passed
    assert results["R1"].witness.get("cycle")


def test_wheel_stars_pass_all():
    g, lam = bicycle_wheel(3)
    assert all(r.passed for r in check_r1_r2_f1(g, lam))
    assert check_r3(g, lam).passed
    assert check_r4(g, lam).passed


def test_mixed_class_edge_reported():
    g = complete_bipartite(2, 3)
    # 0,1 poles; 2,3,4 middles; a pair across classes is not even in the
    # complement here so build a host where it is
    g2 = Graph.from_int_edges(6, [(0, 2), (2, 1), (1, 3), (3, 0), (2, 4), (4, 3), (5, 0), (5, 4)])
    lam = Lambda.make(g2, [(0, 1), (1, 5)], [])
    results = {r.name: r for r in check_r1_r2_f1(g2, lam)}
    assert not results["coloring"].passed


# ------------------------------------------------------------------ R3 and R4


def test_r3_failure_witness_names_square():
    fx = fixtures()
    f = fx["potential_lambda_a"]
    res = check_r3(f.graph, f.lam)
    assert not res.passed
    assert "square" in res.witness and "missing_edge" in res.witness


def test_candidate_lambdas_match_expected():
    fx = fixtures()
    for key, expected in (("a", False), ("b", False), ("c", True), ("d", True)):
        f = fx[f"potential_lambda_{key}"]
        assert verify_fidl(f.graph, f.lam).passed == expected


def test_verify_rejects_bad_preconditions():
    from conftest import path_graph

    g = path_graph(3)
    lam = Lambda.make(g, [(0, 2)], [])
    rep = verify_fidl(g, lam)
    assert rep.precondition_failures
    assert not rep.passed


def test_report_json_shape():
    g, lam = base_square()
    rep = verify_fidl(g, lam)
    data = json.loads(rep.to_json())
    assert data["pass"] is True
    names = [c["name"] for c in data["conditions"]]
    assert names == ["R1", "R2", "F1", "coloring", "R3", "R4"]


# ------------------------------------------------------------ commuting graph


def test_commuting_graph_of_square_is_single_edge():
    g, lam = base_square()
    delta = commuting_graph(g, lam)
    assert delta.n == 2 and delta.graph.edge_count() == 1


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_commuting_graph_of_wheel_is_rim_cycle(n):
    g, lam = bicycle_wheel(n)
    delta = commuting_graph(g, lam)
    assert delta.n == 2 * n
    assert all(delta.graph.degree(v) == 2 for v in range(delta.n))
    assert delta.graph.is_connected_mask(delta.graph.full_mask)


def test_commuting_graph_mixed_tree_matches_drawn_subgraph():
    g, lam = mixed_tree_instance()
    assert verify_fidl(g, lam).passed
    delta = commuting_graph(g, lam)
    assert delta.n == 8
    names = delta.graph.names
    got = {tuple(sorted((names[i], names[j]))) for i, j in delta.graph.edges()}
    expected = {
        ("a0c0", "b0b1"), ("a0c0", "b1b2"), ("a0c0", "b2b3"),
        ("b0b1", "c0c1"), ("b0b1", "c1c2"),
        ("b0d0", "c0c1"), ("b0d0", "c1c2"),
        ("b1b2", "c0c1"), ("b1b2", "c1c2"),
        ("b2b3", "c0c1"), ("b2b3", "c1c2"),
        ("c0c1", "d0d1"), ("c1c2", "d0d1"),
    }
    assert got == expected
    assert all(ix is not None for ix in delta.embedding)


def test_commuting_graph_matches_pairwise_square_test():
    instances = [bicycle_wheel(n) for n in (3, 4, 5)] + [mixed_tree_instance()]
    instances += [(s.graph, s.lam) for s in (random_coning(seed, 16) for seed in range(8))]
    for g, lam in instances:
        delta = commuting_graph(g, lam)
        edges = lam.edges
        for i, (a, b) in enumerate(edges):
            for j, (c, d) in enumerate(edges):
                cross = g.adj[a] & g.adj[b]
                spans = len({a, b, c, d}) == 4 and bool(cross >> c & 1 and cross >> d & 1)
                assert delta.graph.has_edge(i, j) == spans


def test_delta_embeds_in_diagonal_graph():
    g, lam = bicycle_wheel(4)
    delta = commuting_graph(g, lam)
    dg = delta.diagonal
    for (i, j) in delta.graph.edges():
        di, dj = delta.embedding[i], delta.embedding[j]
        assert di is not None and dj is not None
        assert dg.graph.has_edge(di, dj)


# ------------------------------------------------------------ link convexity


def test_links_convex_on_verified_instance():
    g, lam = bicycle_wheel(3)
    for v in range(g.n):
        assert is_lambda_convex(lam, link(g, v))


def test_induced_squares_canonical_once():
    g, _ = bicycle_wheel(4)
    sq = induced_squares(g)
    seen = set()
    for d1, d2 in sq:
        key = frozenset((frozenset(d1), frozenset(d2)))
        assert key not in seen
        seen.add(key)


ENGINE_YES = {
    "relative_search": lambda: relative_search(fixtures()["wheel3"].graph),
    "global_search": lambda: global_search(fixtures()["glued_wheels"].graph),
    "naive_search": lambda: naive_search(square()),
}


@pytest.mark.parametrize("engine", sorted(ENGINE_YES))
def test_every_yes_goes_through_verified(monkeypatch, engine):
    """Each engine re-checks its "yes" through ``dl.verified`` alone: a
    failing ``dl.verify_fidl`` report turns the "yes" into an error."""
    monkeypatch.setattr(dl, "verify_fidl", lambda g, lam: DLReport(("forced",), ()))
    with pytest.raises(AssertionError, match="forced"):
        ENGINE_YES[engine]()
