import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from visualraag.graphs import bit_list, bits, has_separating_clique, is_incomplete, is_triangle_free
from visualraag.squares import (
    CfsStatus,
    cfs_status,
    diagonal_graph,
    induced_squares,
    is_strongly_cfs,
)
from visualraag.dismantle import global_search
from visualraag.generators import bicycle_wheel, fixtures, random_coning

from conftest import (
    complete_bipartite,
    cycle_graph,
    path_graph,
    random_triangle_free,
    square,
    sweep_graphs,
    to_networkx,
)


def test_diagonal_graph_of_square():
    g = square()
    dg = diagonal_graph(g)
    assert len(dg.diagonals) == 2
    assert dg.graph.edge_count() == 1


def test_diagonal_graph_of_path_is_empty():
    assert diagonal_graph(path_graph(4)).diagonals == ()


def test_diagonal_graph_wheel_contains_hub_diagonals():
    g, _lam = bicycle_wheel(3)
    dg = diagonal_graph(g)
    x = g.vertex_id("x")
    for i in (1, 2, 3):
        d = g.vertex_id(f"d{i}")
        assert dg.index_of(x, d) is not None


def test_support():
    dg = diagonal_graph(complete_bipartite(2, 3))
    assert dg.support_mask([dg.index_of(2, 3), dg.index_of(3, 4)]) == bits([2, 3, 4])
    assert dg.support_mask([]) == 0
    dg = diagonal_graph(square())
    assert dg.support_mask(range(len(dg.diagonals))) == bits([0, 1, 2, 3])


def test_cfs_status_examples():
    assert cfs_status(cycle_graph(6)).status is CfsStatus.NOT_CFS
    assert cfs_status(complete_bipartite(2, 3)).status is CfsStatus.STRONGLY_CFS
    dg = cfs_status(complete_bipartite(2, 3)).diagonal
    assert dg.graph.n == 4  # the pole pair plus three middle pairs
    assert dg.graph.edge_count() == 3  # a star
    g, _lam = bicycle_wheel(3)
    assert cfs_status(g).status is CfsStatus.STRONGLY_CFS


def test_cfs_star_is_not_cfs():
    star = complete_bipartite(1, 4)
    rep = cfs_status(star)
    assert rep.status is CfsStatus.NOT_CFS


def test_cfs_witness_component_has_full_support():
    g, _lam = bicycle_wheel(4)
    rep = cfs_status(g)
    assert rep.status is CfsStatus.STRONGLY_CFS
    assert rep.diagonal.support_mask(rep.witness_component) == g.full_mask


@given(st.integers(4, 9))
@settings(max_examples=60, deadline=None)
def test_diagonal_graph_triangle_free_when_host_is(n):
    g = random_triangle_free(random.Random(n * 23 + 1), n)
    dg = diagonal_graph(g)
    assert is_triangle_free(dg.graph)


@given(st.integers(4, 9))
@settings(max_examples=60, deadline=None)
def test_cfs_implies_no_separating_clique(n):
    g = random_triangle_free(random.Random(n * 31 + 7), n)
    if not (is_incomplete(g) and is_triangle_free(g)):
        return
    rep = cfs_status(g)
    if rep.status is not CfsStatus.NOT_CFS:
        assert not has_separating_clique(g)


@given(st.integers(4, 9))
@settings(max_examples=40, deadline=None)
def test_squares_match_networkx_4_cycles(n):
    g = random_triangle_free(random.Random(n * 41 + 3), n)
    dg = diagonal_graph(g)
    # every diagonal really is the diagonal of an induced square
    for a, b in dg.diagonals:
        assert not g.has_edge(a, b)
        common = [c for c in range(g.n) if g.has_edge(a, c) and g.has_edge(b, c)]
        assert any(
            not g.has_edge(c, d)
            for i, c in enumerate(common)
            for d in common[i + 1 :]
        )
    # and the edge relation matches an independent cycle scan
    nxg = to_networkx(g)
    squares = set()
    for cyc in nx.simple_cycles(nxg, length_bound=4):
        if len(cyc) == 4:
            a, c, b, d = cyc
            if not nxg.has_edge(a, b) and not nxg.has_edge(c, d):
                squares.add(frozenset((frozenset((a, b)), frozenset((c, d)))))
    dg_edges = {
        frozenset(
            (frozenset(dg.diagonals[i]), frozenset(dg.diagonals[j]))
        )
        for i, j in dg.graph.edges()
    }
    assert dg_edges == squares


# ------------------------------------------------------ one square list


def _inside(square, mask):
    return all(mask >> v & 1 for pair in square for v in pair)


def test_induced_squares_on_mask_is_the_whole_list_filtered():
    """The squares of an induced subgraph, in host ids, are the host's
    squares inside it, in the same order."""
    for g in sweep_graphs():
        whole = induced_squares(g)
        assert whole == sorted(whole)
        for mask in range(1 << g.n):
            host = bit_list(mask)
            sub = [tuple((host[a], host[b]) for a, b in sq)
                   for sq in induced_squares(g.subgraph(mask))]
            assert sub == [sq for sq in whole if _inside(sq, mask)]


@given(st.integers(4, 10))
@settings(max_examples=30, deadline=None)
def test_diagonal_graph_sorted_with_one_edge_per_square(n):
    g = random_triangle_free(random.Random(n * 53 + 9), n)
    dg = diagonal_graph(g)
    sq = induced_squares(g)
    assert list(dg.diagonals) == sorted({pair for s in sq for pair in s})
    assert dg.graph.edge_count() == len(sq)
    for i, pair in enumerate(dg.diagonals):
        assert dg.index_of(*pair) == i == dg.index_of(*reversed(pair))


def _strongly(g, mask):
    return cfs_status(g.subgraph(mask)).status is CfsStatus.STRONGLY_CFS


def test_is_strongly_cfs_from_squares_matches_cfs_status_on_sweep_masks():
    seen = set()
    for g in sweep_graphs():
        dg = diagonal_graph(g)
        for mask in range(1 << g.n):
            want = _strongly(g, mask)
            assert dg.strongly_cfs(mask) == want
            assert is_strongly_cfs(g.subgraph(mask)) == want
            seen.add(want)
    assert seen == {True, False}


def test_is_strongly_cfs_from_squares_matches_cfs_status_on_coning_strata():
    """Each stratum, and each stratum less one vertex, judged from the
    diagonal graph of the stratum above it, as the dismantling search does;
    a prefix mask keeps the host's ids."""
    seen = set()
    for seed in range(6):
        seq = random_coning(seed=seed, steps=14)
        g = seq.graph
        for k in range(len(seq.steps) + 1):
            above = (1 << min(g.n, 5 + k)) - 1
            stratum = (1 << (4 + k)) - 1
            dg = diagonal_graph(g.subgraph(above))
            for mask in [stratum] + [stratum & ~(1 << v) for v in range(4 + k)]:
                want = _strongly(g, mask)
                assert dg.strongly_cfs(mask) == want
                seen.add(want)
    assert seen == {True, False}


def test_gates_build_no_named_diagonal_graph(monkeypatch):
    """The CFS gate and the search read the diagonal graph as neighbour
    masks: with ``Graph`` unusable inside ``squares``, both decisions stand."""

    def no_graph(*_args, **_kwargs):
        raise AssertionError("squares built a named Graph")

    fx = fixtures()
    monkeypatch.setattr("visualraag.squares.Graph", no_graph)
    assert global_search(fx["wheel3"].graph).decision == "yes"
    verdict = global_search(fx["hexagon"].graph)
    assert (verdict.decision, verdict.stage) == ("no", "cfs")
