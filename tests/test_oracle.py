import itertools
import random
import time
from collections import Counter
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visualraag.dl import Lambda, check_r3, check_r4, lambda_hull, verify_fidl
from visualraag.graphs import Graph, NotBipartiteError, bipartition, bits, bit_list, from_graph6
from visualraag.oracle import (
    OracleLimits,
    canonical_lambda,
    count_all_fidl,
    naive_search,
    spanning_tree_count,
    spanning_trees,
)
from visualraag.generators import bicycle_wheel, fixtures, random_coning

from conftest import (
    complete_graph,
    cycle_graph,
    from_networkx,
    random_graph,
    random_triangle_free,
    square,
    sweep_graphs,
    to_networkx,
)
from naive_dl import literal_hull, literal_r3, literal_r4


# --------------------------------------------------------- spanning trees


def test_cayley_counts():
    for m in (2, 3, 4, 5):
        edges = list(itertools.combinations(range(m), 2))
        assert spanning_tree_count(m, edges) == m ** (m - 2)
        assert len(list(spanning_trees(m, edges))) == m ** (m - 2)


def test_spanning_trees_distinct_and_valid():
    edges = list(itertools.combinations(range(4), 2))
    trees = list(spanning_trees(4, edges))
    assert len(set(trees)) == len(trees)
    for t in trees:
        h = nx.Graph(list(t))
        assert h.number_of_nodes() == 4 and nx.is_tree(h)


@given(st.integers(2, 7), st.floats(0.2, 1))
@settings(max_examples=40, deadline=None)
def test_tree_count_matches_networkx(n, p):
    g = random_graph(random.Random(n * 5 + int(p * 17)), n, p)
    edges = list(g.edges())
    count = spanning_tree_count(n, edges)
    nxg = to_networkx(g)
    if nx.is_connected(nxg):
        expected = len(list(nx.algorithms.tree.mst.SpanningTreeIterator(nxg)))
    else:
        expected = 0
    assert count == expected
    assert len(list(spanning_trees(n, edges))) == expected


def test_tree_count_disconnected_zero():
    assert spanning_tree_count(4, [(0, 1), (2, 3)]) == 0


# -------------------------------------------------------------- the oracle


def test_oracle_square_unique_pair():
    verdict = naive_search(square())
    assert verdict.is_yes
    assert verdict.detail["tree_pairs"] == 1


def test_oracle_hexagon_no():
    verdict = naive_search(cycle_graph(6))
    assert verdict.decision == "no"
    assert verdict.reason == "NoFidlLambda"
    assert verdict.detail["tested"] == verdict.detail["tree_pairs"]


def test_oracle_not_bipartite_shortcut():
    verdict = naive_search(cycle_graph(5))
    assert verdict.decision == "no"
    assert verdict.reason == "NotBipartite"


def test_oracle_refuses_bad_input():
    verdict = naive_search(complete_graph(4))
    assert verdict.decision == "refused"


def test_oracle_budget_by_pair_cap():
    g, _ = bicycle_wheel(5)  # classes of size 6: 6^4 * 6^4 pairs
    verdict = naive_search(g, OracleLimits(max_tree_pairs=10))
    assert verdict.decision == "budget_exceeded"
    assert verdict.reason == "BudgetExceeded"


def test_oracle_deadline_holds_while_the_tree_pool_is_built():
    # K_{3,8}: the 8-vertex class has 8^6 spanning trees, built before any pair
    g = Graph.from_int_edges(11, [(a, b) for a in range(3) for b in range(3, 11)])
    t0 = time.perf_counter()
    verdict = naive_search(g, OracleLimits(seconds=0.3))
    assert verdict.decision == "budget_exceeded"
    assert time.perf_counter() - t0 < 2


def test_oracle_pair_predicate_is_verify_fidl():
    # every tree pair of the two class complements, judged by verify_fidl,
    # against the pairs the oracle's own R3/R4 loop accepts
    for g in sweep_graphs():
        if g.n > 7:
            continue
        try:
            col = bipartition(g)
        except NotBipartiteError:
            assert count_all_fidl(g) == (0, [])
            continue
        sides = []
        for cls in (col.red, col.blue):
            verts = bit_list(cls)
            edges = [(i, j) for i, j in itertools.combinations(range(len(verts)), 2)
                     if not g.has_edge(verts[i], verts[j])]
            sides.append([[(verts[a], verts[b]) for a, b in t]
                          for t in spanning_trees(len(verts), edges)])
        passing = sorted(
            (lam.red_edges, lam.blue_edges)
            for red, blue in itertools.product(*sides)
            for lam in [canonical_lambda(Lambda.make(g, red, blue))]
            if verify_fidl(g, lam).passed
        )
        count, lams = count_all_fidl(g)
        assert passing == [(lam.red_edges, lam.blue_edges) for lam in lams], g.adj
        assert count == len(passing)


def test_oracle_order_and_tested_match_a_literal_unfiltered_loop(monkeypatch):
    """Every tree pair of the two classes in the oracle's order (red trees
    outer, blue inner), judged by ``verify_fidl`` with no filter: the
    oracle reaches the same decision, the same ``tested`` (the first passing
    pair's 1-based index, or every pair on "no") and the same witness, on
    the sweep and on 40 criterion-5-style random graphs on 9-10 vertices."""
    from visualraag import dl
    from test_acceptance import _random_qualifying

    # verify_fidl re-derives these per pair; they depend on the host alone
    def per_host(fn):
        memo = {}

        def cached(g):
            if id(g) not in memo:  # the entry keeps g alive, so its id stays its own
                memo[id(g)] = g, list(fn(g))
            return memo[id(g)][1]
        return cached

    for name in ("precondition_failures", "induced_squares", "induced_cycles"):
        monkeypatch.setattr(dl, name, per_host(getattr(dl, name)))

    def literal(g):
        col = bipartition(g)
        sides = []
        for cls in (col.red, col.blue):
            verts = bit_list(cls)
            m = len(verts)
            sides.append([[(verts[a], verts[b]) for a, b in t]
                          for t in spanning_trees(m, list(itertools.combinations(range(m), 2)))])
        for k, (red, blue) in enumerate(itertools.product(*sides), 1):
            lam = Lambda.make(g, red, blue)
            if verify_fidl(g, lam).passed:
                return "yes", k, lam.edges
        return "no", len(sides[0]) * len(sides[1]), None

    rng = random.Random(0x5EED)
    randoms = []
    while len(randoms) < 40:
        g = _random_qualifying(rng, rng.randint(9, 10))
        if g is not None:
            randoms.append(g)
    checked = Counter()
    for g in sweep_graphs() + randoms:
        try:
            bipartition(g)
        except NotBipartiteError:
            continue
        verdict = naive_search(g)
        got = (verdict.decision, verdict.detail["tested"], verdict.lam.edges if verdict.is_yes else None)
        assert got == literal(g), g.adj
        checked[verdict.decision] += 1
    assert checked["yes"] and checked["no"]


def test_count_all_ordermatters_orbit():
    g = fixtures()["ordermatters"].graph
    count, lams = count_all_fidl(g)
    assert count == 4
    # the two drawn verified candidates are among them
    fx = fixtures()
    drawn = {
        (canonical_lambda(fx[f"potential_lambda_{k}"].lam).red_edges,
         canonical_lambda(fx[f"potential_lambda_{k}"].lam).blue_edges)
        for k in ("c", "d")
    }
    got = {(lam.red_edges, lam.blue_edges) for lam in lams}
    assert drawn <= got
    # and the remaining ones are automorphic images of the drawn ones:
    # the graph swaps 2<->4,5<->6 and 1<->3, fixing the blue star at 0
    def images(edges, perm):
        return tuple(sorted(tuple(sorted((perm.get(a, a), perm.get(b, b)))) for a, b in edges))

    sigma = {2: 4, 4: 2, 5: 6, 6: 5}
    tau = {1: 3, 3: 1}
    orbit = set()
    for red, blue in drawn:
        for perm in ({}, sigma, tau, {**sigma, **tau}):
            orbit.add((images(red, perm), images(blue, perm)))
    assert got <= orbit


def test_count_k23():
    count, lams = count_all_fidl(fixtures()["k23"].graph)
    assert count == 3  # three labeled trees on the three middle vertices
    for lam in lams:
        assert verify_fidl(fixtures()["k23"].graph, lam).passed


def test_wheel_witness_unique_and_matches_stars():
    g, stars = bicycle_wheel(3)
    count, lams = count_all_fidl(g)
    assert count == 1
    assert set(lams[0].edges) == set(stars.edges)


def test_every_engine_witness_in_exhaustive_list():
    from visualraag.dismantle import global_search

    for name in ("square", "k23", "ordermatters", "wheel3"):
        g = fixtures()[name].graph
        verdict = global_search(g)
        assert verdict.is_yes
        _, lams = count_all_fidl(g)
        canon = canonical_lambda(verdict.lam)
        assert any(
            set(canon.edges) == set(lam.edges) for lam in lams
        ), name


def test_engine_and_oracle_agree_on_every_graph_up_to_9_vertices():
    """Every qualifying graph on at most 9 vertices (``enumerate_small.py 9``):
    the dismantling engine and the oracle reach one decision.  Unlike the
    8-vertex sweep, this one reaches the "no" of the dagger stage and both
    stages of a "yes"."""
    from visualraag.dismantle import global_search

    stream = (Path(__file__).parent / "data" / "connected_tf_nosep_le9.g6").read_text().split()
    assert len(stream) == 429
    decisions, stages, disagreements = Counter(), set(), []
    for line in stream:
        g = from_graph6(line)
        mine, oracle = global_search(g), naive_search(g)
        if mine.decision != oracle.decision:
            disagreements.append((line, mine.decision, oracle.decision))
        decisions[oracle.decision] += 1
        stages.add((mine.decision, mine.stage))
    assert not disagreements
    assert decisions == {"no": 349, "yes": 80}
    assert stages == {("no", "cfs"), ("no", "cycles"), ("no", "dagger"),
                      ("yes", "assemble"), ("yes", "dismantle")}


def test_engine_and_oracle_agree_on_every_graph_up_to_10_vertices():
    """Every qualifying graph on at most 10 vertices (``enumerate_small.py
    10``; its first 429 lines are the <=9 file): the dismantling engine and
    the oracle reach one decision.  Unlike the <=9 sweep, this one also
    reaches the "no" of the split and dismantle stages."""
    from visualraag.dismantle import global_search

    stream = (Path(__file__).parent / "data" / "connected_tf_nosep_le10.g6").read_text().split()
    assert len(stream) == 3278
    decisions, stages, disagreements = Counter(), set(), []
    for line in stream:
        g = from_graph6(line)
        mine, oracle = global_search(g), naive_search(g)
        if mine.decision != oracle.decision:
            disagreements.append((line, mine.decision, oracle.decision))
        decisions[oracle.decision] += 1
        stages.add((mine.decision, mine.stage))
    assert not disagreements
    assert decisions == {"no": 2953, "yes": 325}
    assert stages == {("no", "cfs"), ("no", "cycles"), ("no", "dagger"), ("no", "split"),
                      ("no", "dismantle"), ("yes", "assemble"), ("yes", "dismantle")}


# ----------------------------------------- literal cross-validation (tests only)


def _random_tree_pair_lambda(g: Graph, rng: random.Random) -> Lambda | None:
    from visualraag.graphs import NotBipartiteError, bipartition

    try:
        col = bipartition(g)
    except NotBipartiteError:
        return None
    lam_sides = []
    for cls in (col.red, col.blue):
        verts = bit_list(cls)
        if len(verts) == 0:
            return None
        edges = []
        attached = [verts[0]]
        for v in verts[1:]:
            w = rng.choice(attached)
            if g.has_edge(v, w):
                return None
            edges.append((w, v))
            attached.append(v)
        lam_sides.append(edges)
    try:
        return Lambda.make(g, lam_sides[0], lam_sides[1])
    except ValueError:
        return None


@given(st.integers(4, 8), st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_hull_matches_literal_closure(n, salt):
    rng = random.Random(n * 1009 + salt)
    g = random_triangle_free(rng, n)
    lam = _random_tree_pair_lambda(g, rng)
    if lam is None:
        return
    sample = {v for v in range(g.n) if rng.random() < 0.5}
    mine = set(bit_list(lambda_hull(lam, bits(sample))))
    assert mine == literal_hull(lam, sample)


@given(st.integers(4, 8), st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_r3_r4_match_literal(n, salt):
    rng = random.Random(n * 2003 + salt)
    g = random_triangle_free(rng, n)
    lam = _random_tree_pair_lambda(g, rng)
    if lam is None:
        return
    assert check_r3(g, lam).passed == literal_r3(g, lam)
    if check_r3(g, lam).passed:
        assert check_r4(g, lam).passed == literal_r4(g, lam, cap=g.n)


def test_literal_agrees_on_fixtures():
    fx = fixtures()
    for key in ("a", "b", "c", "d"):
        f = fx[f"potential_lambda_{key}"]
        mine3 = check_r3(f.graph, f.lam).passed
        assert mine3 == literal_r3(f.graph, f.lam)
        if mine3:
            assert check_r4(f.graph, f.lam).passed == literal_r4(f.graph, f.lam, cap=7)
