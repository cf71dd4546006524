"""The two lemmas that let ``global_search`` split with no guards, checked on
seeded corpora, and the "no" branches of the split that stay reachable.

L1: a triangle-free graph on five or more vertices with no separating clique
that is strongly CFS has no two crossing cuts.  L2: every part the split
solves (a component of two or more vertices plus the cut vertices) of a
graph that passes the preconditions and both gates passes them too.  L3:
every cut of a part that tears no required pair runs through the pair of a
host cut, so the split tests only the host's cut pairs.  The proofs are in
the README, "Why the split needs no guards".  With required pairs too, the
split decides what whole-graph ``relative_search`` decides.
"""

import itertools
import random

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from visualraag import jsj
from visualraag.dismantle import Budget, forbidden_cycle_check, global_search, relative_search
from visualraag.dl import precondition_failures
from visualraag.generators import fixtures, random_coning
from visualraag.graphs import bipartition, bit_list, from_graph6
from visualraag.jsj import Cut, crossing_pair, cuts_through, find_cuts
from visualraag.oracle import naive_search
from visualraag.squares import CfsStatus, cfs_status, is_strongly_cfs

from conftest import cycle_graph, glued32, random_triangle_free, sweep_graphs
from test_acceptance import _random_qualifying
from test_jsj import _glued_instances


def _passes_gates(g) -> bool:
    return (not precondition_failures(g) and is_strongly_cfs(g)
            and forbidden_cycle_check(g) is None)


def _l1_corpus():
    """The sweep, seeded random graphs on 9-14 vertices from both recipes,
    and coning graphs of 20-32 steps; only those passing the preconditions."""
    graphs = sweep_graphs()
    rng = random.Random(11)
    for _ in range(3000):
        graphs.append(random_triangle_free(rng, rng.randint(9, 14)))
    rng = random.Random(0x5EED)
    for _ in range(600):
        g = _random_qualifying(rng, rng.randint(9, 14))
        if g is not None:
            graphs.append(g)
    graphs += [random_coning(seed=s, steps=k).graph for s in range(101, 105) for k in range(20, 33)]
    return [g for g in graphs if not precondition_failures(g)]


def test_l1_strongly_cfs_graphs_have_no_crossing_cuts():
    strongly = crossed = 0
    for g in _l1_corpus():
        crossing = crossing_pair(g, find_cuts(g))
        if g.n >= 5 and is_strongly_cfs(g):
            assert crossing is None, (g.names, g.adj, [k.vertices for k in crossing])
            strongly += 1
        elif crossing is not None:
            crossed += 1
    # not vacuous: the same corpus has crossings once strong CFS fails
    assert strongly > 750 and crossed > 50
    c8 = cycle_graph(8)
    assert not precondition_failures(c8) and not is_strongly_cfs(c8)
    assert crossing_pair(c8, find_cuts(c8)) is not None


def _check_parts(g, seen_cuts: dict):
    """Every part of every cut of ``g``, and recursively of those parts,
    passes the preconditions and both gates and has no crossing cuts."""
    done = set()
    stack = [(g, find_cuts(g))]
    while stack:
        h, cuts = stack.pop()
        for cut in cuts:
            seen_cuts["pair" if cut.is_pair else "triple"] += 1
            for comp in cut.components:
                if comp.bit_count() == 1:
                    continue
                mask = comp | cut.mask
                key = frozenset(h.names[v] for v in range(h.n) if mask >> v & 1)
                if key in done:
                    continue
                done.add(key)
                part = h.subgraph(mask)
                part_cuts = find_cuts(part)
                where = (g.names, g.adj, sorted(key))
                assert part.n >= 5, where
                assert not precondition_failures(part), where
                assert cfs_status(part).status is CfsStatus.STRONGLY_CFS, where
                assert forbidden_cycle_check(part) is None, where
                assert crossing_pair(part, part_cuts) is None, where
                stack.append((part, part_cuts))


def test_l2_split_parts_inherit_the_preconditions_and_gates():
    graphs = sweep_graphs() + _glued_instances(100)
    graphs += [random_coning(seed=s, steps=k).graph for s in range(101, 105) for k in range(8, 21)]
    seen_cuts = {"pair": 0, "triple": 0}
    for g in graphs:
        if _passes_gates(g):
            _check_parts(g, seen_cuts)
    assert seen_cuts["pair"] > 1000 and seen_cuts["triple"] > 100


def _usable(cuts, required):
    """The cuts that tear no required pair: each lies inside one part."""
    out = []
    for cut in cuts:
        parts = [comp | cut.mask for comp in cut.components]
        if all(any(m >> p & 1 and m >> q & 1 for m in parts) for p, q in required):
            out.append(cut)
    return out


def _to_host(cut, verts):
    """A cut of ``g.subgraph(mask)`` in the host's vertex ids."""
    remap = lambda m: sum(1 << verts[v] for v in range(len(verts)) if m >> v & 1)
    return Cut(tuple(verts[v] for v in cut.vertices), tuple(map(remap, cut.components)))


def _walk_split(g, seen: dict, given: tuple = ()):
    """Follow the split recursion of ``global_search`` on ``g`` with the
    pairs ``given`` required, comparing at every level the usable cuts of
    the part with those through the host's cut pairs; counts the usable
    triples around an enclosing pair cut."""
    host_cuts = find_cuts(g)
    pairs = list(dict.fromkeys(k.pair for k in host_cuts))
    host_pair_cuts = {k.pair for k in host_cuts if k.is_pair}
    stack = [(g.full_mask, given)]
    while stack:
        mask, required = stack.pop()
        verts = bit_list(mask)
        whole = [_to_host(k, verts) for k in find_cuts(g.subgraph(mask))]
        usable = _usable(cuts_through(g, mask, pairs), required)
        assert _usable(whole, required) == usable, (g.names, g.adj, mask, required)
        seen["levels"] += 1
        seen["triples"] += sum(
            not k.is_pair and k.pair in required and k.pair in host_pair_cuts for k in usable)
        if usable:
            cut = usable[0]
            for comp in cut.components:
                if comp.bit_count() > 1:
                    part = comp | cut.mask
                    inside = tuple((p, q) for p, q in required if part >> p & 1 and part >> q & 1)
                    stack.append((part, inside + (cut.pair,)))


def test_l3_usable_cuts_of_a_part_run_through_host_cut_pairs():
    graphs = sweep_graphs() + _glued_instances(100)
    graphs += [random_coning(seed=s, steps=k).graph for s in range(101, 105) for k in range(8, 21)]
    seen = {"levels": 0, "triples": 0}
    for g in graphs:
        if g.n >= 5 and _passes_gates(g):
            _walk_split(g, seen)
    # not vacuous: some level splits at an a-c-b triple whose pair {a,b} is a
    # host pair cut, a cut the host does not list
    assert seen["triples"] >= 1 and seen["levels"] > 500, seen


def test_l3_holds_with_required_pairs_given():
    # the given pairs enter no invariant of the proof, so L3 holds with them
    seen = {"levels": 0, "triples": 0}
    for g in sweep_graphs() + _glued_instances(20):
        if g.n >= 5 and _passes_gates(g):
            col = bipartition(g)
            for pair in itertools.combinations(range(g.n), 2):
                if col.same_class(*pair):
                    _walk_split(g, seen, (pair,))
    assert seen["levels"] > 3000 and seen["triples"] > 30, seen


def test_one_cut_search_per_decision(monkeypatch):
    calls = []
    monkeypatch.setattr(jsj, "find_cuts", lambda g: calls.append(g) or find_cuts(g))
    graphs = [f.graph for f in fixtures().values()] + _glued_instances(20)
    graphs += [random_coning(seed=s, steps=k).graph for s in (101, 102) for k in range(8, 33, 4)]
    stages = set()
    for g in graphs:
        calls.clear()
        stages.add(global_search(g).stage)
        gated = g.n >= 5 and _passes_gates(g)
        assert len(calls) == (1 if gated else 0), (g.names, g.adj, len(calls))
    assert "assemble" in stages


def test_search_never_asks_whether_cuts_cross(monkeypatch):
    def refuse(*args):
        raise AssertionError("global_search tested cuts for crossing")

    monkeypatch.setattr(jsj, "crossing_pair", refuse)
    monkeypatch.setattr(jsj, "uncrossed_cuts", refuse)
    monkeypatch.setattr(jsj, "crosses", refuse)
    stages = set()
    for g in [f.graph for f in fixtures().values()] + _glued_instances(20):
        stages.add(global_search(g).stage)
    assert "assemble" in stages


def test_rigid_part_failed_is_reachable():
    # the 12,447th graph drawn by random_triangle_free(rng, rng.randint(8, 14))
    # with rng = random.Random(11)
    g = from_graph6("IM_hoBFpO")
    assert g.n == 10 and _passes_gates(g)
    verdict = global_search(g)
    assert (verdict.decision, verdict.stage, verdict.reason) == ("no", "split", "RigidPartFailed")
    assert verdict.detail["sub_reason"] == "NoDaggerSequence"
    oracle = naive_search(g)
    assert oracle.decision == "no" and oracle.detail["tested"] == 15_625
    assert relative_search(g).decision == "no"


@seed(20261018)
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_split_and_whole_graph_searches_agree(draw_seed):
    # a disagreement would contradict the paper's splitting theorem
    rng = random.Random(draw_seed)
    g = random_triangle_free(rng, rng.randint(5, 11))
    while not _passes_gates(g):
        g = random_triangle_free(rng, rng.randint(5, 11))
    assert global_search(g).decision == relative_search(g).decision, (g.names, g.adj)


def _agree_with_required(g, req):
    """``global_search`` and whole-graph ``relative_search`` reach the same
    decision with the pairs ``req`` required, and a "yes" holds them all."""
    split = global_search(g, req)
    assert split.decision == relative_search(g, req).decision, (g.names, g.adj, req)
    if split.is_yes:
        assert set(req) <= set(split.lam.edges), (g.names, g.adj, req)
    return split.decision


def test_split_and_whole_graph_agree_on_every_single_required_pair():
    decisions = {"yes": 0, "no": 0}
    for g in sweep_graphs():
        for pair in itertools.combinations(range(g.n), 2):
            if not g.has_edge(*pair):
                decisions[_agree_with_required(g, [pair])] += 1
    assert decisions == {"yes": 273, "no": 978}


@seed(20261020)
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_split_and_whole_graph_searches_agree_with_required_pairs(draw_seed):
    rng = random.Random(draw_seed)
    g = random_triangle_free(rng, rng.randint(5, 11))
    while not _passes_gates(g):
        g = random_triangle_free(rng, rng.randint(5, 11))
    col = bipartition(g)
    same = [(p, q) for p, q in itertools.combinations(range(g.n), 2) if col.same_class(p, q)]
    _agree_with_required(g, rng.sample(same, rng.randint(1, 2)))


def test_required_pairs_go_through_the_split():
    # whole-graph relative_search exceeds a 10 s budget on this pair
    g = glued32()
    assert g.n == 32 and _passes_gates(g)
    assert [g.names[v] for v in (23, 30)] == ["B_x15", "B_x22"]
    verdict = global_search(g, [(23, 30)], Budget.from_seconds(5))
    assert (verdict.decision, verdict.stage, verdict.reason) == ("no", "split", "RigidPartFailed")
    assert verdict.detail["sub_reason"] == "NoDaggerSequence"


def test_required_pair_cycle_across_parts_is_caught_before_the_split():
    # p-a-q-b-p with a on one side of the cut pair {p, q} and b on the other
    g = fixtures()["glued_wheels"].graph
    p, q = g.vertex_id("p"), g.vertex_id("q")
    col = bipartition(g)
    a, b = (next(v for v in range(g.n) if g.names[v].startswith(side) and col.same_class(p, v))
            for side in ("A_", "B_"))
    req = [(p, a), (a, q), (q, b), (b, p)]
    verdict = global_search(g, req)
    assert (verdict.decision, verdict.stage, verdict.reason) == (
        "no", "required_pairs", "RequiredPairCycle")
    assert relative_search(g, req).reason == "RequiredPairCycle"
