import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visualraag.dismantle import (
    Budget,
    DaggerFailure,
    DismantleStats,
    check_dagger,
    enumerate_dismantlings,
    forbidden_cycle_check,
    global_search,
    reconstruct_lambda,
    relative_search,
)
from visualraag import jsj
from visualraag.dl import verify_fidl
from visualraag.graphs import Graph, bits, bit_list
from visualraag.oracle import naive_search
from visualraag.generators import bicycle_wheel, fixtures, random_coning

from conftest import (
    complete_bipartite,
    cycle_graph,
    random_triangle_free,
    square,
    sweep_graphs,
    wheel_glued_to_square,
)


# --------------------------------------------------------------- cycle gate


def test_forbidden_cycle_c8():
    obstruction = forbidden_cycle_check(cycle_graph(8))
    assert obstruction is not None
    assert obstruction["kind"] == "long_cycle_without_2_chord"


def test_forbidden_cycle_c5_odd():
    assert forbidden_cycle_check(cycle_graph(5))["kind"] == "odd_cycle"


def test_forbidden_cycle_bare_hexagon():
    assert forbidden_cycle_check(cycle_graph(6))["kind"] == "hexagon_not_wheel_rim"


def test_wheel_rim_passes():
    g, _ = bicycle_wheel(3)
    assert forbidden_cycle_check(g) is None
    g4, _ = bicycle_wheel(4)  # has an induced 8-cycle rim, with 2-chords
    assert forbidden_cycle_check(g4) is None


# ------------------------------------------------------------- enumeration


def test_square_dismantles_to_empty_sequence():
    seqs = list(enumerate_dismantlings(square()))
    assert len(seqs) == 1
    assert seqs[0].steps == ()


def test_k23_single_step():
    g = complete_bipartite(2, 3)
    seqs = list(enumerate_dismantlings(g))
    assert len(seqs) == 3  # any one of the three twins can go
    for s in seqs:
        assert len(s.steps) == 1
        assert s.steps[0].cone == bits((0, 1))


def test_ordermatters_contains_paper_sequences():
    g = fixtures()["ordermatters"].graph
    seqs = list(enumerate_dismantlings(g))
    sigs = {(s.steps[0].x, s.steps[0].cone, s.steps[0].candidates) for s in seqs}
    assert (0, bits((1, 3)), bits((2, 4))) in sigs
    assert (4, bits((1, 3)), bits((0, 2))) in sigs


def test_intermediates_stay_admissible():
    g = fixtures()["glued_wheels"].graph
    from visualraag.graphs import has_separating_clique, is_triangle_free, is_incomplete
    from visualraag.squares import is_strongly_cfs

    seq = next(iter(enumerate_dismantlings(g)))
    mask = seq.base
    assert len(bit_list(mask)) == 4
    for i in range(len(seq.steps) + 1):
        stratum = seq.stratum(i)
        sub = g.subgraph(stratum)
        assert is_incomplete(sub) and is_triangle_free(sub)
        assert not has_separating_clique(sub)
        assert is_strongly_cfs(sub)


def test_one_diagonal_graph_per_search(monkeypatch):
    """The search decides every state's strong CFS from the host's diagonal
    graph: one build for the CFS gate and one at the search root, however
    many states it expands."""
    from visualraag import squares

    builds = []
    build = squares._diagonal_adjacency

    def counted(sq):
        builds.append(sq)
        return build(sq)

    monkeypatch.setattr(squares, "_diagonal_adjacency", counted)
    stats = DismantleStats()
    verdict = relative_search(random_coning(seed=101, steps=20).graph, stats=stats)
    assert verdict.is_yes and stats.states_expanded == 20
    assert len(builds) <= 2


def test_relative_search_takes_the_cfs_gates_diagonal_graph(monkeypatch):
    """A "yes" builds the host's diagonal graph once, in the CFS gate, and
    the search restricts that one."""
    from visualraag import squares

    builds = []
    build = squares._diagonal_adjacency

    def counted(sq):
        builds.append(sq)
        return build(sq)

    monkeypatch.setattr(squares, "_diagonal_adjacency", counted)
    verdict = relative_search(random_coning(seed=101, steps=20).graph)
    assert verdict.is_yes
    assert len(builds) == 1


def test_stats_counters_populated():
    stats = DismantleStats()
    list(enumerate_dismantlings(fixtures()["ordermatters"].graph, stats=stats))
    assert stats.sequences_yielded == 12
    assert stats.states_expanded > 0
    assert stats.removals_tried >= stats.states_expanded


# ------------------------------------------------------------ condition (†)


def _ordermatters_sequence(first_removed_then):
    """Build the specific removal order used by the worked example."""
    g = fixtures()["ordermatters"].graph
    for seq in enumerate_dismantlings(g):
        if [s.x for s in reversed(seq.steps)] == first_removed_then:
            return seq
    raise AssertionError("expected sequence not enumerated")


def test_dagger_fails_for_bad_order():
    seq = _ordermatters_sequence([6, 5, 0])
    st0 = seq.steps[0]
    assert (st0.x, st0.cone, st0.candidates) == (0, bits((1, 3)), bits((2, 4)))
    out = check_dagger(seq)
    assert isinstance(out, DaggerFailure)
    assert out.index == 0 and out.feasible == 0


def test_dagger_succeeds_for_good_order():
    seq = _ordermatters_sequence([6, 5, 4])
    out = check_dagger(seq)
    assert not isinstance(out, DaggerFailure)
    assert out.steps[0].chosen == 0
    lam = reconstruct_lambda(out)
    g = seq.host
    assert verify_fidl(g, lam).passed
    # the reconstruction is one of the verified drawn candidates
    fx = fixtures()
    drawn = {
        frozenset(fx[f"potential_lambda_{k}"].lam.edges) for k in ("c", "d")
    }
    # allow automorphic images too: compare only which red tree shape we got
    assert (0, 2) in lam.edges or (0, 4) in lam.edges


def test_dagger_empty_sequence_passes():
    seqs = list(enumerate_dismantlings(square()))
    out = check_dagger(seqs[0])
    assert not isinstance(out, DaggerFailure)


def test_dagger_required_pair_forces_choice():
    g = complete_bipartite(2, 3)
    seqs = list(enumerate_dismantlings(g))
    # removing vertex 4 leaves the square on 0,1,2,3; require the edge {2,4}
    seq = next(s for s in seqs if s.steps[0].x == 4)
    out = check_dagger(seq, [(2, 4)])
    assert not isinstance(out, DaggerFailure)
    assert out.steps[0].chosen == 2
    out3 = check_dagger(seq, [(3, 4)])
    assert not isinstance(out3, DaggerFailure)
    assert out3.steps[0].chosen == 3
    # conflicting demands for the same step
    bad = check_dagger(seq, [(2, 4), (3, 4)])
    assert isinstance(bad, DaggerFailure)
    assert bad.conflict is not None


# ------------------------------------------------------------------ engines


def test_relative_search_wheel():
    g, lam = bicycle_wheel(3)
    verdict = relative_search(g)
    assert verdict.is_yes
    assert verdict.report.passed
    # the wheel has a unique witness: the two opposite-spoke stars
    assert set(verdict.lam.edges) == set(lam.edges)


def test_relative_search_with_satisfiable_requirement():
    g, _ = bicycle_wheel(3)
    pair = (g.vertex_id("x"), g.vertex_id("d2"))
    verdict = relative_search(g, [pair])
    assert verdict.is_yes
    assert tuple(sorted(pair)) in set(verdict.lam.edges)


def test_relative_search_with_unsatisfiable_requirement():
    g, _ = bicycle_wheel(3)
    pair = (g.vertex_id("c1"), g.vertex_id("c2"))
    verdict = relative_search(g, [pair])
    assert verdict.decision == "no"
    assert verdict.reason == "NoDaggerSequence"


def test_relative_search_required_pair_cycle():
    g, _ = bicycle_wheel(3)
    ids = [g.vertex_id(n) for n in ("c1", "c2", "c3")]
    verdict = relative_search(
        g, [(ids[0], ids[1]), (ids[1], ids[2]), (ids[2], ids[0])]
    )
    assert verdict.decision == "no"
    assert verdict.reason == "RequiredPairCycle"


def test_relative_search_mixed_class_pair():
    g, _ = bicycle_wheel(3)
    pair = (g.vertex_id("c1"), g.vertex_id("d2"))
    verdict = relative_search(g, [pair])
    assert verdict.decision == "no"
    assert verdict.reason == "RequiredPairMixedClasses"


def test_relative_search_rejects_adjacent_required_pair():
    g, _ = bicycle_wheel(3)
    with pytest.raises(ValueError):
        relative_search(g, [(g.vertex_id("x"), g.vertex_id("c1"))])


@pytest.mark.parametrize("search", [global_search, relative_search])
def test_required_pair_of_one_vertex_is_rejected(search):
    g, _ = bicycle_wheel(3)
    with pytest.raises(ValueError):
        search(g, [(g.vertex_id("x"), g.vertex_id("x"))])
    with pytest.raises(ValueError):
        search(square(), [(0, 0)])


def test_relative_search_c8_reason():
    verdict = relative_search(cycle_graph(8))
    assert verdict.decision == "no"
    # the pipeline gates in paper order: the empty diagonal graph refuses first
    assert verdict.reason == "NotStronglyCFS"


def test_global_search_square_yes_without_jsj():
    verdict = global_search(square())
    assert verdict.is_yes
    assert verdict.stage == "dismantle"
    delta = verdict.delta
    assert delta.n == 2 and delta.graph.edge_count() == 1


def test_global_search_assembles_common_neighbor_cylinders():
    # common neighbors of a cut pair are covered at assembly, so these cuts
    # are split at rather than falling back to whole-graph search
    k23 = complete_bipartite(2, 3)
    glued, _pair = wheel_glued_to_square()
    for g in (k23, glued):
        verdict = global_search(g)
        assert verdict.is_yes
        assert verdict.stage == "assemble"
        assert verify_fidl(g, verdict.lam).passed


def test_global_search_fixture_expectations():
    for name, f in fixtures().items():
        if f.expect_search is None:
            continue
        verdict = global_search(f.graph)
        assert verdict.decision == f.expect_search, (name, verdict.reason)
        if verdict.is_yes:
            assert verify_fidl(f.graph, verdict.lam).passed


def test_global_search_never_builds_the_graph_of_cylinders(monkeypatch):
    # the search reads the cuts and their crossings, never the rigid vertices
    def refuse(g):
        raise AssertionError("global_search built the graph of cylinders")

    monkeypatch.setattr(jsj, "graph_of_cylinders", refuse)
    decided = set()
    for name, f in fixtures().items():
        if f.expect_search is not None:
            assert global_search(f.graph).decision == f.expect_search, name
            decided.add(name)
    assert {"glued_wheels", "glued_trees_triple", "c8"} <= decided


def test_global_search_preconditions_refused():
    from conftest import path_graph

    verdict = global_search(path_graph(4))
    assert verdict.decision == "refused"
    assert verdict.stage == "precondition"


def test_global_search_budget():
    g = fixtures()["glued_wheels"].graph
    verdict = global_search(g, budget=Budget(deadline=0.0))
    assert verdict.decision in ("budget_exceeded", "yes")  # gates may finish first
    verdict2 = global_search(g, budget=Budget.from_seconds(60))
    assert verdict2.is_yes


def test_verdict_json_shape():
    verdict = global_search(square())
    data = verdict.to_json_dict()
    assert data["decision"] == "yes"
    assert "lambda" in data and "delta" in data and "sequence" in data
    assert "timings_ms" in data
    assert "timings_ms" not in verdict.to_json_dict(include_timings=False)


# ------------------------------------------------- engine agreement (small)


@given(st.integers(5, 8))
@settings(max_examples=30, deadline=None)
def test_engines_agree_on_random_small_graphs(n):
    from visualraag.dl import precondition_failures

    g = random_triangle_free(random.Random(n * 997 + 11), n)
    if precondition_failures(g):
        return
    mine = global_search(g)
    oracle = naive_search(g)
    assert mine.decision == oracle.decision


def test_coning_outputs_solve():
    for seed in range(5):
        seq = random_coning(seed, steps=8)
        assert verify_fidl(seq.graph, seq.lam).passed
        verdict = global_search(seq.graph)
        assert verdict.is_yes


# ------------------------------------------- step-checked search vs. plain


def test_step_checked_search_matches_enumeration_plus_dagger():
    # the step-checked search, failure memo included, decides exactly what
    # plain enumeration followed by check_dagger decides
    from pathlib import Path

    from visualraag.graphs import from_graph6

    sweep = (Path(__file__).parent / "data" / "connected_tf_nosep_le8.g6").read_text().split()
    seen = {"yes": 0, "NoDaggerSequence": 0, "NoDismantling": 0}
    for line in sweep:
        g = from_graph6(line)
        pairs = [(p, q) for p in range(g.n) for q in range(p + 1, g.n) if not g.has_edge(p, q)]
        for req in [[]] + [[(p, q)] for p, q in pairs]:
            verdict = relative_search(g, req)
            if verdict.stage not in ("dismantle", "dagger"):
                continue
            seqs = list(enumerate_dismantlings(g))
            passing = any(not isinstance(check_dagger(s, req), DaggerFailure) for s in seqs)
            if verdict.is_yes:
                assert passing, (line, req)
                assert not isinstance(check_dagger(verdict.sequence, req), DaggerFailure)
                seen["yes"] += 1
            elif verdict.reason == "NoDaggerSequence":
                assert seqs and not passing, (line, req)
                seen["NoDaggerSequence"] += 1
            else:
                assert verdict.reason == "NoDismantling" and not seqs, (line, req)
                seen["NoDismantling"] += 1
    assert seen["yes"] and seen["NoDaggerSequence"]


def test_verdict_dominators_are_check_daggers():
    # check_dagger is the one place dominators are chosen: re-running it on
    # the sequence of a "yes" changes nothing
    yes = 0
    for g in sweep_graphs():
        pairs = [(p, q) for p in range(g.n) for q in range(p + 1, g.n) if not g.has_edge(p, q)]
        for req in [[]] + [[(p, q)] for p, q in pairs]:
            verdict = relative_search(g, req)
            if verdict.is_yes:
                assert check_dagger(verdict.sequence, req) == verdict.sequence, (g.names, req)
                yes += 1
    assert yes


# ------------------------------------------------------------------ timings


@pytest.mark.parametrize("n", [5, 6])
def test_global_search_timings_do_not_overlap(n):
    g, _ = bicycle_wheel(n)
    t0 = time.perf_counter()
    verdict = global_search(g)
    wall_ms = (time.perf_counter() - t0) * 1000
    assert verdict.is_yes
    assert set(verdict.timings_ms) <= {"preconditions", "cfs", "cycles", "jsj", "search"}
    assert sum(verdict.timings_ms.values()) <= wall_ms
