"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Yes-instances found by the earlier criteria are collected and fed to
the convexity property criterion.
"""

import itertools
import random
import statistics
import time
from pathlib import Path

import networkx as nx
import pytest

from visualraag.dismantle import (
    DaggerFailure,
    check_dagger,
    enumerate_dismantlings,
    forbidden_cycle_check,
    global_search,
    relative_search,
)
from visualraag.dl import (
    Lambda,
    is_lambda_convex,
    precondition_failures,
    verify_fidl,
)
from visualraag.graphs import (
    Graph,
    bipartition,
    bits,
    bit_list,
    from_graph6,
    link,
)
from visualraag.jsj import (
    assemble_lambdas,
    crosses,
    find_cuts,
    graph_of_cylinders,
    uncrossed_cuts,
)
from visualraag.oracle import OracleLimits, naive_search
from visualraag.squares import CfsStatus, cfs_status
from visualraag.generators import (
    bicycle_wheel,
    fixtures,
    glue_at_lambda_edge,
    mixed_tree_instance,
    random_coning,
)

DATA = Path(__file__).parent / "data"

# yes-instances (graph, witness) accumulated across criteria for criterion 7
COLLECTED_YES: list[tuple[Graph, Lambda]] = []


def _cycle_graph(n: int) -> Graph:
    return Graph.from_int_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _record(g: Graph, lam: Lambda):
    COLLECTED_YES.append((g, lam))


def _report(criterion: int, ok: bool, note: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{' - ' + note if note else ''}")
    assert ok, f"criterion {criterion} failed: {note}"


# --------------------------------------------------------------- criterion 1


def test_criterion_1_paper_examples():
    fx = fixtures()
    cases = ["square"] + [f"wheel{n}" for n in range(3, 7)] + [
        "cube_with_diagonal", "ordermatters", "mixed_tree",
    ]
    slow = []
    for name in cases:
        g = fx[name].graph
        t0 = time.perf_counter()
        verdict = global_search(g)
        elapsed = time.perf_counter() - t0
        assert verdict.is_yes, (name, verdict.reason)
        assert verify_fidl(g, verdict.lam).passed, name
        _record(g, verdict.lam)
        if elapsed >= 1.0:
            slow.append((name, elapsed))
    for n in range(3, 7):
        g, lam = bicycle_wheel(n)
        verdict = global_search(g)
        delta = verdict.delta.graph
        rim = nx.cycle_graph(2 * n)
        got = nx.Graph(list(delta.edges()))
        got.add_nodes_from(range(delta.n))
        assert nx.is_isomorphic(got, rim), f"wheel{n} commuting graph is not C_{2*n}"
    _report(1, not slow, f"all searched yes and verified; slow={slow}")


# --------------------------------------------------------------- criterion 2


def test_criterion_2_order_dependence():
    g = fixtures()["ordermatters"].graph
    bad = good = None
    for seq in enumerate_dismantlings(g):
        st0 = seq.steps[0]
        if (st0.x, st0.cone, st0.candidates) == (0, bits((1, 3)), bits((2, 4))):
            outcome = check_dagger(seq)
            if isinstance(outcome, DaggerFailure) and outcome.index == 0 and outcome.feasible == 0:
                bad = seq
        if st0.x == 4 and st0.cone == bits((1, 3)):
            outcome = check_dagger(seq)
            if not isinstance(outcome, DaggerFailure) and outcome.steps[0].chosen == 0:
                good = outcome
    assert bad is not None, "the infeasible removal order was not enumerated"
    assert good is not None, "the feasible removal order was not enumerated"
    lam = None
    from visualraag.dismantle import reconstruct_lambda

    lam = reconstruct_lambda(good)
    assert verify_fidl(g, lam).passed
    _record(g, lam)
    _report(2, True, "x1=0 order fails with empty feasible set; x1=4 order picks v0=0")


# --------------------------------------------------------------- criterion 3


def test_criterion_3_candidate_witnesses():
    fx = fixtures()
    outcomes = {}
    for key, expected in (("a", False), ("b", False), ("c", True), ("d", True)):
        f = fx[f"potential_lambda_{key}"]
        report = verify_fidl(f.graph, f.lam)
        outcomes[key] = report.passed
        assert report.passed == expected, (key, report.to_json())
        if report.passed:
            _record(f.graph, f.lam)
    _report(3, True, f"checker verdicts {outcomes}")


# --------------------------------------------------------------- criterion 4


def test_criterion_4_negative_gates():
    hexagon = _cycle_graph(6)
    assert cfs_status(hexagon).status is CfsStatus.NOT_CFS
    verdict6 = global_search(hexagon)
    assert verdict6.decision == "no" and verdict6.reason == "NotStronglyCFS"

    c8 = _cycle_graph(8)
    obstruction = forbidden_cycle_check(c8)
    assert obstruction is not None and obstruction["kind"] == "long_cycle_without_2_chord"
    assert global_search(c8).decision == "no"

    # crossing cut pairs flag the hanging gate of the cylinder decomposition
    cuts8 = find_cuts(c8)
    k04 = next(k for k in cuts8 if set(k.vertices) == {0, 4})
    k26 = next(k for k in cuts8 if set(k.vertices) == {2, 6})
    assert crosses(c8, k04, k26) and crosses(c8, k26, k04)
    goc = graph_of_cylinders(c8)
    assert goc.hanging and goc.crossing_witness is not None
    _report(4, True, "hexagon NotCFS; C8 ForbiddenCycle; crossing pairs raise the hanging flag")


# --------------------------------------------------------------- criterion 5


def _random_qualifying(rng: random.Random, n: int) -> Graph | None:
    if rng.random() < 0.7:
        k = rng.randint(2, n - 2)
        edges = set()
        for v in range(k, n):
            for u in rng.sample(range(k), rng.randint(1, min(k, 4))):
                edges.add((u, v))
        for u in range(k):
            for v in range(k, n):
                if rng.random() < 0.25:
                    edges.add((u, v))
        g = Graph.from_int_edges(n, sorted(edges))
    else:
        adj = [0] * n
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        for i, j in pairs:
            if adj[i] & adj[j]:
                continue
            if rng.random() < 0.55:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        g = Graph([str(i) for i in range(n)], adj)
    return None if precondition_failures(g) else g


def test_criterion_5_oracle_equivalence_sweep():
    stream = (DATA / "connected_tf_nosep_le8.g6").read_text().split()
    assert len(stream) >= 80
    disagreements = []
    for line in stream:
        g = from_graph6(line)
        mine = global_search(g)
        oracle = naive_search(g)
        if mine.decision != oracle.decision:
            disagreements.append((line, mine.decision, oracle.decision))
        elif mine.is_yes:
            _record(g, mine.lam)
    rng = random.Random(0x5EED)
    produced = 0
    while produced < 500:
        g = _random_qualifying(rng, rng.randint(9, 11))
        if g is None:
            continue
        produced += 1
        mine = global_search(g)
        oracle = naive_search(g, OracleLimits(max_tree_pairs=5_000_000))
        if mine.decision != oracle.decision:
            disagreements.append((g.adj, mine.decision, oracle.decision))
        elif mine.is_yes:
            _record(g, mine.lam)
    _report(
        5,
        not disagreements,
        f"{len(stream)} exhaustive + {produced} random graphs, "
        f"disagreements={disagreements[:3]}",
    )


# --------------------------------------------------------------- criterion 6


def test_criterion_6_generator_soundness():
    rng = random.Random(0xC0C0)
    bad = []
    for i in range(1000):
        steps = rng.randint(0, 40)
        seq = random_coning(seed=rng.randrange(2**32), steps=steps)
        if not verify_fidl(seq.graph, seq.lam).passed:
            bad.append(("verify", i))
            continue
        verdict = global_search(seq.graph)
        if not verdict.is_yes:
            bad.append(("search", i, verdict.reason))
            continue
        _record(seq.graph, seq.lam)
    _report(6, not bad, f"1000 grown instances verified and searched; bad={bad[:3]}")


# --------------------------------------------------------------- criterion 7


def test_criterion_7_convexity_properties():
    from visualraag.dl import HullOracle

    assert COLLECTED_YES, "earlier criteria must have collected yes-instances"
    violations = []
    for g, lam in COLLECTED_YES:
        edge_set = set(lam.edges)
        try:
            bipartition(g)
        except Exception:
            violations.append(("bipartite", g.names))
            continue
        if cfs_status(g).status is not CfsStatus.STRONGLY_CFS:
            violations.append(("strongly_cfs", g.names))
        for cut in find_cuts(g):
            a, b = cut.vertices[0], cut.vertices[1]
            if tuple(sorted((a, b))) not in edge_set:
                violations.append(("cut_edge", g.names, cut.vertices))
        hulls = HullOracle(lam)
        for v in range(g.n):
            lk = link(g, v)
            if hulls.hull(lk) != lk:
                violations.append(("link_convex", g.names, v))
        for a, b in itertools.combinations(range(g.n), 2):
            common = link(g, a) & link(g, b)
            if common and hulls.hull(common) != common:
                violations.append(("link_intersection_convex", g.names, (a, b)))
    _report(
        7,
        not violations,
        f"{len(COLLECTED_YES)} yes-instances checked; violations={violations[:3]}",
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_8_split_assemble_round_trip():
    rng = random.Random(0xA55E)
    failures = []
    done = 0
    while done < 100:
        s1 = random_coning(seed=rng.randrange(2**32), steps=rng.randint(1, 7))
        s2 = random_coning(seed=rng.randrange(2**32), steps=rng.randint(1, 7))
        e1 = s1.lam.edges[rng.randrange(len(s1.lam.edges))]
        e2 = s2.lam.edges[rng.randrange(len(s2.lam.edges))]
        g, (p, q) = glue_at_lambda_edge((s1.graph, s1.lam), (s2.graph, s2.lam), e1, e2)
        if precondition_failures(g):
            continue
        cuts = find_cuts(g)
        target = next((k for k in cuts if set(k.vertices) == {p, q}), None)
        if target is None or target not in uncrossed_cuts(g, cuts):
            continue
        done += 1
        parts = [g.subgraph(comp | target.mask) for comp in target.components]
        solved = []
        ok = True
        for comp, part in zip(target.components, parts):
            if comp.bit_count() == 1:
                # a common neighbor of p and q: a cylinder vertex, covered by
                # assemble_lambdas; its bare 2-path is not a part to solve
                assert comp & g.adj[p] & g.adj[q]
                continue
            pa = part.vertex_id(g.names[p])
            pb = part.vertex_id(g.names[q])
            sub = relative_search(part, [(pa, pb)])
            if not sub.is_yes:
                failures.append(("part_failed", done, sub.reason))
                ok = False
                break
            solved.append((part, sub.lam))
        if not ok:
            continue
        lam = assemble_lambdas(g, target, solved)
        if not verify_fidl(g, lam).passed:
            failures.append(("assembled_invalid", done))
            continue
        whole = global_search(g)
        if not whole.is_yes:
            failures.append(("whole_graph_disagrees", done, whole.reason))
            continue
        _record(g, lam)
    _report(8, not failures, f"{done} glued instances round-tripped; failures={failures[:3]}")


# --------------------------------------------------------------- criterion 9


def test_criterion_9_performance_comparison():
    stream = (DATA / "connected_tf_nosep_le8.g6").read_text().split()
    d_times, o_times = [], []
    stages: dict[str, int] = {}
    for line in stream:
        g = from_graph6(line)
        t0 = time.perf_counter()
        mine = global_search(g)
        d_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        naive_search(g)
        o_times.append(time.perf_counter() - t0)
        if mine.decision == "no":
            stages[mine.stage] = stages.get(mine.stage, 0) + 1
            assert mine.stage in ("cfs", "cycles", "jsj", "split", "dismantle", "dagger")
    d_med = statistics.median(d_times)
    o_med = statistics.median(o_times)
    note = (
        f"median dismantle {d_med*1000:.2f} ms vs oracle {o_med*1000:.2f} ms; "
        f"refusal stages {stages}"
    )
    assert stages, "no refusal stages recorded"
    _report(9, d_med < o_med, note)
