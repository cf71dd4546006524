#!/usr/bin/env python3
"""Print one digest line per family of decisions, to tell whether a change
altered any output of the package.

    python3 scripts/verdict_digest.py

Each line names a family, the number of outputs in it and the sha256 of
their JSON (timing fields left out, keys sorted), one output per line in a
fixed order.  Run it on two checkouts: equal lines mean equal verdicts,
witnesses, reports and enumerations on every input below.

``scripts/verdict_digest.txt`` holds the expected lines, and CI diffs the
output against it:

    python3 scripts/verdict_digest.py | diff scripts/verdict_digest.txt -

A change that alters an output updates that file and says why in
CHANGES.md.  The lines are the same under PYTHONHASHSEED=1 and 987 on
Python 3.11; they were not checked on 3.10 or 3.12.

Families:
- sweep/global: every graph of the committed <=8-vertex sweep, ``global_search``;
- sweep/relative: the sweep with ``relative_search``, with no required pair
  and with each single required non-edge;
- coning: coning seeds 101-104 at 20-32 steps, ``global_search`` and
  ``relative_search``;
- glued: the 100 gluings of acceptance criterion 8 (seed 0xA55E),
  ``global_search``;
- fixtures: every fixture with ``global_search``, ``relative_search`` and
  ``naive_search``, and ``verify_fidl`` of its witness;
- oracle: the first 100 graphs of the benchmark's oracle corpus (seed 101),
  ``global_search`` and ``naive_search``;
- cli: ``visualraag check`` and ``visualraag jsj`` JSON on every fixture;
- cycles: ``induced_cycles`` lists and CFS reports of the sweep and coning
  graphs;
- count: ``count_all_fidl`` on the sweep, the count and every witness, so
  the oracle's verdict on every tree pair it tests reaches the digest;
- verify: ``verify_fidl`` reports on 400 random spanning-tree pairs of the
  bipartite sweep graphs (seed 0x7E57); most fail, so the R1-R4 failure
  witnesses are covered too;
- dismantlings: on every sweep graph, every fixture and coning seeds 101-104
  at 8, 10 and 12 steps, every sequence ``enumerate_dismantlings`` yields
  (at most 2,000 per graph) with its ``DismantleStats``; then the
  ``DismantleStats`` of ``relative_search`` on the sweep, with no required
  pair and with each single required non-edge.  Search order and pruning
  reach the digest, not only a search's first sequence;
- sweep/global-required: the sweep with ``global_search`` and each single
  required non-edge, so required pairs that go through the split are
  covered.
"""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import corpora  # noqa: E402
from visualraag import cli  # noqa: E402
from visualraag.dismantle import (  # noqa: E402
    DismantleStats,
    enumerate_dismantlings,
    global_search,
    relative_search,
)
from visualraag.dl import Lambda, precondition_failures, verify_fidl  # noqa: E402
from visualraag.generators import fixtures, glue_at_lambda_edge, random_coning  # noqa: E402
from visualraag.graphs import (  # noqa: E402
    NotBipartiteError,
    bipartition,
    bit_list,
    from_graph6,
    induced_cycles,
    to_json,
)
from visualraag.oracle import count_all_fidl, naive_search  # noqa: E402
from visualraag.squares import cfs_status  # noqa: E402


def _verdict(v) -> dict:
    return v.to_json_dict(include_timings=False)


def _cfs(g) -> dict:
    report = cfs_status(g)
    return {"status": report.status.value, "diagonals": report.diagonal.diagonals,
            "witness": report.witness_component, "diagnostic": report.diagnostic}


def _glued_instances(count: int) -> list:
    """Two random conings glued along a witness edge each, kept when they
    pass the search preconditions (acceptance criterion 8's recipe)."""
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


def _random_tree_pairs(sweep: list, count: int):
    """(graph, witness) for ``count`` random pairs of spanning trees of the
    two class complements, each tree grown by attaching every vertex of a
    shuffled class to an earlier one (the complement is complete on a class)."""
    rng = random.Random(0x7E57)
    bipartite = []
    for g in sweep:
        with contextlib.suppress(NotBipartiteError):
            col = bipartition(g)
            bipartite.append((g, bit_list(col.red), bit_list(col.blue)))
    for _ in range(count):
        g, *classes = rng.choice(bipartite)
        trees = []
        for verts in classes:
            order = rng.sample(verts, len(verts))
            trees.append([(rng.choice(order[:i]), v) for i, v in enumerate(order) if i])
        yield g, Lambda.make(g, *trees)


def _dismantlings(g, cap: int = 2000) -> dict:
    stats = DismantleStats()
    seqs = [seq.to_json_dict() for seq in itertools.islice(enumerate_dismantlings(g, stats), cap)]
    return {"sequences": seqs, "stats": dataclasses.asdict(stats)}


def _relative_stats(g, req) -> dict:
    stats = DismantleStats()
    relative_search(g, req, stats=stats)
    return dataclasses.asdict(stats)


def _non_edge_requirements(g) -> list:
    """No required pair, then each single required non-edge."""
    return [()] + [[(u, w)] for u, w in itertools.combinations(range(g.n), 2)
                   if not g.has_edge(u, w)]


def _cli_json(argv: list[str], g) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        path.write_text(to_json(g))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--format", "json", "--no-timing", *argv, str(path)])
    return {"exit": code, "output": json.loads(out.getvalue())}


def families():
    sweep = [from_graph6(line) for line in corpora.SWEEP_FILE.read_text().split()]
    coning = [random_coning(seed=s, steps=k).graph for s in range(101, 105) for k in range(20, 33)]
    fx = fixtures()

    yield "sweep/global", (_verdict(global_search(g)) for g in sweep)
    yield "sweep/relative", (
        _verdict(relative_search(g, req)) for g in sweep for req in _non_edge_requirements(g)
    )
    yield "coning", (_verdict(search(g)) for g in coning for search in (global_search, relative_search))
    yield "glued", (_verdict(global_search(g)) for g in _glued_instances(100))
    yield "fixtures", (
        out
        for name, f in fx.items()
        for out in [_verdict(global_search(f.graph)), _verdict(relative_search(f.graph)),
                    _verdict(naive_search(f.graph))]
        + ([verify_fidl(f.graph, f.lam).to_json_dict()] if f.lam is not None else [])
    )
    oracle = [from_graph6(s) for s in corpora.oracle(101).graph6[:100]]
    yield "oracle", (_verdict(search(g)) for g in oracle for search in (global_search, naive_search))
    yield "cli", (_cli_json([cmd], f.graph) for f in fx.values() for cmd in ("check", "jsj"))
    yield "cycles", (
        out for g in sweep + coning for out in (list(induced_cycles(g)), _cfs(g))
    )
    yield "count", (
        [count, [lam.to_json_dict() for lam in lams]]
        for g in sweep
        for count, lams in [count_all_fidl(g)]
    )
    yield "verify", (
        [lam.to_json_dict(), verify_fidl(g, lam).to_json_dict()]
        for g, lam in _random_tree_pairs(sweep, 400)
    )
    small_coning = [random_coning(seed=s, steps=k).graph for s in range(101, 105) for k in (8, 10, 12)]
    yield "dismantlings", itertools.chain(
        (_dismantlings(g) for g in sweep + [f.graph for f in fx.values()] + small_coning),
        (_relative_stats(g, req) for g in sweep for req in _non_edge_requirements(g)),
    )
    yield "sweep/global-required", (
        _verdict(global_search(g, req)) for g in sweep for req in _non_edge_requirements(g)[1:]
    )


def main() -> int:
    for name, outputs in families():
        h = hashlib.sha256()
        count = 0
        for out in outputs:
            h.update(json.dumps(out, sort_keys=True).encode() + b"\n")
            count += 1
        print(f"{name}: {count} outputs sha256 {h.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
