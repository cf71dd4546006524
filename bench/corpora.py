"""Seeded graph corpora, one per workload.

Every corpus is a list of graph6 strings with the verdict each graph must
get, made from the workload's seed alone.  The coning corpus comes from
``visualraag.generators``, so a change to the generators changes it;
``digest`` tells whether two runs measured the same graphs.  The random
graphs copy the recipe of acceptance criterion 5 so that no test module is
imported.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import reference

SWEEP_FILE = Path(__file__).resolve().parent / "data" / "connected_tf_nosep_le8.g6"

# coning: one round holds one instance per step count, 20..32 steps (n = 24..36)
CONING_STEPS = tuple(range(20, 33))
CONING_ROUNDS = 32
# the n=64 reading of the ROADMAP target, decided once per run outside the
# metrics: the same instance in every run, so that readings compare across runs
CONING_PROBE_STEPS = 60
CONING_PROBE_SEED = 64
# oracle: one round is one sweep graph plus these random graphs, (n, smaller
# colour class, refuted by the CFS gate, copies), in order of decide time;
# (None, None) is a graph that is not bipartite (n = 9, 10, 11 in turn), which
# the oracle refutes at once.  The median graph of a run must fall inside one
# kind whose times are close together.  Graphs with a witness vary most: the
# oracle stops at the first witness, found after 1 to all of its tree pairs
# (3+6 graphs took 31-102 ms).  A graph that the CFS gate refutes has none, so
# the oracle tests every pair: 5+5 ones took 108-164 ms (p10-p90), and nine
# of them sit in the middle of each round; two 2+7 graphs, the slowest kind,
# hold the p95.  A run decides about 20 rounds, so 40 are made, each with a
# sweep graph drawn from the seed.  Bipartite graphs with more
# spanning-tree pairs (classes 2+8, 3+7, every n=11 kind) take 0.5-25 s each
# today, too long for a run to average many of them.
ORACLE_ROUND = (
    (None, None, False, 1),
    (9, 4, False, 1),
    (9, 3, False, 1),
    (10, 5, True, 9),
    (10, 4, False, 1),
    (9, 2, False, 2),
)
ORACLE_ROUNDS = 40


@dataclass
class Corpus:
    """graph6 strings with their expected verdict ("yes", or None when the
    oracle decides)."""

    graph6: list[str] = field(default_factory=list)
    expect: list[str | None] = field(default_factory=list)

    def add(self, g6: str, expect: str | None):
        self.graph6.append(g6)
        self.expect.append(expect)

    @property
    def ns(self) -> list[int]:
        return [len(reference.decode_graph6(s)) for s in self.graph6]

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.graph6).encode()).hexdigest()[:16]


def random_qualifying(rng: random.Random, n: int) -> list[int] | None:
    """Acceptance criterion 5's recipe: a bipartite-ish random graph (70%) or
    a random triangle-free graph (30%); None unless it qualifies."""
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
        adj = [0] * n
        for u, v in sorted(edges):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
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
    return adj if reference.qualifies(adj) else None


def balanced(values: Sequence) -> list:
    """``values`` reordered so that every prefix spreads over the whole range
    (golden-ratio sequence): a run that stops inside a round keeps the mix."""
    return [values[i] for i in sorted(range(len(values)), key=lambda i: i * 0.6180339887 % 1)]


def _graph6_of(g) -> str:
    """graph6 of a ``visualraag.graphs.Graph`` (vertex ids in order)."""
    return reference.encode_graph6(list(g.adj))


def coning(seed: int) -> Corpus:
    from visualraag.generators import random_coning

    rng = random.Random(seed)
    out = Corpus()
    for _ in range(CONING_ROUNDS):
        for steps in balanced(CONING_STEPS):
            seq = random_coning(seed=rng.randrange(2**32), steps=steps)
            out.add(_graph6_of(seq.graph), "yes")
    return out


def coning_probe() -> str:
    """The coning instance on 64 vertices that reads the ROADMAP's target."""
    from visualraag.generators import random_coning

    return _graph6_of(random_coning(seed=CONING_PROBE_SEED, steps=CONING_PROBE_STEPS).graph)


def oracle_round(round_no: int) -> list[tuple[int, int | None, bool]]:
    """(n, smaller colour class, refuted by the CFS gate) of each random graph
    in one oracle round."""
    out = []
    for n, small, refuted, copies in ORACLE_ROUND:
        out += [(9 + round_no % 3 if n is None else n, small, refuted)] * copies
    return out


def oracle(seed: int) -> Corpus:
    """``ORACLE_ROUNDS`` rounds, each one graph of the committed <=8-vertex
    sweep, drawn from the seed, and one random graph on 9-11 vertices per
    entry of ``oracle_round``."""
    sweep = SWEEP_FILE.read_text().split()
    rng = random.Random(seed)
    out = Corpus()
    for round_no, g6 in enumerate(rng.sample(sweep, ORACLE_ROUNDS)):
        for n, small, refuted in balanced([("sweep", None, False)] + oracle_round(round_no)):
            if n == "sweep":
                out.add(g6, None)
                continue
            while True:
                adj = random_qualifying(rng, n)
                if (adj is not None and reference.smaller_class(adj) == small
                        and (not refuted or reference.cfs_status(adj) != "StronglyCFS")):
                    break
            out.add(reference.encode_graph6(adj), None)
    return out


BUILDERS = {"coning": coning, "oracle": oracle}
