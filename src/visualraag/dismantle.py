"""Satellite-dismantling search.

A graph admits a witness exactly when it can be reduced to a square by
repeatedly deleting satellite vertices through intermediates that stay
incomplete, triangle-free and clique-unseparated, such that every step admits
a dominating vertex compatible with all later links (the per-step feasibility
condition checked by ``check_dagger``).  The witness is then reconstructed by
replaying the removals as conings.

One backtracking core, ``_dismantle``, with one failure memo, serves both
``enumerate_dismantlings`` (every sequence) and ``relative_search`` (the
first sequence whose steps pass the step condition, checked as each step is
made); it reads each state's strong CFS off the host's one diagonal graph,
the CFS gate's in ``relative_search``, and carries the separating-clique
test from each state to its children.
``global_search``, the one entry point, runs the gates of
``_gate_verdict`` once and divides and conquers over the cuts, which after
the gates never cross, carrying the required witness edges down the split;
``relative_search``, its leaf solver, runs the same gates and that search
on one whole graph.  ``check_dagger`` fixes the dominators of every witness,
and every "yes" goes through ``dl.verified`` on the graph it answers for.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, Sequence

from . import jsj
from .dl import (
    CommutingGraph,
    DLReport,
    Lambda,
    commuting_graph,
    precondition_failures,
    verified,
)
from .graphs import (
    Graph,
    NotBipartiteError,
    bipartition,
    bit_list,
    bits,
    dominator,
    find_edge_cycle,
    has_separating_clique,
    induced_cycles,
    iter_bits,
    n_chords,
)
from .squares import CfsStatus, DiagonalGraph, cfs_status, diagonal_graph


class BudgetExceeded(Exception):
    """Raised internally when a search deadline or size budget is hit."""


@dataclass(frozen=True)
class Budget:
    """Soft wall-clock deadline shared by the search loops; ``Budget()`` has
    none, and is every search's default."""

    deadline: float | None = None  # absolute time.monotonic() value

    @classmethod
    def from_seconds(cls, seconds: float | None) -> "Budget":
        return cls(None if seconds is None else time.monotonic() + seconds)

    def check(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded


# ------------------------------------------------------------- data carriers


@dataclass(frozen=True)
class DismantlingStep:
    """One coning layer: x joined to exactly ``cone`` (its link at removal
    time); ``candidates`` are the vertices of the lower stratum whose links
    contain the cone set; ``chosen`` is the dominating vertex once
    ``check_dagger`` fixes it."""

    x: int
    cone: int
    candidates: int
    chosen: int | None = None

    def to_json_dict(self, g: Graph) -> dict:
        return {
            "x": g.names[self.x],
            "N": [g.names[v] for v in iter_bits(self.cone)],
            "V": [g.names[v] for v in iter_bits(self.candidates)],
            "v": None if self.chosen is None else g.names[self.chosen],
        }


@dataclass(frozen=True)
class DismantlingSequence:
    """Removal order recorded in coning order: steps[i] describes the vertex
    that rebuilds stratum i+1 from stratum i; the base is a square."""

    host: Graph
    base: int  # mask of the terminal square
    steps: tuple[DismantlingStep, ...]

    def stratum(self, i: int) -> int:
        """Vertex mask of the graph at coning stage i (base is stage 0)."""
        m = self.base
        for step in self.steps[:i]:
            m |= 1 << step.x
        return m

    def with_choices(self, chosen: Sequence[int]) -> "DismantlingSequence":
        steps = tuple(
            DismantlingStep(s.x, s.cone, s.candidates, c)
            for s, c in zip(self.steps, chosen)
        )
        return DismantlingSequence(self.host, self.base, steps)

    def to_json_dict(self) -> dict:
        return {
            "base": [self.host.names[v] for v in iter_bits(self.base)],
            "steps": [s.to_json_dict(self.host) for s in self.steps],
        }


@dataclass(frozen=True)
class Verdict:
    """Outcome of a search engine.

    ``decision`` is one of "yes", "no", "refused", "budget_exceeded".
    Yes carries the verified witness, the dismantling certificate (when
    produced by the dismantling engine) and the verification transcript; its
    commuting graph ``delta`` is derived from the witness when first read.
    No carries a structured reason with a concrete witness.  ``stage`` names
    the pipeline stage that decided.
    """

    decision: str
    stage: str
    reason: str | None = None
    detail: dict = field(default_factory=dict)
    lam: Lambda | None = None
    sequence: DismantlingSequence | None = None
    report: DLReport | None = None
    timings_ms: dict = field(default_factory=dict)

    @classmethod
    def refusal(cls, fails: list[str], timings: dict) -> "Verdict":
        """The verdict on a graph that fails the preconditions."""
        return cls("refused", "precondition", reason="PreconditionFailed",
                   detail={"failures": fails}, timings_ms=timings)

    @property
    def is_yes(self) -> bool:
        return self.decision == "yes"

    @cached_property
    def delta(self) -> CommutingGraph | None:
        """The commuting graph of the witness, None without one."""
        return None if self.lam is None else commuting_graph(self.lam.host, self.lam)

    def to_json_dict(self, include_timings: bool = True) -> dict:
        out: dict = {"decision": self.decision, "stage": self.stage}
        if self.reason is not None:
            out["reason"] = self.reason
        if self.detail:
            out["detail"] = self.detail
        if self.lam is not None:
            out["lambda"] = self.lam.to_json_dict()
            out["delta"] = self.delta.to_json_dict()
        if self.sequence is not None:
            seq = self.sequence.to_json_dict()
            out["sequence"] = seq["steps"]
            out["base_square"] = seq["base"]
        if self.report is not None:
            out["report"] = self.report.to_json_dict()
        if include_timings:
            out["timings_ms"] = self.timings_ms
        return out

    def to_json(self, include_timings: bool = True, **kwargs) -> str:
        return json.dumps(self.to_json_dict(include_timings), **kwargs)


# ----------------------------------------------------------------- gate: cycles


def forbidden_cycle_check(g: Graph) -> dict | None:
    """None when no obstruction exists, else a witness dict.

    Obstructions: an odd cycle (graph not bipartite); an induced cycle longer
    than 6 without a 2-chord (induced cycles cannot have 1-chords); an
    induced 6-cycle that is not the rim of a wheel subgraph (alternating
    hub neighbors joined by an edge).
    """
    try:
        bipartition(g)
    except NotBipartiteError as err:
        return {"kind": "odd_cycle", "cycle": [g.names[v] for v in err.odd_walk]}
    for cyc in induced_cycles(g):
        k = len(cyc)
        if k == 6:
            c0, c1, c2, c3, c4, c5 = cyc
            hub_x = g.adj[c0] & g.adj[c2] & g.adj[c4]
            hub_y = g.adj[c1] & g.adj[c3] & g.adj[c5]
            if not any(g.adj[x] & hub_y for x in iter_bits(hub_x)):
                return {
                    "kind": "hexagon_not_wheel_rim",
                    "cycle": [g.names[v] for v in cyc],
                }
        elif k > 6:
            if not n_chords(g, cyc, 2):
                return {
                    "kind": "long_cycle_without_2_chord",
                    "cycle": [g.names[v] for v in cyc],
                }
    return None


# ------------------------------------------------- dismantling enumeration


@dataclass
class DismantleStats:
    """Counters exposed for order-dependence experiments."""

    states_expanded: int = 0
    removals_tried: int = 0
    sequences_yielded: int = 0


def _is_square_mask(g: Graph, mask: int) -> bool:
    """Is the four-vertex ``mask`` an induced square?  Every vertex has two
    neighbours in it, and the only 2-regular graph on four vertices is the
    4-cycle."""
    return all((g.adj[v] & mask).bit_count() == 2 for v in iter_bits(mask))


# a removal: (x, cone = link of x at removal time)
Removal = tuple[int, int]


def _dismantle(
    g: Graph,
    dg: DiagonalGraph,
    required: Sequence[tuple[int, int]] | None,
    stats: DismantleStats,
    budget: Budget,
    clean_root: bool,
) -> Iterator[list[Removal]]:
    """Backtrack over satellite removal orders reaching a square; yields the
    removal lists in search order.

    Candidates at each state are satellites of the current induced subgraph
    whose removal leaves an admissible graph: one with no separating clique
    that is strongly CFS.  The pruning is sound because the guaranteed
    sequence passes through graphs that themselves admit witnesses.
    Triangle-freeness and incompleteness hold automatically above the base,
    and the four-vertex terminal state must be a square.

    Strong CFS is read off ``dg``, the host's diagonal graph, which the
    caller builds (``relative_search`` takes the CFS gate's): each state's
    is that graph restricted to the state's mask
    (``DiagonalGraph.strongly_cfs``), so the search builds none.  The
    separating-clique test is carried from a state to its children.  Lemma: if the state M has no
    separating clique and w dominates the satellite x in M, every
    separating clique S of M - x contains w.
    Proof: if w is not in S, the neighbours of x outside S are neighbours of
    w, so in w's component of M - x - S; so M - S has at least as many
    components as M - x - S, and S would separate M.  So only the cliques
    through w are tested: M - x stays connected, and on a triangle-free
    graph the check is {w} and {w, u} for u in lk(w).  Every state below
    the root was admitted; the root has no separating clique when
    ``clean_root``, and otherwise its children are tested on every clique.

    With ``required=None`` every dismantling is yielded.  Given a list,
    each removal is checked as it is made: its feasible set is the candidate
    set (vertices of the remaining graph whose links contain the cone)
    intersected with every earlier cone that contains x and meets the
    remaining graph, and a required pair whose later endpoint is x pins the
    choice to its earlier endpoint.  An empty set kills the branch, so every
    yielded list passes ``check_dagger``, which computes the same sets and
    picks the dominators; the search keeps none.

    Failures are memoized.  Without a step condition the future of a state
    depends on its vertex mask alone.  With one, it depends on the mask and
    the set of nonzero ``cone & mask`` over the earlier removals.  Proof: a
    later step removes x from mask M, leaving rest R, with x in M and R
    inside M.  An earlier cone C constrains it iff x is in C and C meets R.
    Both tests read only C & M, since x and R lie in M.  Its effect is
    ``feas &= C``, where feas lies inside the candidate set, hence inside R,
    hence inside M; so ``feas & C == feas & (C & M)``.  A cone with
    ``C & M == 0`` never constrains anything below M.  The required-pair
    pins depend only on x and R.  So two histories with equal keys have the
    same completions, and a key that once failed fails again.  The memo
    prunes only subtrees that yielded nothing, so the search order and the
    first result are those of the unmemoized search.
    """
    checked = required is not None
    pins: dict[int, list[int]] = {}
    for p, q in required or ():
        pins.setdefault(p, []).append(q)
        pins.setdefault(q, []).append(p)
    admissible_cache: dict[int, bool] = {}
    failed: set = set()

    def admissible(rest: int, through: int | None) -> bool:
        got = admissible_cache.get(rest)
        if got is None:
            got = admissible_cache[rest] = (
                not has_separating_clique(g, rest, through) and dg.strongly_cfs(rest))
        return got

    def descend(mask: int, removed: list[Removal], clean: bool) -> Iterator[list[Removal]]:
        budget.check()
        key = (mask, frozenset(c & mask for _, c in removed if c & mask)) if checked else mask
        if key in failed:
            return
        if mask.bit_count() == 4:
            if _is_square_mask(g, mask):
                stats.sequences_yielded += 1
                yield removed
            else:
                failed.add(key)
            return
        stats.states_expanded += 1
        produced = False
        for x in sorted(iter_bits(mask), key=lambda v: ((g.adj[v] & mask).bit_count(), v)):
            w = dominator(g, x, mask)
            if w is None:
                continue
            stats.removals_tried += 1
            rest = mask & ~(1 << x)
            if not admissible(rest, w if clean else None):
                continue
            lx = g.adj[x] & mask
            if checked:
                feas = bits(v for v in iter_bits(rest) if lx & ~(g.adj[v] & rest) == 0)
                for _, cone in removed:
                    # earlier removals sit in higher strata
                    if cone >> x & 1 and cone & rest:
                        feas &= cone
                partners = {w for w in pins.get(x, ()) if rest >> w & 1}
                if len(partners) > 1:
                    # a single removal realizes a single witness edge
                    continue
                if partners:
                    feas &= 1 << partners.pop()
                if not feas:
                    continue
            for done in descend(rest, removed + [(x, lx)], True):
                produced = True
                yield done
        if not produced:
            failed.add(key)

    yield from descend(g.full_mask, [], clean_root)


def _sequence(g: Graph, removed: list[Removal]) -> DismantlingSequence:
    """Steps in coning order, candidate sets computed on the lower stratum,
    with no chosen dominators: ``check_dagger`` picks them."""
    base = g.full_mask
    for x, _ in removed:
        base &= ~(1 << x)
    steps: list[DismantlingStep] = []
    stratum = base
    for x, cone in reversed(removed):
        cand = bits(v for v in iter_bits(stratum) if cone & ~(g.adj[v] & stratum) == 0)
        steps.append(DismantlingStep(x, cone, cand))
        stratum |= 1 << x
    return DismantlingSequence(g, base, tuple(steps))


def enumerate_dismantlings(
    g: Graph,
    stats: DismantleStats | None = None,
    budget: Budget = Budget(),
) -> Iterator[DismantlingSequence]:
    """Every dismantling sequence of ``g``, in search order, without chosen
    dominators (see ``_dismantle``)."""
    if stats is None:
        stats = DismantleStats()
    for removed in _dismantle(g, diagonal_graph(g), None, stats, budget,
                              not has_separating_clique(g)):
        yield _sequence(g, removed)


# -------------------------------------------------------------- condition (†)


@dataclass(frozen=True)
class DaggerFailure:
    index: int
    feasible: int
    conflict: tuple[int, int] | None = None  # clashing forced choices


def check_dagger(
    seq: DismantlingSequence, required: Sequence[tuple[int, int]] = ()
) -> DismantlingSequence | DaggerFailure:
    """Per-step feasibility: for step i the dominating vertex must lie in the
    candidate set intersected with every later cone set that contains x_{i+1}
    and meets stratum i.

    The quantifier has no coupling across steps, so per-step intersection is
    exact.  Required pairs whose later vertex is x_{i+1} pin the choice to the
    earlier vertex; pairs inside the base square are its diagonals and hold
    automatically.  Unconstrained steps take the lowest-index feasible vertex.
    This is the one place dominators are chosen: the searches' witnesses are
    rebuilt from the sequence it returns.
    """
    g = seq.host
    n = len(seq.steps)
    strata = [seq.stratum(i) for i in range(n + 1)]
    feasible: list[int] = []
    for i, step in enumerate(seq.steps):
        f = step.candidates
        for j in range(i + 1, n):
            later = seq.steps[j]
            if later.cone >> step.x & 1 and later.cone & strata[i]:
                f &= later.cone
        if f == 0:
            return DaggerFailure(i, 0)
        feasible.append(f)
    forced: dict[int, int] = {}
    stage = {}
    for i, step in enumerate(seq.steps):
        stage[step.x] = i
    for p, q in required:
        ip = stage.get(p, -1)
        iq = stage.get(q, -1)
        if ip < 0 and iq < 0:
            continue  # both in the base square: they are its diagonals
        earlier = p if iq > ip else q
        i = max(ip, iq)
        if i in forced and forced[i] != earlier:
            return DaggerFailure(i, feasible[i], (forced[i], earlier))
        if not feasible[i] >> earlier & 1:
            return DaggerFailure(i, feasible[i] & 1 << earlier)
        forced[i] = earlier
    chosen = [
        forced.get(i, (f & -f).bit_length() - 1) for i, f in enumerate(feasible)
    ]
    return seq.with_choices(chosen)


def reconstruct_lambda(seq: DismantlingSequence) -> Lambda:
    """Base-square diagonals plus one edge per step from the chosen dominator
    to the new vertex; colors follow the canonical bipartition."""
    g = seq.host
    base = bit_list(seq.base)
    edges = []
    for u in base:
        for w in base:
            if u < w and not g.has_edge(u, w):
                edges.append((u, w))
    for step in seq.steps:
        if step.chosen is None:
            raise ValueError("sequence has no chosen dominators; run check_dagger")
        edges.append(tuple(sorted((step.chosen, step.x))))
    col = bipartition(g)
    red = [e for e in edges if col.red >> e[0] & 1]
    blue = [e for e in edges if not col.red >> e[0] & 1]
    return Lambda.make(g, red, blue)


# ---------------------------------------------------------------- the engines


def record_stage(timings: dict, key: str, t0: float) -> float:
    """Record the milliseconds since ``t0`` as stage ``key``; returns the
    current time, the start of the next stage."""
    now = time.perf_counter()
    timings[key] = round((now - t0) * 1000, 3)
    return now


def _gate_verdict(
    g: Graph, req: list[tuple[int, int]], timings: dict, t0: float
) -> Verdict | DiagonalGraph:
    """The gates of both searches in order, each timed from ``t0``:
    preconditions, strongly CFS, forbidden cycles, then, when pairs are
    required, required pairs class-consistent and acyclic.  Returns the
    verdict of the first that fails, or the CFS gate's diagonal graph of
    ``g`` when all pass."""
    fails = precondition_failures(g)
    t0 = record_stage(timings, "preconditions", t0)
    if fails:
        return Verdict.refusal(fails, timings)
    cfs = cfs_status(g)
    t0 = record_stage(timings, "cfs", t0)
    if cfs.status is not CfsStatus.STRONGLY_CFS:
        return Verdict("no", "cfs", reason="NotStronglyCFS",
                       detail={"status": cfs.status.value, "diagnostic": cfs.diagnostic},
                       timings_ms=timings)
    obstruction = forbidden_cycle_check(g)
    t0 = record_stage(timings, "cycles", t0)
    if obstruction is not None:
        return Verdict("no", "cycles", reason="ForbiddenCycle", detail=obstruction,
                       timings_ms=timings)
    if req:
        bad = _required_pair_obstruction(g, req)
        record_stage(timings, "required_pairs", t0)
        if bad is not None:
            reason, detail = bad
            return Verdict("no", "required_pairs", reason=reason, detail=detail,
                           timings_ms=timings)
    return cfs.diagonal


def relative_search(
    g: Graph,
    required: Sequence[tuple[int, int]] = (),
    budget: Budget = Budget(),
    stats: DismantleStats | None = None,
) -> Verdict:
    """Find a witness of the whole graph ``g`` containing every required
    pair, or decide none exists: the leaf solver of ``global_search``, and
    the whole-graph reference it is tested against.

    After the gates (``_gate_verdict``), the first dismantling sequence whose
    steps pass the step condition, searched on the CFS gate's diagonal
    graph, so a "yes" builds one.  ``check_dagger`` picks its dominators,
    and the witness rebuilt from them goes through ``dl.verified`` on ``g``.
    A failed search runs ``enumerate_dismantlings`` once more to tell
    ``NoDismantling`` from ``NoDaggerSequence``.
    """
    timings: dict = {}
    t0 = time.perf_counter()
    req = _normalize_required(g, required)
    gated = _gate_verdict(g, req, timings, t0)
    if isinstance(gated, Verdict):
        return gated
    t0 = time.perf_counter()
    if stats is None:
        stats = DismantleStats()
    try:
        # the preconditions ruled out a separating clique of g
        removed = next(_dismantle(g, gated, req, stats, budget, True), None)
        if removed is not None:
            seq = check_dagger(_sequence(g, removed), req)
            if isinstance(seq, DaggerFailure):
                raise AssertionError(
                    "internal consistency: step-checked search produced an infeasible sequence"
                )
            lam = reconstruct_lambda(seq)
            report = verified(g, lam)
            record_stage(timings, "dismantle", t0)
            return Verdict("yes", "dismantle", lam=lam, sequence=seq, report=report,
                           timings_ms=timings)
        record_stage(timings, "dismantle", t0)
        if next(enumerate_dismantlings(g, budget=budget), None) is None:
            return Verdict("no", "dismantle", reason="NoDismantling", timings_ms=timings)
        return Verdict("no", "dagger", reason="NoDaggerSequence", timings_ms=timings)
    except BudgetExceeded:
        return Verdict("budget_exceeded", "dismantle", reason="BudgetExceeded",
                       timings_ms=timings)


def _normalize_required(g: Graph, required: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """The required pairs sorted, in first-seen order, without repeats;
    ValueError for a pair of one vertex or an edge of ``g``."""
    out: dict[tuple[int, int], None] = {}
    for p, q in required:
        if p == q:
            raise ValueError("required pair must have distinct vertices")
        if g.has_edge(p, q):
            raise ValueError(f"required pair {g.names[p]}-{g.names[q]} is an edge of the graph")
        out[(p, q) if p < q else (q, p)] = None
    return list(out)


def _required_pair_obstruction(
    g: Graph, req: list[tuple[int, int]]
) -> tuple[str, dict] | None:
    """(reason, detail) when the required pairs cannot all be witness edges."""
    col = bipartition(g)  # bipartite: the cycle gate already passed
    for p, q in req:
        if not col.same_class(p, q):
            return "RequiredPairMixedClasses", {"pair": [g.names[p], g.names[q]]}
    adj: dict[int, set[int]] = {}
    for p, q in req:
        adj.setdefault(p, set()).add(q)
        adj.setdefault(q, set()).add(p)
    cycle = find_edge_cycle(adj)
    if cycle is not None:
        return "RequiredPairCycle", {"cycle": [g.names[v] for v in cycle]}
    return None


def global_search(
    g: Graph, required: Sequence[tuple[int, int]] = (), budget: Budget = Budget()
) -> Verdict:
    """Decide whether ``g`` has a witness containing every required pair:
    the one dismantling entry point.

    Pipeline: the square base case, handed to ``relative_search``; the
    gates of ``_gate_verdict``, run once on the whole graph, where a cycle
    of required pairs spread over two parts shows; the cuts, found once;
    then divide and conquer over them, solving each piece relative to the
    required and cut pairs it contains and assembling the partial
    witnesses; common neighbors of a cut pair are cylinder vertices,
    covered at assembly.  Splitting, the paper's decomposition, gives the
    assembled witness; whole-graph relative search is still faster on
    coning graphs, but exponential on "no" graphs that split.  A "yes" goes
    through ``dl.verified`` on ``g`` exactly once, here for an assembled
    witness and in ``relative_search`` otherwise.  A deadline hit in any
    leaf search comes back as that leaf's "budget_exceeded" verdict.  The
    timings are this function's own stages; ``search`` includes the nested
    searches.

    No crossed-cut gate is needed.  Lemma (README, "Why the split needs no
    guards"): a triangle-free graph on five or more vertices with no
    separating clique that is strongly CFS has no two crossing cuts.
    """
    if g.n == 4:
        # a four-vertex input is the square, solved by its diagonals, or is
        # refused by the preconditions; relative_search gates it either way
        return relative_search(g, required, budget)
    timings: dict = {}
    t0 = time.perf_counter()
    req = _normalize_required(g, required)
    gated = _gate_verdict(g, req, timings, t0)
    if isinstance(gated, Verdict):
        return gated
    t0 = time.perf_counter()
    pairs = list(dict.fromkeys(cut.pair for cut in jsj.find_cuts(g)))
    t0 = record_stage(timings, "jsj", t0)
    verdict = _solve_with_splitting(g, g.full_mask, pairs, budget, tuple(req))
    report = verdict.report
    if verdict.is_yes and report is None:
        report = verified(g, verdict.lam)
    record_stage(timings, "search", t0)
    return replace(verdict, report=report, timings_ms=timings)


def _solve_with_splitting(
    g: Graph,
    mask: int,
    pairs: Sequence[tuple[int, int]],
    budget: Budget,
    required: tuple[tuple[int, int], ...],
) -> Verdict:
    """Recursive split/solve/assemble of the part ``mask`` of ``g``, in the
    host's vertex ids, at the first cut that tears no ``required`` pair
    (each lies inside one part, a component plus the cut vertices):
    ``global_search``'s pairs at the top, then each part's pairs plus its
    cut's pair.  ``relative_search`` on the part, built as a graph, when
    every cut tears one.  Lemma
    (README, "Why the split needs no guards", L3): every such cut runs
    through one of the host's cut ``pairs``, so only those are tested.

    The parts solved are those of components with two or more vertices,
    each relative to the cut's pair; a single-vertex component is a common
    neighbor of the cut pair, a cylinder vertex that ``jsj.assemble_lambdas``
    covers.  Lemma (README, L2): such a part of a graph that passes the
    preconditions and both gates passes them too, so no part is checked for
    a separating clique, and by L1 no part's cuts cross; ``relative_search``
    still runs the gates again on every part it solves, and L2 is why they
    pass there.  An assembled "yes" carries no report: the caller verifies
    the final witness once.
    """
    for cut in jsj.cuts_through(g, mask, pairs):
        parts = [comp | cut.mask for comp in cut.components]
        if all(any(m >> p & 1 and m >> q & 1 for m in parts) for p, q in required):
            break
    else:
        ids = {v: i for i, v in enumerate(iter_bits(mask))}
        return relative_search(g.subgraph(mask), [(ids[p], ids[q]) for p, q in required], budget)
    solved: list[tuple[str, Lambda]] = []
    for comp, part in zip(cut.components, parts):
        if comp.bit_count() == 1:
            continue
        inside = tuple((p, q) for p, q in required if part >> p & 1 and part >> q & 1)
        sub = _solve_with_splitting(g, part, pairs, budget, inside + (cut.pair,))
        if sub.decision == "budget_exceeded":
            return sub
        pid = ",".join(sorted(g.names[v] for v in iter_bits(part)))
        if not sub.is_yes:
            return Verdict("no", "split", reason="RigidPartFailed",
                           detail={"part": pid, "sub_reason": sub.reason or sub.decision,
                                   "sub_detail": sub.detail})
        solved.append((pid, sub.lam))
    detail = {"assembled_at": [g.names[v] for v in cut.vertices], "parts": [p for p, _ in solved]}
    lam = jsj.assemble_lambdas(g, cut, [(part_lam.host, part_lam) for _, part_lam in solved])
    return Verdict("yes", "assemble", detail=detail, lam=lam)
