"""Benchmark of the visualraag verdict: one workload, one seed, one run.

    python3 bench/run.py --workload coning --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client decides the workload's seeded graphs one at a time in
a closed loop (the next call starts when the previous verdict returns) until
``--seconds`` of decide time have passed; every verdict is checked.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, with ``--trace 1`` one with the per-layer metrics of a
traced run.  Lines starting with ``#`` before it describe the run; the whole
result, and the spans of a traced run, are also written under ``bench/out/``.

Exit codes: 0 success, 2 the program is missing or the arguments are bad,
3 a verdict failed the correctness gate (the graph is named on stderr).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import corpora
import reference
import tracing
from verdicts import WrongVerdict, judge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Per-graph limit for both engines, through Budget and OracleLimits.  The
# slowest graph of any workload takes under 3 s at the commit that set it.
LIMIT_S = 10.0
SETUP_REPS = 21
# failed_share is failed / attempted, but a metric must never read 0: when
# nothing fails it reads this floor, below one graph in any run, so a single
# failed graph shows as a rise.
FAILED_SHARE_FLOOR = 1e-6
MODULES = ("graphs", "squares", "dl", "jsj", "dismantle", "oracle")
STAGES = ("precondition", "cfs", "cycles", "jsj", "split", "dismantle", "dagger", "assemble")


@dataclass(frozen=True)
class Workload:
    why: str
    # fixed per workload so that runs of faster code stay comparable, with at
    # least ten samples beyond it in every 45-second run at the commit that
    # set it; the README says why each was chosen
    tail_pct: float
    with_oracle: bool = False


WORKLOADS = {
    "coning": Workload(
        "guaranteed-yes coning instances, 20-32 steps (n=24-36): per-state admissibility "
        "in the dismantling search dominates, the oracle never runs",
        75,
    ),
    "oracle": Workload(
        "a <=8-vertex sweep graph a round, with 15 random qualifying graphs on 9-11 vertices, "
        "nine refuted by the CFS gate, decided by both engines, which must agree: the oracle "
        "takes >99% of the time",
        95,
        with_oracle=True,
    ),
}


@dataclass
class Item:
    index: int  # position in the corpus; copies made by relabelling keep it
    graph6: str
    adj: list
    graph: object
    expect: str | None


@dataclass
class Rec:
    """What a run keeps of one decided graph; verdicts are dropped once
    checked, so the run's own heap stays small."""

    index: int
    n: int
    ms: float
    oracle_ms: float
    failed: bool
    decision: str | None  # None when the call raised
    stage: str | None
    oracle_detail: dict | None
    error: str | None


# ------------------------------------------------------------------ set-up


def set_up(graph6: list[str]):
    """Import the package and parse the corpus, SETUP_REPS times afresh;
    returns the median time, the modules and graphs of the last repetition."""
    times = []
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules if m == "visualraag" or m.startswith("visualraag.")]:
            del sys.modules[name]
        gc.collect()  # every repetition starts from the same heap
        t0 = time.perf_counter()
        mods = {m: importlib.import_module(f"visualraag.{m}") for m in MODULES}
        graphs = [mods["graphs"].from_graph6(s) for s in graph6]
        times.append(time.perf_counter() - t0)
    return statistics.median(times), mods, graphs


def items(corpus: corpora.Corpus, graphs: list, from_graph6, seed: int):
    """The corpus in order, then passes over relabelled copies of it, so that
    no graph6 string is decided twice however fast the program gets."""
    adjs = [reference.decode_graph6(s) for s in corpus.graph6]
    for i, s in enumerate(corpus.graph6):
        yield Item(i, s, adjs[i], graphs[i], corpus.expect[i])
    rng = random.Random(f"relabel-{seed}")
    while True:
        for i, adj in enumerate(adjs):
            perm = rng.sample(range(len(adj)), len(adj))
            adj2 = reference.relabel(adj, perm)
            s = reference.encode_graph6(adj2)
            yield Item(i, s, adj2, from_graph6(s), corpus.expect[i])


# ---------------------------------------------------------------- deciding


def decide(mods: dict, item: Item, with_oracle: bool, limit_s: float = LIMIT_S):
    """Time one graph; returns the record and the two verdicts (None when not run)."""
    dismantle, oracle = mods["dismantle"], mods["oracle"]
    g = item.graph
    verdict = oracle_verdict = error = None
    t0 = t1 = time.perf_counter()
    try:
        verdict = dismantle.global_search(g, budget=dismantle.Budget.from_seconds(limit_s))
        t1 = time.perf_counter()
        if with_oracle:
            oracle_verdict = oracle.naive_search(g, oracle.OracleLimits(seconds=limit_s))
    except Exception as exc:  # a raising call is a failed graph, not a crash of the run
        error = f"{type(exc).__name__}: {exc}"
    t2 = time.perf_counter()
    if verdict is None:
        t1 = t2
    failed = (
        error is not None
        or verdict.decision == "budget_exceeded"
        or (oracle_verdict is not None and oracle_verdict.decision == "budget_exceeded")
        or t1 - t0 > limit_s
        or t2 - t1 > limit_s
    )
    rec = Rec(item.index, g.n, (t2 - t0) * 1000, (t2 - t1) * 1000, failed,
              verdict and verdict.decision, verdict and verdict.stage,
              oracle_verdict and oracle_verdict.detail, error)
    return rec, verdict, oracle_verdict


def check(workload: str, mods: dict, item: Item, verdict, oracle_verdict):
    if verdict is None:
        return
    wrong = judge(item.adj, item.graph, verdict, item.expect, mods["dl"].verify_fidl,
                  oracle_verdict)
    if wrong is not None:
        raise WrongVerdict(f"{workload} graph {item.graph6} (corpus #{item.index}): {wrong}")


def measure(workload: str, mods: dict, stream, seconds: float, tracer=None,
            keep: list | None = None) -> list[Rec]:
    """Closed loop until ``seconds`` of decide time; ``keep`` collects the items."""
    with_oracle = WORKLOADS[workload].with_oracle
    out: list[Rec] = []
    spent = 0.0
    wall_cap = time.monotonic() + 2 * seconds + 30
    for item in stream:
        if spent >= seconds or time.monotonic() > wall_cap:
            break
        if tracer is not None:
            tracer.graph = len(out)
            tracer.active = True
        rec, verdict, oracle_verdict = decide(mods, item, with_oracle)
        if tracer is not None:
            tracer.active = False
        check(workload, mods, item, verdict, oracle_verdict)
        out.append(rec)
        if keep is not None:
            keep.append(item)
        spent += rec.ms / 1000
    return out


# ------------------------------------------------------------------ metrics


def percentile(xs: list[float], pct: float) -> float:
    s = sorted(xs)
    k = (len(s) - 1) * pct / 100
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def end_to_end(workload: str, recs: list[Rec], setup_s: float) -> dict:
    times = [r.ms for r in recs]
    failed = sum(r.failed for r in recs)
    return {
        "decide_ms_p50": (statistics.median(times), "ms"),
        "decide_ms_tail": (percentile(times, WORKLOADS[workload].tail_pct), "ms"),
        "graphs_per_s": ((len(times) - failed) / (sum(times) / 1000), "1/s"),
        "failed_share": (max(failed / len(times), FAILED_SHARE_FLOOR), "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: tracing.Tracer, traced: list[Rec], untraced: list[Rec]) -> dict:
    n = len(traced)
    span = tracer.summary()
    counts = tracer.counts

    def per_graph(x: float) -> float:
        return x / n

    def calls(name):
        return (per_graph(span.get(name, {}).get("calls", 0)), "count/graph")

    def self_ms(name):
        return (per_graph(span.get(name, {}).get("self_ms", 0.0)), "ms/graph")

    def counted(key):
        return (per_graph(counts.get(key, 0)), "count/graph")

    def ratio(num, den):
        return num / den if den else 0.0

    admissibility = tracer.inclusive_ms_under(
        {"graphs.Graph.subgraph", "graphs.has_separating_clique", "squares.is_strongly_cfs"},
        {"dismantle.relative_search", "dismantle.enumerate_dismantlings"},
    )
    stages = [r.stage for r in traced]
    yes = [r for r in traced if r.decision == "yes"]
    details = [r.oracle_detail for r in traced if r.oracle_detail is not None]
    tested = sum(d.get("tested", 0) for d in details)
    tree_pairs = sum(d.get("tree_pairs", 0) for d in details)
    traced_ms = sum(r.ms for r in traced)
    untraced_ms = sum(r.ms for r in untraced)
    states = counts.get("dismantle.states_expanded", 0)
    out = {
        "graphs.has_separating_clique.calls": calls("graphs.has_separating_clique"),
        "graphs.has_separating_clique.self_ms": self_ms("graphs.has_separating_clique"),
        "graphs.Graph.subgraph.calls": calls("graphs.Graph.subgraph"),
        "graphs.induced_cycles.self_ms": self_ms("graphs.induced_cycles"),
        "graphs.induced_cycles.cycles": counted("graphs.induced_cycles.cycles"),
        "squares.diagonal_graph.calls": calls("squares.diagonal_graph"),
        "squares.diagonal_graph.self_ms": self_ms("squares.diagonal_graph"),
        "squares.diagonal_graph.diagonals": counted("squares.diagonal_graph.diagonals"),
        "squares.cfs_status.calls": calls("squares.cfs_status"),
        "dismantle.states_expanded": counted("dismantle.states_expanded"),
        "dismantle.removals_tried": counted("dismantle.removals_tried"),
        "dismantle.admissibility_ms": (per_graph(admissibility), "ms/graph"),
        "dismantle.admissibility_ms_per_state": (ratio(admissibility, states), "ms/state"),
        "dismantle.forbidden_cycle_check.calls": calls("dismantle.forbidden_cycle_check"),
        "dismantle.relative_search.calls": calls("dismantle.relative_search"),
        "dismantle.relative_search.self_ms": self_ms("dismantle.relative_search"),
        "dismantle.enumerate_dismantlings.self_ms": self_ms("dismantle.enumerate_dismantlings"),
        "dismantle.yes_share": (per_graph(len(yes)), "share"),
    }
    for stage in STAGES:
        out[f"dismantle.stage.{stage}_share"] = (per_graph(stages.count(stage)), "share")
    out.update({
        "jsj.find_cuts.calls": calls("jsj.find_cuts"),
        "jsj.find_cuts.self_ms": self_ms("jsj.find_cuts"),
        "jsj.find_cuts.cuts": counted("jsj.find_cuts.cuts"),
        "jsj.graph_of_cylinders.self_ms": self_ms("jsj.graph_of_cylinders"),
        "jsj.uncrossed_cuts.self_ms": self_ms("jsj.uncrossed_cuts"),
        "jsj.assemble_lambdas.calls": calls("jsj.assemble_lambdas"),
        "jsj.assemble_share": (ratio(sum(r.stage == "assemble" for r in yes), len(yes)), "share"),
        "dl.verify_fidl.calls": calls("dl.verify_fidl"),
        "dl.verify_fidl.self_ms": self_ms("dl.verify_fidl"),
        "dl.commuting_graph.self_ms": self_ms("dl.commuting_graph"),
        "dl.precondition_failures.calls": calls("dl.precondition_failures"),
        "dl.check_r3.calls": calls("dl.check_r3"),
        "dl.check_r3.self_ms": self_ms("dl.check_r3"),
        "dl.check_r4.self_ms": self_ms("dl.check_r4"),
        "dl.HullOracle.hull.calls": counted("dl.HullOracle.hull.calls"),
        "oracle.naive_search.self_ms": self_ms("oracle.naive_search"),
        "oracle.spanning_trees.self_ms": self_ms("oracle.spanning_trees"),
        "oracle.spanning_tree_count.self_ms": self_ms("oracle.spanning_tree_count"),
        "oracle.tree_pairs": (per_graph(tree_pairs), "count/graph"),
        "oracle.tested": (per_graph(tested), "count/graph"),
        "oracle.tested_share": (ratio(tested, tree_pairs), "share"),
        # untraced oracle time, so the spans' own cost is not in it
        "oracle.us_per_tested_pair": (
            ratio(sum(r.oracle_ms for r in untraced) * 1000, tested), "us/pair"),
        "trace.graphs": (n, "count"),
        "trace.overhead_ms": (per_graph(traced_ms - untraced_ms), "ms/graph"),
        "trace.overhead_share": (ratio(traced_ms - untraced_ms, untraced_ms), "share"),
    })
    return out


# ------------------------------------------------------------- description


def machine_ms(reps: int = 25) -> float:
    """Median time of a fixed pure-Python loop.  It is printed before and after
    the measurement: the machine's speed drifts by tens of percent over
    minutes, and this tells that drift apart from a change of the program."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i * i % 7
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def provenance() -> dict:
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.is_file():
                commit = target.read_text().strip()
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "visualraag").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "commit": commit,
        "src_sha256": src_hash.hexdigest()[:16],
    }


def describe(workload: str, corpus: corpora.Corpus, recs: list[Rec]) -> dict:
    wl = WORKLOADS[workload]
    ns = [r.n for r in recs]
    stages: dict[str, int] = {}
    for r in recs:
        key = "raised" if r.decision is None else f"{r.decision}/{r.stage}"
        stages[key] = stages.get(key, 0) + 1
    info = {
        "why": wl.why,
        "corpus": {"graphs": len(corpus.graph6), "digest": corpus.digest,
                   "n_range": [min(corpus.ns), max(corpus.ns)]},
        "decided": len(recs),
        "distinct": len({r.index for r in recs}),
        "n_range": [min(ns), max(ns)],
        "stage_mix": dict(sorted(stages.items())),
        "tail": {"percentile": wl.tail_pct, "samples": len(recs),
                 "beyond": round(len(recs) * (1 - wl.tail_pct / 100), 1)},
        "limit_s": LIMIT_S,
        "slowest_ms": max(r.ms for r in recs),
        "errors": sorted({r.error for r in recs if r.error})[:3],
    }
    if workload == "coning":
        buckets: dict[int, list[float]] = {}
        for r in recs:
            buckets.setdefault(r.n // 5 * 5, []).append(r.ms)
        info["ms_by_n"] = {
            f"{lo}-{lo + 4}": {"graphs": len(ms), "p50": round(statistics.median(ms), 1)}
            for lo, ms in sorted(buckets.items())
        }
    return info


def coning_probe(mods: dict) -> dict:
    """Decide the n=64 coning instance of the ROADMAP target, outside the metrics."""
    s = corpora.coning_probe()
    item = Item(-1, s, reference.decode_graph6(s), mods["graphs"].from_graph6(s), "yes")
    rec, verdict, _ = decide(mods, item, False, limit_s=60.0)
    check("coning", mods, item, verdict, None)
    return {"n": rec.n, "ms": round(rec.ms, 1), "decision": rec.decision, "failed": rec.failed}


# -------------------------------------------------------------------- main


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def hash_seed(seed: int) -> str:
    """The string-hash seed of a run: taken from ``--seed``, so that runs at
    one seed are paired across commits and a set of seeds spans hash orders."""
    return str(seed % 2**32)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "visualraag" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'visualraag'} is missing", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    corpus = corpora.BUILDERS[args.workload](args.seed)
    setup_s, mods, graphs = set_up(corpus.graph6)
    stream = items(corpus, graphs, mods["graphs"].from_graph6, args.seed)
    # the run's own objects (corpus, modules) are not the program's garbage
    gc.collect()
    gc.freeze()
    result: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "provenance": provenance()}
    machine_before = machine_ms()
    try:
        if args.trace == 0:
            recs = measure(args.workload, mods, stream, args.seconds)
            metrics = end_to_end(args.workload, recs, setup_s)
            result["info"] = describe(args.workload, corpus, recs)
            if args.workload == "coning":
                result["info"]["n64_probe"] = coning_probe(mods)
        else:
            tracer = tracing.Tracer()
            tracer.install()
            kept: list[Item] = []
            try:
                recs = measure(args.workload, mods, stream, args.seconds / 2, tracer, kept)
            finally:
                tracer.uninstall()
            # the same graphs again, untraced: the difference is the tracing overhead
            untraced = measure(args.workload, mods, iter(kept), math.inf)
            metrics = per_layer(tracer, recs, untraced)
            result["info"] = describe(args.workload, corpus, recs)
            spans = OUT / f"spans-{args.workload}.json.gz"
            tracer.write(spans)
            result["info"]["spans"] = {"file": str(spans.relative_to(ROOT)),
                                       "count": len(tracer.start)}
    except WrongVerdict as err:
        print(f"WRONG VERDICT: {err}", file=sys.stderr)
        return 3

    result["info"]["machine_ms"] = [round(machine_before, 2), round(machine_ms(), 2)]
    failed = sum(r.failed for r in recs)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    for key, value in result["provenance"].items():
        print(f"# {key}: {value}")
    for key, value in result["info"].items():
        print(f"# {key}: {json.dumps(value)}")
    print(json.dumps({"correct": True, "attempted": len(recs), "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    wanted = hash_seed(parse_args().seed)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        # the same process again, with the run's string-hash seed
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": wanted})
    sys.exit(main())
