"""Command-line surface and batch harness.

Subcommands: check (gate report), search (dismantling and/or oracle engine),
verify (certificate check), gen (instance generators), batch (graph6 stream
or directory harness with per-graph timing and fail-fast stage), jsj (graph
of cylinders).

Exit codes: 0 decision reached, 1 usage or parse error, 2 precondition
refusal, 3 engine disagreement, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import generators
from .dismantle import Budget, Verdict, forbidden_cycle_check, global_search
from .dl import Lambda, precondition_failures, verify_fidl
from .graphs import (
    Graph,
    NotBipartiteError,
    bipartition,
    from_graph6,
    from_json,
    has_separating_clique,
    is_incomplete,
    is_triangle_free,
    iter_bits,
    to_graph6,
    to_json_dict,
)
from .jsj import graph_of_cylinders
from .oracle import OracleLimits, naive_search
from .squares import cfs_status

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUSED = 2
EXIT_DISAGREE = 3
EXIT_BUDGET = 4


class CliError(Exception):
    """A usage or parse error; ``main`` exits with ``EXIT_USAGE``."""


def load_graph(source: str) -> Graph:
    """Read a graph from a file path or '-' (stdin); JSON or graph6 by content."""
    text = sys.stdin.read() if source == "-" else Path(source).read_text()
    return parse_graph_text(text, source)


def parse_graph_text(text: str, where: str = "<input>") -> Graph:
    stripped = text.strip()
    if not stripped:
        raise CliError(f"{where}: empty input")
    try:
        if stripped.startswith("{"):
            return from_json(stripped)
        first = stripped.splitlines()[0]
        return from_graph6(first)
    except ValueError as exc:
        raise CliError(f"{where}: cannot parse graph: {exc}") from exc


def load_lambda(g: Graph, source: str) -> Lambda:
    text = sys.stdin.read() if source == "-" else Path(source).read_text()
    try:
        return Lambda.from_json_dict(g, json.loads(text))
    except ValueError as exc:
        raise CliError(f"{source}: cannot parse witness: {exc}") from exc


def _emit(args, payload: dict, text_lines: list[str]):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _verdict_payload(args, verdict: Verdict) -> dict:
    return verdict.to_json_dict(include_timings=not args.no_timing)


# ------------------------------------------------------------------ commands


def cmd_check(args) -> int:
    g = load_graph(args.graph)
    report: dict = {"vertices": g.n, "edges": g.edge_count()}
    report["incomplete"] = is_incomplete(g)
    report["triangle_free"] = is_triangle_free(g)
    report["separating_clique"] = has_separating_clique(g)
    try:
        col = bipartition(g)
        report["bipartite"] = True
        report["classes"] = [
            [g.names[v] for v in iter_bits(col.red)],
            [g.names[v] for v in iter_bits(col.blue)],
        ]
    except NotBipartiteError as err:
        report["bipartite"] = False
        report["odd_walk"] = [g.names[v] for v in err.odd_walk]
    if report["triangle_free"]:
        report["cfs"] = cfs_status(g).status.value
        obstruction = forbidden_cycle_check(g)
        report["forbidden_cycle"] = obstruction
    lines = [f"{k}: {v}" for k, v in report.items()]
    _emit(args, report, lines)
    return EXIT_OK


def cmd_search(args) -> int:
    """Decide one graph with ``global_search``, the oracle or both; required
    pairs go to ``global_search`` alone, and are refused with any other
    engine before either runs."""
    engine = args.engine
    if args.require and engine != "dismantle":
        raise CliError("--require is only supported by the dismantling engine")
    g = load_graph(args.graph)
    required = []
    for spec in args.require or []:
        try:
            a, b = spec.split(",")
            required.append((g.vertex_id(a.strip()), g.vertex_id(b.strip())))
        except (ValueError, KeyError) as exc:
            raise CliError(f"bad --require {spec!r}: {exc}") from exc
    results: dict[str, Verdict] = {}
    if engine in ("dismantle", "both"):
        results["dismantle"] = global_search(g, required, Budget.from_seconds(args.timeout))
    if engine in ("oracle", "both"):
        results["oracle"] = naive_search(g, OracleLimits(seconds=args.timeout))
    if engine == "both":
        d, o = results["dismantle"], results["oracle"]
        agree = _agree(d.decision, o.decision)
        payload = {
            "dismantle": _verdict_payload(args, d),
            "oracle": _verdict_payload(args, o),
            "agree": agree,
        }
        if not agree:
            payload["bug_report"] = {
                "graph": to_json_dict(g),
                "graph6": to_graph6(g),
                "dismantle": d.to_json_dict(),
                "oracle": o.to_json_dict(),
            }
            _emit(args, payload, [f"DISAGREEMENT: dismantle={d.decision} oracle={o.decision}"])
            return EXIT_DISAGREE
        lines = [
            f"dismantle: {d.decision} ({d.reason or 'witness found'})",
            f"oracle:    {o.decision} ({o.reason or 'witness found'})",
        ]
        if not args.no_timing:
            lines.append(
                f"wall ms:   dismantle={sum(d.timings_ms.values()):.1f}"
                f" oracle={sum(o.timings_ms.values()):.1f}"
            )
        _emit(args, payload, lines)
        return EXIT_BUDGET if "budget_exceeded" in (d.decision, o.decision) else _exit_for(d)
    return _emit_verdict(args, next(iter(results.values())))


def _emit_verdict(args, verdict: Verdict) -> int:
    """Print one verdict, as JSON or as text lines; returns its exit code."""
    lines = [f"decision: {verdict.decision}"]
    if verdict.reason:
        lines.append(f"reason: {verdict.reason} {verdict.detail}")
    if verdict.lam is not None:
        lines.append(f"witness: {verdict.lam.to_json()}")
    _emit(args, _verdict_payload(args, verdict), lines)
    return _exit_for(verdict)


def _agree(a: str, b: str) -> bool:
    """Two engines' decisions disagree only when they differ and neither
    engine ran out of budget."""
    return a == b or "budget_exceeded" in (a, b)


def _exit_for(verdict: Verdict) -> int:
    if verdict.decision == "refused":
        return EXIT_REFUSED
    if verdict.decision == "budget_exceeded":
        return EXIT_BUDGET
    return EXIT_OK


def cmd_verify(args) -> int:
    g = load_graph(args.graph)
    lam = load_lambda(g, args.witness)
    report = verify_fidl(g, lam)
    payload = report.to_json_dict()
    lines = [f"pass: {report.passed}"]
    for r in report.results:
        lines.append(f"  {r.name}: {'pass' if r.passed else 'FAIL ' + json.dumps(r.witness)}")
    if report.precondition_failures:
        lines.append(f"  preconditions: {list(report.precondition_failures)}")
    _emit(args, payload, lines)
    if report.passed:
        return EXIT_OK
    return EXIT_REFUSED if report.precondition_failures else 1


def cmd_gen(args) -> int:
    name = args.family
    seed = args.seed
    if name == "wheel":
        g, lam = generators.bicycle_wheel(args.n)
    elif name == "coning":
        seq = generators.random_coning(seed, args.steps)
        g, lam = seq.graph, seq.lam
    elif name == "tree-family":
        spec = json.loads(args.tree or "{}")
        try:
            t = generators.LabelledTree(
                tuple(spec["vertices"]),
                tuple((a, b) for a, b in spec["edges"]),
                {k: int(v) for k, v in spec["labels"].items()},
            )
        except (KeyError, TypeError) as exc:
            raise CliError(f"--tree needs an object with vertices, edges, labels: {exc!r}") from exc
        g, lam = generators.tree_family(t), None
    elif name == "fixture":
        fx = generators.fixtures()
        if args.fixture_name not in fx:
            raise CliError(f"unknown fixture; choose from {sorted(fx)}")
        item = fx[args.fixture_name]
        g, lam = item.graph, item.lam
    else:
        raise CliError(f"unknown family {name!r}")
    if args.out_format == "graph6":
        print(to_graph6(g))
    else:
        payload = {"graph": to_json_dict(g)}
        if lam is not None:
            payload["lambda"] = lam.to_json_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _batch_row(item: tuple[int, str, str, float | None], with_oracle: bool) -> dict:
    """One row of ``batch``: parse the graph once, decide it with
    ``global_search`` and, ``with_oracle``, with ``naive_search`` too."""
    index, label, g6, timeout = item
    row: dict = {"index": index, "graph": label}
    try:
        g = from_graph6(g6) if not g6.lstrip().startswith("{") else from_json(g6)
    except ValueError as exc:
        row.update(decision="parse_error", error=str(exc))
        return row
    row.update(n=g.n, m=g.edge_count())
    t0 = time.perf_counter()
    verdict = global_search(g, budget=Budget.from_seconds(timeout))
    row["dismantle_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    row["decision"] = verdict.decision
    row["stage"] = verdict.stage
    row["reason"] = verdict.reason or ""
    if not with_oracle:
        return row
    t0 = time.perf_counter()
    overdict = naive_search(g, OracleLimits(seconds=timeout))
    row["oracle_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    row["oracle_decision"] = overdict.decision
    row["agree"] = _agree(row["decision"], overdict.decision)
    return row


def cmd_batch(args) -> int:
    entries: list[tuple[int, str, str, float | None]] = []
    source = args.input
    if source != "-" and Path(source).is_dir():
        for i, path in enumerate(sorted(Path(source).glob("*"))):
            if path.suffix in (".g6", ".json", ".txt"):
                entries.append((i, path.name, path.read_text().strip(), args.timeout))
    else:
        text = sys.stdin.read() if source == "-" else Path(source).read_text()
        for i, line in enumerate(l for l in text.splitlines() if l.strip()):
            entries.append((i, f"line{i}", line.strip(), args.timeout))
    worker = functools.partial(_batch_row, with_oracle=args.engine == "both")
    if args.workers > 1 and len(entries) > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(worker, entries))
    else:
        rows = [worker(e) for e in entries]
    rows.sort(key=lambda r: r["index"])
    if args.format == "json":
        print(json.dumps({"rows": rows, "summary": _batch_summary(rows)}, indent=2, sort_keys=True))
    else:
        writer = csv.writer(sys.stdout)
        cols = ["index", "graph", "n", "m", "decision", "stage", "reason", "dismantle_ms"]
        if args.engine == "both":
            cols += ["oracle_decision", "oracle_ms", "agree"]
        writer.writerow(cols)
        for row in rows:
            writer.writerow([row.get(c, "") for c in cols])
    bad = [r for r in rows if r.get("agree") is False]
    if bad:
        print(f"DISAGREEMENT on {len(bad)} graphs", file=sys.stderr)
        return EXIT_DISAGREE
    if any("budget_exceeded" in (r.get("decision"), r.get("oracle_decision")) for r in rows):
        return EXIT_BUDGET
    if any(r.get("decision") == "parse_error" for r in rows):
        return EXIT_USAGE
    return EXIT_OK


def _batch_summary(rows: list[dict]) -> dict:
    from statistics import median

    decisions: dict[str, int] = {}
    stages: dict[str, int] = {}
    for r in rows:
        decisions[r.get("decision", "?")] = decisions.get(r.get("decision", "?"), 0) + 1
        if r.get("decision") == "no":
            stages[r.get("stage", "?")] = stages.get(r.get("stage", "?"), 0) + 1
    out = {"graphs": len(rows), "decisions": decisions, "refusal_stages": stages}
    dtimes = [r["dismantle_ms"] for r in rows if "dismantle_ms" in r]
    if dtimes:
        out["dismantle_median_ms"] = round(median(dtimes), 3)
    otimes = [r["oracle_ms"] for r in rows if "oracle_ms" in r]
    if otimes:
        out["oracle_median_ms"] = round(median(otimes), 3)
    return out


def cmd_jsj(args) -> int:
    """The graph of cylinders; a graph failing the preconditions, which cut
    finding assumes, is refused as ``search`` refuses it."""
    g = load_graph(args.graph)
    fails = precondition_failures(g)
    if fails:
        return _emit_verdict(args, Verdict.refusal(fails, {}))
    goc = graph_of_cylinders(g)
    if args.dot:
        print(goc.to_dot())
    else:
        _emit(args, goc.to_json_dict(), [json.dumps(goc.to_json_dict(), indent=2)])
    return EXIT_OK


# ---------------------------------------------------------------- arg parsing


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, not argparse's 2, the refusal code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise CliError(f"{self.prog}: {message}")


def _seconds(text: str) -> float:
    """A ``--timeout`` value: a finite number of seconds, at least 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"not a finite number of seconds >= 0: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="visualraag",
        description="Search for finite-index visual RAAG subgroups of right-angled "
        "Coxeter groups given by triangle-free presentation graphs.",
    )
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--no-timing", action="store_true",
                   help="omit timing fields for byte-stable output")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="report gate-level invariants of a graph")
    c.add_argument("graph")
    c.set_defaults(func=cmd_check)

    s = sub.add_parser("search", help="decide witness existence")
    s.add_argument("graph")
    s.add_argument("--engine", choices=("dismantle", "oracle", "both"), default="dismantle")
    s.add_argument("--require", action="append", metavar="P,Q",
                   help="demand the pair as a witness edge (repeatable)")
    s.add_argument("--timeout", type=_seconds, default=None, help="seconds per engine")
    s.set_defaults(func=cmd_search)

    v = sub.add_parser("verify", help="check a (graph, witness) pair")
    v.add_argument("graph")
    v.add_argument("witness")
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("gen", help="emit generator instances")
    g.add_argument("family", choices=("wheel", "coning", "tree-family", "fixture"))
    g.add_argument("--n", type=int, default=3, help="wheel size")
    g.add_argument("--steps", type=int, default=10, help="coning steps")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--tree", help="labelled tree JSON for tree-family")
    g.add_argument("--fixture-name", default="square")
    g.add_argument("--out-format", choices=("json", "graph6"), default="json")
    g.set_defaults(func=cmd_gen)

    b = sub.add_parser("batch", help="run a graph6 stream or directory")
    b.add_argument("input", help="file, directory, or - for stdin")
    b.add_argument("--engine", choices=("dismantle", "both"), default="dismantle")
    b.add_argument("--timeout", type=_seconds, default=None, help="seconds per graph")
    b.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    b.set_defaults(func=cmd_batch)

    j = sub.add_parser("jsj", help="graph of cylinders")
    j.add_argument("graph")
    j.add_argument("--dot", action="store_true")
    j.set_defaults(func=cmd_jsj)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
