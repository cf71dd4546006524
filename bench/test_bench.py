"""Tests of the benchmark itself: its reference checks, its correctness gate
and its tracing.  Run from the repository root with

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import corpora  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from verdicts import judge  # noqa: E402
from visualraag import dismantle, dl, generators, squares  # noqa: E402
from visualraag.graphs import from_graph6  # noqa: E402

SWEEP = corpora.SWEEP_FILE.read_text().split()


def _adj(g) -> list[int]:
    return list(g.adj)


def test_graph6_round_trip_matches_the_package():
    for line in SWEEP:
        adj = reference.decode_graph6(line)
        assert adj == _adj(from_graph6(line))
        assert reference.encode_graph6(adj) == line


def test_reference_agrees_with_the_package_on_the_sweep():
    for line in SWEEP:
        g = from_graph6(line)
        adj = _adj(g)
        assert reference.qualifies(adj)
        assert reference.cfs_status(adj) == squares.cfs_status(g).status.value
        odd = (dismantle.forbidden_cycle_check(g) or {}).get("kind") == "odd_cycle"
        assert (reference.smaller_class(adj) is None) is odd
        verdict = dismantle.global_search(g)
        assert (verdict.stage == "cfs") == (reference.cfs_status(adj) != "StronglyCFS")


def test_relabelled_copies_keep_the_reference_answers():
    for line in SWEEP:
        adj = reference.decode_graph6(line)
        copy = reference.relabel(adj, list(reversed(range(len(adj)))))
        assert reference.qualifies(copy)
        assert reference.cfs_status(copy) == reference.cfs_status(adj)
        assert reference.smaller_class(copy) == reference.smaller_class(adj)


def test_corpora_are_pinned_by_the_seed():
    assert corpora.coning(5).digest == corpora.coning(5).digest
    assert corpora.coning(5).digest != corpora.coning(6).digest


# ------------------------------------------------------------ the gate trips


def _yes(name: str):
    g = generators.fixtures()[name].graph
    verdict = dismantle.global_search(g)
    assert verdict.is_yes
    return g, verdict


def test_gate_accepts_right_verdicts():
    g, verdict = _yes("wheel4")
    assert judge(_adj(g), g, verdict, "yes", dl.verify_fidl) is None
    hexagon = generators.fixtures()["hexagon"].graph
    no = dismantle.global_search(hexagon)
    assert judge(_adj(hexagon), hexagon, no, "no", dl.verify_fidl) is None


def test_gate_trips_on_a_yes_with_a_bad_witness():
    fx = generators.fixtures()["potential_lambda_a"]
    g, verdict = fx.graph, dismantle.global_search(fx.graph)
    planted = dataclasses.replace(verdict, lam=fx.lam)
    assert "verify_fidl" in judge(_adj(g), g, planted, None, dl.verify_fidl)


def test_gate_trips_on_a_wrong_decision():
    g, verdict = _yes("wheel3")
    planted = dataclasses.replace(verdict, decision="no", stage="dismantle", lam=None)
    assert "expected yes" in judge(_adj(g), g, planted, "yes", dl.verify_fidl)


def test_gate_trips_on_a_false_cfs_claim():
    g, verdict = _yes("wheel3")
    planted = dataclasses.replace(verdict, decision="no", stage="cfs", reason="NotStronglyCFS",
                                  detail={"status": "NotCFS"}, lam=None)
    assert "4-set" in judge(_adj(g), g, planted, None, dl.verify_fidl)


def test_gate_trips_on_a_false_cycle_claim():
    g, verdict = _yes("wheel3")
    rim = ["c1", "d1", "c2", "d2", "c3", "d3"]  # the rim of a wheel is no obstruction
    planted = dataclasses.replace(verdict, decision="no", stage="cycles", reason="ForbiddenCycle",
                                  detail={"kind": "hexagon_not_wheel_rim", "cycle": rim}, lam=None)
    assert "defect" in judge(_adj(g), g, planted, None, dl.verify_fidl)
    planted = dataclasses.replace(planted, detail={"kind": "odd_cycle", "cycle": rim[:5]})
    assert "odd" in judge(_adj(g), g, planted, None, dl.verify_fidl)


def test_gate_trips_when_the_engines_disagree():
    g, verdict = _yes("wheel3")
    oracle_no = dataclasses.replace(verdict, decision="no", stage="oracle", lam=None)
    assert "disagree" in judge(_adj(g), g, verdict, None, dl.verify_fidl, oracle_no)


def test_run_stops_and_names_the_graph_on_a_planted_wrong_verdict(monkeypatch, capsys):
    real = run.decide

    def lying(mods, item, with_oracle, limit_s=run.LIMIT_S):
        rec, verdict, oracle_verdict = real(mods, item, with_oracle, limit_s)
        if verdict.is_yes:
            verdict = dataclasses.replace(verdict, decision="no", stage="dagger", lam=None)
        return rec, verdict, oracle_verdict

    monkeypatch.setattr(run, "decide", lying)
    assert run.main(["--workload", "oracle", "--seed", "1", "--seconds", "0.2"]) == 3
    captured = capsys.readouterr()
    assert "WRONG VERDICT: oracle graph" in captured.err
    assert '"correct"' not in captured.out


# ----------------------------------------------------------------- tracing


def _traced_modules() -> dict:
    """The package's modules as the tracer will see them: run.main re-imports
    the package, so the modules imported at the top may be stale."""
    return {m: importlib.import_module(f"visualraag.{m}") for m in run.MODULES}


def test_tracing_counts_spans_and_restores_the_program():
    mods = _traced_modules()
    dismantle, squares = mods["dismantle"], mods["squares"]
    original = dismantle.cfs_status
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dismantle.cfs_status is not original
        assert dismantle.cfs_status is squares.cfs_status
        g = generators.fixtures()["glued_wheels"].graph
        tracer.active = True
        verdict = dismantle.global_search(g)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert dismantle.cfs_status is original
    assert verdict.is_yes
    summary = tracer.summary()
    assert summary["dismantle.global_search"]["calls"] == 1
    assert summary["dismantle.relative_search"]["calls"] >= 1
    assert tracer.counts["dismantle.states_expanded"] >= 1
    assert tracer.counts["graphs.induced_cycles.cycles"] >= 1
    root = summary["dismantle.global_search"]
    total_self = sum(row["self_ms"] for row in summary.values())
    assert total_self == pytest.approx(root["ms"], rel=1e-6)
    assert not tracer.stack


def test_tracing_reads_the_second_pass_of_a_no():
    # relative_search calls enumerate_dismantlings with stats=None after a
    # failed dagger search; its states must reach the counters too
    mods = _traced_modules()
    dismantle = mods["dismantle"]
    g = mods["graphs"].from_graph6("IhSTLYcb?")
    verdict = dismantle.global_search(g)
    assert (verdict.decision, verdict.stage) == ("no", "dagger")
    direct = dismantle.DismantleStats()
    dismantle.relative_search(g, stats=direct)
    second = dismantle.DismantleStats()
    next(dismantle.enumerate_dismantlings(g, stats=second), None)
    assert second.states_expanded >= 1
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        dismantle.global_search(g)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert tracer.counts["dismantle.states_expanded"] == (
        direct.states_expanded + second.states_expanded)
    assert tracer.summary()["dismantle.enumerate_dismantlings"]["calls"] >= 1


# -------------------------------------------------------------- the contract


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_runner(capsys):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in run.WORKLOADS.items()
    }
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        args = ["--workload", "oracle", "--seed", "1", "--seconds", "0.3", "--trace", str(trace)]
        assert run.main(args) == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[key]
        }
