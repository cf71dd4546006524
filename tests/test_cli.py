import json
from pathlib import Path

import pytest

from visualraag.cli import main
from visualraag.graphs import to_graph6, to_json
from visualraag.generators import bicycle_wheel, fixtures


@pytest.fixture
def wheel_files(tmp_path):
    g, lam = bicycle_wheel(3)
    gpath = tmp_path / "wheel3.json"
    gpath.write_text(to_json(g))
    lpath = tmp_path / "wheel3_lambda.json"
    lpath.write_text(lam.to_json())
    return gpath, lpath


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_wheel(capsys, wheel_files):
    gpath, _ = wheel_files
    code, out = run(capsys, "--format", "json", "check", str(gpath))
    assert code == 0
    data = json.loads(out)
    assert data["triangle_free"] is True
    assert data["cfs"] == "StronglyCFS"
    assert data["separating_clique"] is False


def test_check_triangle(capsys, tmp_path):
    p = tmp_path / "k3.json"
    p.write_text('{"vertices": ["a", "b", "c"], "edges": [["a","b"],["b","c"],["a","c"]]}')
    code, out = run(capsys, "--format", "json", "check", str(p))
    assert code == 0
    assert json.loads(out)["triangle_free"] is False


def test_check_hexagon_not_cfs(capsys, tmp_path):
    p = tmp_path / "hex.g6"
    from conftest import cycle_graph

    p.write_text(to_graph6(cycle_graph(6)))
    code, out = run(capsys, "--format", "json", "check", str(p))
    assert code == 0
    assert json.loads(out)["cfs"] == "NotCFS"


def test_search_wheel_yes(capsys, wheel_files):
    gpath, _ = wheel_files
    code, out = run(capsys, "--format", "json", "search", str(gpath))
    assert code == 0
    data = json.loads(out)
    assert data["decision"] == "yes"
    assert data["delta"]["vertices"]


def test_search_both_engines_agree(capsys, wheel_files):
    gpath, _ = wheel_files
    code, out = run(capsys, "--format", "json", "search", str(gpath), "--engine", "both")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True


def test_search_c8_no(capsys, tmp_path):
    from conftest import cycle_graph

    p = tmp_path / "c8.g6"
    p.write_text(to_graph6(cycle_graph(8)))
    code, out = run(capsys, "--format", "json", "search", str(p))
    assert code == 0
    assert json.loads(out)["decision"] == "no"


def test_search_refused_exit_code(capsys, tmp_path):
    p = tmp_path / "p4.json"
    p.write_text('{"vertices": ["a","b","c","d"], "edges": [["a","b"],["b","c"],["c","d"]]}')
    code, _ = run(capsys, "search", str(p))
    assert code == 2


def test_search_required_pairs(capsys, wheel_files):
    gpath, _ = wheel_files
    code, out = run(
        capsys, "--format", "json", "search", str(gpath), "--require", "x,d1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["decision"] == "yes"
    assert ["x", "d1"] in data["lambda"]["red"] or ["x", "d1"] in data["lambda"]["blue"]


@pytest.mark.parametrize("engine", ["oracle", "both"])
def test_search_require_with_the_oracle_refuses_before_any_search(capsys, wheel_files,
                                                                   monkeypatch, engine):
    from visualraag import cli, dismantle

    def boom(*args, **kwargs):
        raise RuntimeError("a search ran")

    # every dismantling search starts with the preconditions
    monkeypatch.setattr(dismantle, "precondition_failures", boom)
    monkeypatch.setattr(cli, "naive_search", boom)
    gpath, _ = wheel_files
    code = main(["search", str(gpath), "--engine", engine, "--require", "x,d1"])
    assert code == 1
    assert "--require is only supported by the dismantling engine" in capsys.readouterr().err


def test_search_require_goes_through_the_split(capsys, tmp_path):
    from conftest import glued32

    path = tmp_path / "glued32.g6"
    path.write_text(to_graph6(glued32()))
    code, out = run(capsys, "--format", "json", "search", str(path),
                    "--require", "23,30", "--timeout", "5")
    assert code == 0
    data = json.loads(out)
    assert (data["decision"], data["stage"]) == ("no", "split")


def test_search_require_of_one_vertex_is_a_usage_error(capsys, wheel_files):
    gpath, _ = wheel_files
    code = main(["search", str(gpath), "--require", "x,x"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_verify_pass_and_fail(capsys, wheel_files, tmp_path):
    gpath, lpath = wheel_files
    code, out = run(capsys, "--format", "json", "verify", str(gpath), str(lpath))
    assert code == 0
    assert json.loads(out)["pass"] is True
    fx = fixtures()
    bad = fx["potential_lambda_a"]
    gp = tmp_path / "om.json"
    gp.write_text(to_json(bad.graph))
    lp = tmp_path / "om_lambda.json"
    lp.write_text(bad.lam.to_json())
    code, out = run(capsys, "--format", "json", "verify", str(gp), str(lp))
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_gen_round_trips_through_search(capsys, tmp_path):
    code, out = run(capsys, "gen", "coning", "--steps", "6", "--seed", "3")
    assert code == 0
    data = json.loads(out)
    gp = tmp_path / "coned.json"
    gp.write_text(json.dumps(data["graph"]))
    lp = tmp_path / "coned_lambda.json"
    lp.write_text(json.dumps(data["lambda"]))
    code, out = run(capsys, "--format", "json", "verify", str(gp), str(lp))
    assert code == 0 and json.loads(out)["pass"] is True


def test_gen_deterministic(capsys):
    _, out1 = run(capsys, "gen", "coning", "--steps", "9", "--seed", "11")
    _, out2 = run(capsys, "gen", "coning", "--steps", "9", "--seed", "11")
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ("gen", "wheel", "--n", "0"),
    ("gen", "coning", "--steps", "-1"),
])
def test_gen_bad_size_is_a_usage_error(capsys, argv):
    # a size the family cannot take must not print some other instance
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:")


def test_gen_wheel_defaults_to_three(capsys):
    assert run(capsys, "gen", "wheel") == run(capsys, "gen", "wheel", "--n", "3")


def test_gen_tree_family(capsys):
    spec = json.dumps(
        {"vertices": ["a", "b"], "edges": [["a", "b"]], "labels": {"a": 2, "b": 2}}
    )
    code, out = run(capsys, "gen", "tree-family", "--tree", spec)
    assert code == 0
    data = json.loads(out)
    assert len(data["graph"]["vertices"]) == 4


def test_batch_stream(capsys, tmp_path):
    from conftest import cycle_graph

    stream = tmp_path / "batch.g6"
    lines = [
        to_graph6(bicycle_wheel(3)[0]),
        to_graph6(cycle_graph(6)),
        to_graph6(cycle_graph(8)),
    ]
    stream.write_text("\n".join(lines))
    code, out = run(capsys, "--format", "json", "batch", str(stream))
    assert code == 0
    data = json.loads(out)
    assert [r["decision"] for r in data["rows"]] == ["yes", "no", "no"]
    assert data["summary"]["graphs"] == 3
    assert data["summary"]["refusal_stages"]  # fail-fast stages recorded


def test_batch_both_engines_csv(capsys, tmp_path):
    stream = tmp_path / "batch.g6"
    stream.write_text(to_graph6(bicycle_wheel(3)[0]) + "\n")
    code, out = run(capsys, "batch", str(stream), "--engine", "both")
    assert code == 0
    header, row = out.strip().splitlines()[:2]
    assert "oracle_decision" in header
    assert "True" in row


def test_search_and_batch_share_one_agreement_rule(capsys, tmp_path):
    # the oracle refuses bicycle_wheel(6) at its tree-pair cap: a budget
    # verdict agrees with any other, and either engine's budget gives exit 4
    p = tmp_path / "wheel6.g6"
    p.write_text(to_graph6(bicycle_wheel(6)[0]) + "\n")
    code, out = run(capsys, "--format", "json", "search", str(p), "--engine", "both")
    data = json.loads(out)
    assert (data["dismantle"]["decision"], data["oracle"]["decision"]) == ("yes", "budget_exceeded")
    assert (code, data["agree"]) == (4, True)
    code, out = run(capsys, "--format", "json", "batch", str(p), "--engine", "both")
    (row,) = json.loads(out)["rows"]
    assert (row["decision"], row["oracle_decision"]) == ("yes", "budget_exceeded")
    assert (code, row["agree"]) == (4, True)


def test_batch_workers_give_the_rows_of_one_worker(capsys, tmp_path):
    stream = tmp_path / "fixtures.g6"
    stream.write_text("\n".join(to_graph6(f.graph) for f in fixtures().values()))
    rows, codes = {}, {}
    for workers in ("1", "2"):
        codes[workers], out = run(capsys, "--format", "json", "batch", str(stream),
                                  "--engine", "both", "--workers", workers)
        rows[workers] = [{k: v for k, v in r.items() if not k.endswith("_ms")}
                         for r in json.loads(out)["rows"]]
    assert len(rows["1"]) == len(fixtures())
    assert rows["2"] == rows["1"] and codes["2"] == codes["1"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_batch_unknown_vertex_is_a_parse_error_row(capsys, tmp_path, workers):
    stream = tmp_path / "mixed.txt"
    bad = json.dumps({"vertices": ["a", "b"], "edges": [["a", "z"]]})
    stream.write_text(to_graph6(bicycle_wheel(3)[0]) + "\n" + bad + "\n")
    code, out = run(capsys, "--format", "json", "batch", str(stream), "--workers", workers)
    rows = json.loads(out)["rows"]
    assert [r["decision"] for r in rows] == ["yes", "parse_error"]
    assert "unknown vertex" in rows[1]["error"]
    assert code == 1


def test_batch_empty_stream(capsys, tmp_path):
    stream = tmp_path / "empty.g6"
    stream.write_text("")
    code, out = run(capsys, "--format", "json", "batch", str(stream))
    assert code == 0
    assert json.loads(out)["summary"]["graphs"] == 0


def test_jsj_command(capsys, tmp_path):
    g = fixtures()["glued_wheels"].graph
    p = tmp_path / "glued.json"
    p.write_text(to_json(g))
    code, out = run(capsys, "--format", "json", "jsj", str(p))
    assert code == 0
    data = json.loads(out)
    assert len(data["cylinders"]) == 1 and len(data["rigids"]) == 2
    code, out = run(capsys, "jsj", str(p), "--dot")
    assert code == 0 and "ellipse" in out


def test_jsj_crossing_flag(capsys, tmp_path):
    from conftest import cycle_graph

    p = tmp_path / "c8.g6"
    p.write_text(to_graph6(cycle_graph(8)))
    code, out = run(capsys, "--format", "json", "jsj", str(p))
    assert code == 0
    assert json.loads(out)["hanging"] is True


@pytest.mark.parametrize("graph, failure", [
    # the path a-b-c-d-e: its cut vertices are separating cliques
    ('{"vertices": ["a","b","c","d","e"],'
     ' "edges": [["a","b"],["b","c"],["c","d"],["d","e"]]}', "graph has a separating clique"),
    ('{"vertices": ["a","b","c"], "edges": [["a","b"],["b","c"],["a","c"]]}',
     "graph has a triangle"),
], ids=["path", "triangle"])
def test_jsj_refuses_graphs_failing_the_preconditions(capsys, tmp_path, graph, failure):
    p = tmp_path / "g.json"
    p.write_text(graph)
    code, out = run(capsys, "--format", "json", "jsj", str(p))
    data = json.loads(out)
    assert code == 2
    assert data["decision"] == "refused" and data["reason"] == "PreconditionFailed"
    assert failure in data["detail"]["failures"]
    code, out = run(capsys, "jsj", str(p))
    assert code == 2 and out.startswith("decision: refused")
    code, out = run(capsys, "jsj", str(p), "--dot")
    assert code == 2 and "cylinders" not in out


def test_parse_error_exit(capsys, tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    code, _ = run(capsys, "check", str(p))
    assert code == 1


def test_no_timing_byte_stable(capsys, wheel_files):
    gpath, _ = wheel_files
    _, out1 = run(capsys, "--format", "json", "--no-timing", "search", str(gpath))
    _, out2 = run(capsys, "--format", "json", "--no-timing", "search", str(gpath))
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ("nosuchcommand",),
    ("search",),
    ("search", "g.json", "--engine", "bogus"),
    ("search", "g.json", "--timeout", "soon"),
    ("--format", "yaml", "check", "g.json"),
])
def test_usage_errors_exit_1_not_refusal(capsys, argv):
    # 2 is reserved for precondition refusal; argparse alone would exit 2 here
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 1
    assert "usage:" in err and "error:" in err


@pytest.mark.parametrize("command", ["search", "batch"])
@pytest.mark.parametrize("timeout", ["nan", "-1", "inf"])
def test_timeout_must_be_finite_and_not_negative(capsys, tmp_path, command, timeout):
    # with nan no deadline ever passed, and -1 answered budget_exceeded unsearched
    g6 = tmp_path / "wheel3.g6"
    g6.write_text(to_graph6(bicycle_wheel(3)[0]) + "\n")
    code = main([command, str(g6), "--timeout", timeout])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "error:" in captured.err and "--timeout" in captured.err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--help"])
    assert exc.value.code == 0
    assert "--engine" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ("verify", "{graph}", "{tmp}/missing.json"),
    ("batch", "{tmp}/missing.g6"),
    ("gen", "tree-family", "--tree", "{{}}"),
    ("gen", "tree-family", "--tree", "[]"),
])
def test_bad_input_is_an_error_line_not_a_traceback(capsys, wheel_files, tmp_path, argv):
    gpath, _ = wheel_files
    code = main([a.format(graph=gpath, tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("witness", ["[]", '{"red": 5}'], ids=["list", "red_int"])
def test_witness_of_the_wrong_shape_is_an_error_line(capsys, wheel_files, tmp_path, witness):
    gpath, _ = wheel_files
    lpath = tmp_path / "bad_lambda.json"
    lpath.write_text(witness)
    code = main(["verify", str(gpath), str(lpath)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
