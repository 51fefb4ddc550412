import json

import pytest

from qcmatch.cli import main
from qcmatch.instance import make_graph, save_instance


def run_cli(*argv):
    return main(list(argv))


def test_pipeline_smoke(tmp_path):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    rep = tmp_path / "run.json"
    summary = tmp_path / "summary.json"
    assert run_cli("gen", "--model", "complete", "--na", "4", "--nb", "4",
                   "--seed", "5", "--out", str(inst)) == 0
    assert run_cli("solve", "--instance", str(inst), "--out", str(sol),
                   "--check", "exhaustive") == 0
    assert run_cli("run", "--alg", "apx", "--instance", str(inst),
                   "--solution", str(sol), "--trials", "5000", "--seed", "1",
                   "--out", str(rep)) == 0
    assert run_cli("report", "--solution", str(sol), "--run", str(rep),
                   "--out", str(summary)) == 0
    data = json.loads(summary.read_text())
    assert data["rows"][0]["algorithm"] == "apx"
    assert data["rows"][0]["ratio_vs_lp"] > 0


def test_ratio_ordering_in_report(tmp_path):
    inst = tmp_path / "i.json"
    sol = tmp_path / "s.json"
    orc = tmp_path / "o.json"
    runj = tmp_path / "r.json"
    summary = tmp_path / "sum.json"
    run_cli("gen", "--model", "complete", "--na", "3", "--nb", "3", "--seed", "8",
            "--out", str(inst))
    run_cli("solve", "--instance", str(inst), "--out", str(sol))
    run_cli("oracle", "--instance", str(inst), "--solution", str(sol),
            "--events", "lemma7", "--out", str(orc))
    run_cli("run", "--alg", "greedy", "--instance", str(inst), "--trials", "5000",
            "--seed", "2", "--out", str(runj))
    run_cli("report", "--solution", str(sol), "--run", str(runj),
            "--oracle", str(orc), "--out", str(summary))
    row = json.loads(summary.read_text())["rows"][0]
    # the relaxation upper-bounds the exact optimum
    assert row["ratio_vs_opt"] >= row["ratio_vs_lp"]


def test_usage_errors(tmp_path):
    out = tmp_path / "x.json"
    assert run_cli("run", "--alg", "alg1", "--instance", "missing.json",
                   "--trials", "10", "--seed", "0", "--out", str(out)) == 2
    inst = tmp_path / "i.json"
    run_cli("gen", "--model", "star", "--na", "2", "--seed", "0", "--out", str(inst))
    sol = tmp_path / "s.json"
    run_cli("solve", "--instance", str(inst), "--out", str(sol))
    assert run_cli("run", "--alg", "apx", "--instance", str(inst),
                   "--solution", str(sol), "--trials", "10", "--seed", "0",
                   "--lambda", "1.5", "--out", str(out)) == 2
    assert run_cli("run", "--alg", "alg1", "--instance", str(inst),
                   "--trials", "10", "--seed", "0", "--out", str(out)) == 2  # no solution
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_cli("solve", "--instance", str(bad), "--out", str(sol)) == 2


def test_oracle_events_tokens(tmp_path):
    inst = tmp_path / "i.json"
    out = tmp_path / "o.json"
    run_cli("gen", "--model", "complete", "--na", "2", "--nb", "2", "--seed", "3",
            "--out", str(inst))
    with pytest.raises(SystemExit) as exc:
        run_cli("oracle", "--instance", str(inst), "--events", "lemma5", "--out", str(out))
    assert exc.value.code == 2
    assert run_cli("oracle", "--instance", str(inst), "--events", "lemma7",
                   "--out", str(out)) == 0
    assert len(json.loads(out.read_text())["conditionals"]) == 4  # one per edge


def test_verify_subcommand(tmp_path):
    out = tmp_path / "v.json"
    assert run_cli("verify", "--suite", "constants", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["passed"] is True


def test_verify_all_suites(tmp_path):
    out = tmp_path / "all.json"
    assert run_cli("verify", "--suite", "all", "--seed", "0", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert len(data["records"]) >= 12  # every suite contributed records


def test_verify_distribution_probe(tmp_path):
    inst = tmp_path / "i.json"
    out = tmp_path / "probe.json"
    run_cli("gen", "--model", "complete", "--na", "2", "--nb", "2", "--seed", "3",
            "--out", str(inst))
    assert run_cli("verify", "--dist-instance", str(inst), "--dist-vertex", "0",
                   "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["vertex"] == 0
    assert abs(sum(s["probability"] for s in data["support"]) - 1.0) <= 1e-9
    for e, t in data["targets"].items():
        assert abs(data["first_realized_marginals"][e] - t) <= 1e-7
    assert data["support_size"] == len(data["support"])
    assert data["max_marginal_error"] <= 1e-12


def test_outputs_reproducible(tmp_path):
    paths = []
    for tag in ("a", "b"):
        inst = tmp_path / f"inst_{tag}.json"
        sol = tmp_path / f"sol_{tag}.json"
        rep = tmp_path / f"run_{tag}.json"
        run_cli("gen", "--model", "uniform", "--na", "4", "--nb", "3",
                "--density", "0.7", "--seed", "9", "--out", str(inst))
        run_cli("solve", "--instance", str(inst), "--out", str(sol))
        run_cli("run", "--alg", "alg1", "--instance", str(inst), "--solution",
                str(sol), "--trials", "3000", "--seed", "4", "--threads", "2",
                "--out", str(rep))
        paths.append((inst.read_bytes(), sol.read_bytes(), rep.read_bytes()))
    assert paths[0] == paths[1]


def test_oracle_complete_5x5_succeeds(tmp_path):
    inst = tmp_path / "i.json"
    out = tmp_path / "o.json"
    run_cli("gen", "--model", "complete", "--na", "5", "--nb", "5", "--seed", "3",
            "--out", str(inst))
    assert run_cli("oracle", "--instance", str(inst), "--events", "lemma7",
                   "--out", str(out)) == 0
    edges = json.loads(inst.read_text())["edges"]
    data = json.loads(out.read_text())
    for v in range(5):
        total = data["a_unmatched"][v] + sum(
            q for e, q in zip(edges, data["edge_matched"]) if e["a"] == v
        )
        assert abs(total - 1.0) <= 1e-9


@pytest.mark.parametrize("m", [20, 21])
def test_oracle_reports_expected_opt_up_to_20_edges(tmp_path, m):
    inst = tmp_path / "i.json"
    out = tmp_path / "o.json"
    inst.write_text(save_instance(make_graph(m, m, [(i, i, 1.0, 0.5) for i in range(m)])))
    assert run_cli("oracle", "--instance", str(inst), "--events", "lemma7",
                   "--out", str(out)) == 0
    data = json.loads(out.read_text())
    if m == 20:
        assert data["expected_opt"] == pytest.approx(0.5 * m, abs=1e-9)
    else:
        assert "expected_opt" not in data


def _solution_inputs(tmp_path):
    """A 2x2 complete instance and malformed solution files for it, each
    with the message that must name its fault."""
    inst = tmp_path / "g.json"
    run_cli("gen", "--model", "complete", "--na", "2", "--nb", "2", "--seed", "1",
            "--out", str(inst))
    bad = {
        "short.json": ({"objective": 1.0, "x": [0.5, 0.5]}, "x has 2 entries but the graph has 4 edges"),
        "no_x.json": ({"objective": 1.0}, "missing key 'x'"),
        "array.json": ([0.1, 0.2, 0.3, 0.4], "expected a JSON object, got list"),
        "text_x.json": ({"objective": 1.0, "x": [0.1, "a", 0.1, 0.1]}, "x[1] must hold a float"),
    }
    files = []
    for name, (payload, msg) in bad.items():
        (tmp_path / name).write_text(json.dumps(payload))
        files.append((str(tmp_path / name), msg))
    return str(inst), files


def test_malformed_solutions_are_usage_errors(tmp_path, capsys):
    inst, files = _solution_inputs(tmp_path)
    out = str(tmp_path / "out.json")
    for path, msg in files:
        for argv in (
            ("run", "--alg", "alg1", "--instance", inst, "--solution", path,
             "--trials", "10", "--seed", "0", "--out", out),
            ("oracle", "--instance", inst, "--solution", path, "--out", out),
            ("verify", "--dist-instance", inst, "--dist-solution", path, "--dist-vertex", "0"),
            ("verify", "--dist-instance", inst, "--dist-solution", path, "--dist-vertex", "1"),
        ):
            assert run_cli(*argv) == 2, (argv, path)
            err = capsys.readouterr().err
            assert path in err and msg in err, err


def test_malformed_report_inputs_are_usage_errors(tmp_path, capsys):
    sol = tmp_path / "s.json"
    sol.write_text(json.dumps({"objective": 2.0, "x": [1.0]}))
    run = {"algorithm": "alg1", "mean_weight": 1.5, "stderr": 0.01, "branch": None}
    cases = [
        ("no_mean.json", {k: v for k, v in run.items() if k != "mean_weight"}, "missing key 'mean_weight'"),
        ("no_stderr.json", {k: v for k, v in run.items() if k != "stderr"}, "missing key 'stderr'"),
        ("text_mean.json", {**run, "mean_weight": "1.5"}, "key 'mean_weight' must hold a float"),
        ("array.json", [run], "expected a JSON object, got list"),
    ]
    out = str(tmp_path / "rep.json")
    for name, payload, msg in cases:
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        assert run_cli("report", "--solution", str(sol), "--run", str(path), "--out", out) == 2
        err = capsys.readouterr().err
        assert str(path) in err and msg in err, err
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(run))
    no_objective = tmp_path / "no_objective.json"
    no_objective.write_text(json.dumps({"x": [1.0]}))
    assert run_cli("report", "--solution", str(no_objective), "--run", str(ok), "--out", out) == 2
    assert "missing key 'objective'" in capsys.readouterr().err
    oracle_list = tmp_path / "oracle.json"
    oracle_list.write_text("[]")
    assert run_cli("report", "--solution", str(sol), "--run", str(ok), "--oracle", str(oracle_list),
                   "--out", out) == 2
    assert "expected a JSON object" in capsys.readouterr().err
    assert run_cli("report", "--solution", str(sol), "--run", str(ok), "--out", out) == 0
    assert json.loads((tmp_path / "rep.json").read_text())["rows"][0]["ratio_vs_lp"] == 0.75
