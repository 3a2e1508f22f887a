import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from hypoel.cli import main

FIXTURES = resources.files("hypoel") / "fixtures"


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def run(args) -> int:
    return main(args)


def read(path) -> dict:
    return json.loads(Path(path).read_text())


# -- analyze -------------------------------------------------------------------


def test_analyze_laplacian(tmp_path):
    out = tmp_path / "report.json"
    code = run(["analyze", "--symbol", fixture_path("laplacian.json"), "--out", str(out)])
    assert code == 0
    report = read(out)
    assert report["report-version"] == 1
    assert report["command"] == "analyze"
    assert set(report) == {"report-version", "command", "config", "results", "witnesses"}
    est = report["results"]["estimate"]
    assert est["verdict"] == "hypoelliptic-consistent"
    assert est["d_snapped"] == [1, 1]


def test_analyze_wave_is_a_finding_not_an_error(tmp_path):
    out = tmp_path / "report.json"
    code = run(["analyze", "--symbol", fixture_path("wave.json"), "--out", str(out)])
    assert code == 0
    assert read(out)["results"]["estimate"]["verdict"] == "violated"


def test_analyze_with_check_at_d(tmp_path):
    out = tmp_path / "report.json"
    code = run(["analyze", "--symbol", fixture_path("heat.json"), "--d", "2", "--out", str(out)])
    assert code == 0
    assert read(out)["results"]["check_at_d"]["verdict"] == "hypoelliptic-consistent"


def test_analyze_malformed_input_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ truncated")
    assert run(["analyze", "--symbol", str(bad), "--out", str(tmp_path / "r.json")]) == 2
    missing = tmp_path / "missing.json"
    assert run(["analyze", "--symbol", str(missing)]) == 2


def test_analyze_invalid_override_exits_2(tmp_path):
    code = run(["analyze", "--symbol", fixture_path("laplacian.json"), "--radii", "2"])
    assert code == 2


# -- seq-check ------------------------------------------------------------------


def test_seq_check_gevrey(tmp_path):
    out = tmp_path / "report.json"
    code = run(["seq-check", "--gevrey", "2", "--pmax", "60", "--out", str(out)])
    assert code == 0
    results = read(out)["results"]
    assert results["h1"]["passed"]
    assert results["root_monotone"]["passed"]
    assert results["h3_left"]["passed"]
    assert results["h4_b"] is not None


def test_seq_check_constant_table_reports_failure(tmp_path):
    table = tmp_path / "seq.txt"
    table.write_text("".join(f"{p} 1.0\n" for p in range(61)))
    out = tmp_path / "report.json"
    code = run(["seq-check", "--table", str(table), "--pmax", "60", "--out", str(out)])
    assert code == 0
    report = read(out)
    assert not report["results"]["h3_left"]["passed"]
    assert report["results"]["h3_left"]["first_failure"] == [2, 1]
    assert report["witnesses"]


def test_seq_check_inclusion_option(tmp_path):
    out = tmp_path / "report.json"
    code = run(["seq-check", "--gevrey", "1", "--inclusion-gevrey", "2", "--out", str(out)])
    assert code == 0
    inc = read(out)["results"]["inclusion"]
    assert inc["holds"] and inc["L"] == 1.0 and inc["C"] == 1.0


def test_seq_check_invalid_order_exits_2(tmp_path):
    assert run(["seq-check", "--gevrey", "0.5", "--out", str(tmp_path / "r.json")]) == 2


def test_seq_check_packaged_table(tmp_path):
    out = tmp_path / "report.json"
    code = run(["seq-check", "--table", fixture_path("factorial_table.txt"), "--pmax", "20", "--out", str(out)])
    assert code == 0
    assert read(out)["results"]["h1"]["passed"]


# -- strength -------------------------------------------------------------------


def test_strength_pair(tmp_path):
    out = tmp_path / "report.json"
    code = run([
        "strength", "--p", fixture_path("first_order.json"),
        "--q", fixture_path("laplacian.json"), "--out", str(out),
    ])
    assert code == 0
    assert read(out)["results"]["verdict"] == "P-weaker"


def test_strength_variable_operator(tmp_path):
    out = tmp_path / "report.json"
    code = run(["strength", "--variable", fixture_path("drift_operator.json"), "--out", str(out)])
    assert code == 0
    assert read(out)["results"]["verdict"] == "constant-strength"


def test_strength_degenerate_operator(tmp_path):
    out = tmp_path / "report.json"
    code = run(["strength", "--variable", fixture_path("degenerate_operator.json"), "--out", str(out)])
    assert code == 0
    report = read(out)
    assert report["results"]["verdict"] == "not-constant-strength"
    assert report["witnesses"]


# -- verify ---------------------------------------------------------------------


def test_verify_th1_passes(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--check", "th1", "--config", fixture_path("verify_th1.json"), "--out", str(out)])
    assert code == 0
    assert read(out)["results"]["verdict"] == "pass"


def test_verify_th1_bad_inclusion_exits_2_naming_precondition(tmp_path, capsys):
    code = run(["verify", "--check", "th1", "--config", fixture_path("verify_th1_bad.json")])
    assert code == 2
    assert "factorial-inclusion" in capsys.readouterr().err


def test_verify_prop31(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--check", "prop31", "--config", fixture_path("verify_prop31.json"), "--out", str(out)])
    assert code == 0
    report = read(out)
    assert report["results"]["verdict"] == "pass"
    assert "fitted_constant_proof_variant" in report["results"]["extras"]


def test_verify_domination(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--check", "domination", "--config", fixture_path("verify_domination.json"), "--out", str(out)])
    assert code == 0
    assert read(out)["results"]["verdict"] == "pass"


def test_verify_p1(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--check", "p1", "--config", fixture_path("verify_p1.json"), "--out", str(out)])
    assert code == 0
    assert read(out)["results"]["verdict"] == "pass"


def test_verify_check_flag_must_match_config(tmp_path):
    assert run(["verify", "--check", "p1", "--config", fixture_path("verify_th1.json")]) == 2


def test_verify_missing_config_exits_2(tmp_path):
    assert run(["verify", "--check", "th1", "--config", str(tmp_path / "none.json")]) == 2


def test_verify_failing_inequality_exits_1(tmp_path):
    # resolution-starved geometry: residual slopes go positive, an honest fail
    doc = json.loads(Path(fixture_path("verify_th1.json")).read_text())
    doc["omega"] = {"lo": [-0.4, -0.4], "hi": [0.4, 0.4]}
    doc["symbol"] = json.loads(Path(fixture_path("laplacian.json")).read_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = run(["verify", "--check", "th1", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert read(out)["results"]["verdict"] == "fail"


@pytest.mark.parametrize(
    "fixture, named",
    [
        ({"family": "gaussian_bump"}, ["gaussian_bump", "width"]),
        ({"family": "plane_wave", "k": 5}, ["plane_wave", "'k'"]),
        ({"family": "gaussian_bump", "widht": 0.1}, ["gaussian_bump", "widht"]),
        ({"family": "gaussian_bump", "width": 0.1, "support": {"lo": [0, 0]}}, ["gaussian_bump", "support"]),
        ({"family": "no_such_family"}, ["no_such_family"]),
        ({"width": 0.1}, ["family"]),
        ("gaussian_bump", ["family"]),
        ({"family": ["zero"]}, ["family"]),
    ],
)
def test_verify_malformed_fixture_exits_2_naming_it(tmp_path, capsys, fixture, named):
    assert run_p1_with_fixture(tmp_path, fixture) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for word in named:
        assert word in err


def test_verify_builds_a_modulated_bump(tmp_path):
    assert run_p1_with_fixture(tmp_path, {"family": "modulated_bump", "k": [1, 0], "width": 0.1}) == 0


def run_p1_with_fixture(tmp_path, fixture) -> int:
    doc = read(fixture_path("verify_p1.json"))
    doc.update(fixtures=[fixture], symbol=fixture_path("laplacian.json"), r_symbol=fixture_path("first_order.json"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return run(["verify", "--check", "p1", "--config", str(cfg), "--out", str(tmp_path / "r.json")])


def test_verify_csv_export(tmp_path):
    out = tmp_path / "report.json"
    csv = tmp_path / "sweeps.csv"
    code = run([
        "verify", "--check", "th1", "--config", fixture_path("verify_th1.json"),
        "--out", str(out), "--csv", str(csv),
    ])
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "kind,label,norm,flagged"
    kinds = {line.split(",")[0] for line in lines[1:]}
    assert kinds == {"iterates", "derivatives"}


def test_verify_domination_csv_export(tmp_path):
    csv = tmp_path / "sweeps.csv"
    code = run([
        "verify", "--check", "domination", "--config", fixture_path("verify_domination.json"),
        "--out", str(tmp_path / "r.json"), "--csv", str(csv),
    ])
    assert code == 0
    kinds = {line.split(",")[0] for line in csv.read_text().strip().splitlines()[1:]}
    assert kinds == {"frozen-iterates", "variable-iterates"}


# -- determinism -------------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "--symbol", fixture_path("laplacian.json")],
        ["seq-check", "--gevrey", "2", "--pmax", "40"],
        ["strength", "--p", fixture_path("first_order.json"), "--q", fixture_path("laplacian.json")],
        ["verify", "--check", "th1", "--config", fixture_path("verify_th1.json")],
    ],
)
def test_reports_byte_identical_across_runs(tmp_path, args):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(args + ["--out", str(out1)]) in (0, 1)
    assert run(args + ["--out", str(out2)]) in (0, 1)
    assert out1.read_bytes() == out2.read_bytes()


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs_cleanly(script):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_report_embeds_full_config(tmp_path):
    out = tmp_path / "report.json"
    run(["verify", "--check", "prop31", "--config", fixture_path("verify_prop31.json"), "--out", str(out)])
    config = read(out)["config"]
    assert config["seed"] == 0
    assert config["resolution"] == 128
    assert config["kmax"] == 3
    assert config["deltas"] == [0.05, 0.1, 0.2]
