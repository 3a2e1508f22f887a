import contextlib
import dataclasses
import fractions
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hypoel import analysis, cli
from hypoel.analysis import RayConfig
from hypoel.cli import main
from hypoel.errors import ParseError
from hypoel.sequences import GevreySequence

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
    assert report["report-version"] == 3
    assert report["command"] == "analyze"
    assert set(report) == {"report-version", "command", "config", "results"}
    est = report["results"]["estimate"]
    assert est["verdict"] == "hypoelliptic-consistent"
    assert est["d_snapped"] == [1, 1]


def test_analyze_report_pins_the_ray_scheme(tmp_path):
    out = tmp_path / "report.json"
    assert run(["analyze", "--symbol", fixture_path("laplacian.json"), "--out", str(out)]) == 0
    report = read(out)
    assert report["config"]["rays"] == {"directions": 256, "radii": 40}


def test_analyze_rejects_radii_past_the_float_range(tmp_path, capsys):
    args = ["analyze", "--symbol", fixture_path("laplacian.json"), "--rays", "16"]
    assert run(args + ["--radii", "1100", "--out", str(tmp_path / "r.json")]) == 2
    assert "at most 1023 radii" in capsys.readouterr().err
    # a RuntimeWarning is an error here
    assert run(args + ["--radii", "1023", "--out", str(tmp_path / "r.json")]) == 0
    report = read(tmp_path / "r.json")
    assert report["config"]["rays"]["radii"] == 1023 and report["results"]["estimate"]["d_snapped"] == [1, 1]


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


@pytest.mark.parametrize(
    "terms, named",
    [
        ([], "zero symbol"),
        ([{"alpha": [0, 0], "re": 2.0, "im": 0.0}], "order >= 1"),
        ([{"alpha": [2, 0], "re": 1.0, "im": 0.0}, {"alpha": [0, 1], "re": 0.0, "im": 1.0}], "d must be >= 1"),
    ],
    ids=["zero", "order-0", "heat"],
)
def test_analyze_rejects_the_symbol_before_the_exponent(tmp_path, capsys, terms, named):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"dimension": 2, "terms": terms}))
    assert run(["analyze", "--symbol", str(path), "--d", "1/2", "--out", str(tmp_path / "r.json")]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("d", ["1/0", "1e400", "inf", "two"])
def test_analyze_rejects_an_exponent_that_is_not_a_finite_number(tmp_path, capsys, d):
    out = tmp_path / "r.json"
    assert run(["analyze", "--symbol", fixture_path("heat.json"), "--d", d, "--out", str(out)]) == 2
    assert not out.exists()
    assert f"--d {d!r}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, named", [("--rays", "need at least 4 directions"), ("--radii", "at least 8 radii")])
def test_analyze_rejects_a_zero_count(tmp_path, capsys, flag, named):
    # a zero is a value given, not a flag left out
    out = tmp_path / "r.json"
    assert run(["analyze", "--symbol", fixture_path("laplacian.json"), flag, "0", "--out", str(out)]) == 2
    assert not out.exists()
    assert named in capsys.readouterr().err


def test_analyze_rejects_rays_past_the_limit_before_building_any(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(analysis, "unit_directions", lambda *a, **k: pytest.fail("directions were built"))
    args = ["analyze", "--symbol", fixture_path("laplacian.json"), "--out", str(tmp_path / "r.json")]
    assert run(args + ["--rays", str(2**16 + 1)]) == 2
    assert "at most 65536 directions, got 65537" in capsys.readouterr().err
    assert run(args + ["--rays", "100000000000"]) == 2
    assert RayConfig(directions=2**16).directions == 2**16


def test_strength_rejects_points_past_the_limit_before_freezing_any(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(analysis, "freeze_sample_points", lambda *a, **k: pytest.fail("the operator was frozen"))
    args = ["strength", "--variable", fixture_path("drift_operator.json"), "--out", str(tmp_path / "r.json")]
    assert run(args + ["--points", str(2**12 + 1)]) == 2
    assert "at most 4096 freeze points, got 4097" in capsys.readouterr().err
    assert run(args + ["--points", str(10**400)]) == 2


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


def test_seq_check_inclusion_option(tmp_path):
    out = tmp_path / "report.json"
    code = run(["seq-check", "--gevrey", "1", "--inclusion-gevrey", "2", "--out", str(out)])
    assert code == 0
    inc = read(out)["results"]["inclusion"]
    assert inc["holds"] and inc["L"] == 1.0 and inc["C"] == 1.0


def test_seq_check_invalid_order_exits_2(tmp_path, capsys):
    assert run(["seq-check", "--gevrey", "0.5", "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == "error: Gevrey order must be >= 1, got 0.5\n"


def test_seq_check_missing_table_is_named_as_a_path(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["seq-check", "--table", "./x.txt", "--out", "r.json"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read sequence table x.txt: ")


@pytest.mark.parametrize(
    "flags, p",
    [
        (["--gevrey", "1e307", "--pmax", "60", "--inclusion-gevrey", "2"], 2),  # past the limit from p = 2, inf from 12
        (["--table", "inf_row.txt", "--pmax", "6"], 5),
    ],
)
def test_seq_check_logs_not_finite_or_past_the_limit_exit_2_naming_p(tmp_path, capsys, monkeypatch, flags, p):
    monkeypatch.chdir(tmp_path)
    Path("inf_row.txt").write_text("0 1\n1 1\n2 2\n3 6\n4 24\n5 1e400\n6 720\n")
    assert run(["seq-check", *flags, "--out", "r.json"]) == 2
    assert not Path("r.json").exists()
    assert f"at p={p} " in capsys.readouterr().err


@pytest.mark.parametrize("d", ["3 / 2", "2/ 1", "-2/-1", "+3/+2"])
def test_verify_reads_d_with_the_grammar_of_analyze_d(tmp_path, capsys, d):
    config = read(fixture_path("verify_p1.json"))
    config.update(symbol=fixture_path("laplacian.json"), r_symbol=fixture_path("first_order.json"), d=d)
    (tmp_path / "p1.json").write_text(json.dumps(config))
    assert run(["verify", "--check", "p1", "--config", str(tmp_path / "p1.json"), "--out", str(tmp_path / "r.json")]) == 2
    assert "bad value under 'd'" in capsys.readouterr().err
    analyze = ["analyze", "--symbol", fixture_path("laplacian.json"), "--rays", "16", f"--d={d}"]
    assert run([*analyze, "--out", str(tmp_path / "a.json")]) == 2


@pytest.mark.parametrize("check", ["p1", "prop31"])
@pytest.mark.parametrize("fixture, bad", [({"family": "gaussian_bump", "width": 1e-200}, 1),
                                          ({"family": "plane_wave", "k": [1e308, 0]}, 4096)])
def test_verify_rejects_a_fixture_whose_samples_are_not_all_finite(tmp_path, capsys, check, fixture, bad):
    # these passed prop31 with every case flagged, and failed p1 on a NaN right side; a RuntimeWarning is an error here
    config = {"symbol": fixture_path("laplacian.json"), "omega": {"lo": [-0.3, -0.3], "hi": [0.3, 0.3]},
              "resolution": 64, "d": "1", "fixtures": [fixture]}
    config.update({"p1": {"r_symbol": fixture_path("first_order.json")}, "prop31": {"kmax": 2, "deltas": [0.1]}}[check])
    (tmp_path / "c.json").write_text(json.dumps(config))
    out = tmp_path / "r.json"
    assert run(["verify", "--check", check, "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"fixture family {fixture['family']!r}" in err and f": {bad} of 4096 samples are not finite" in err


def test_verify_th1_on_a_factorial_sequence_over_2_to_the_p_passes_its_precondition(tmp_path):
    # p!/2^p defines the same Roumieu class as p!, so the factorial-inclusion precondition holds with L = 2
    (tmp_path / "half.txt").write_text("".join(f"{p} {math.factorial(p) / 2.0**p!r}\n" for p in range(61)))
    config = read(fixture_path("verify_th1.json"))
    config.update(symbol=fixture_path("laplacian.json"), sequence={"kind": "table", "path": "half.txt"})
    (tmp_path / "th1.json").write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert run(["verify", "--check", "th1", "--config", str(tmp_path / "th1.json"), "--out", str(out)]) != 2
    inclusion = read(out)["results"]["preconditions"]["factorial_inclusion"]
    assert inclusion["holds"] and abs(inclusion["L"] - 2.0) < 1e-9


#: --power-m values past the limit: 1e306 and 1e307 overflowed lgamma of p*m, 1e400 the float of m
PAST_POWER_M_LIMIT = ["1e306", "1e307", "1e400", "1001"]


@pytest.mark.parametrize("power_m", PAST_POWER_M_LIMIT)
def test_seq_check_rejects_power_m_past_the_limit_before_any_log_m(tmp_path, capsys, monkeypatch, power_m):
    monkeypatch.setattr(GevreySequence, "log_m", lambda *a: pytest.fail("a log was read"))
    out = tmp_path / "r.json"
    assert run(["seq-check", "--gevrey", "1.5", "--pmax", "60", "--power-m", power_m, "--out", str(out)]) == 2
    assert not out.exists()
    assert f"--power-m is {power_m}, above its limit 1000" in capsys.readouterr().err


def test_seq_check_power_bound_over_a_nan_log_reads_null(tmp_path, monkeypatch):
    # like a table too short to fit: the NaN at p = 100 = 2 * 50 is named, not dropped by max()
    monkeypatch.chdir(tmp_path)
    Path("nan.txt").write_text("".join(f"{p} {math.nan if p == 100 else float(math.factorial(p))!r}\n" for p in range(171)))
    assert run(["seq-check", "--table", "nan.txt", "--out", "r.json"]) == 0
    assert read("r.json")["results"]["h4_b"] is None


def test_seq_check_rejects_pmax_past_the_limit_before_any_log_m(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_basic", lambda *a, **k: pytest.fail("the sequence was evaluated"))
    out = tmp_path / "r.json"
    assert run(["seq-check", "--gevrey", "2", "--pmax", "1001", "--out", str(out)]) == 2
    assert not out.exists()
    assert "--pmax is 1001, above its limit 1000" in capsys.readouterr().err


def test_seq_check_packaged_table(tmp_path):
    out = tmp_path / "report.json"
    code = run(["seq-check", "--table", fixture_path("factorial_table.txt"), "--pmax", "20", "--out", str(out)])
    assert code == 0
    assert read(out)["results"]["h1"]["passed"]


@pytest.mark.parametrize("order", ["1000", "1e300"])
def test_seq_check_constants_past_the_float_range_read_inf(tmp_path, order):
    out = tmp_path / "report.json"
    assert run(["seq-check", "--gevrey", order, "--pmax", "60", "--out", str(out)]) == 0
    results = read(out)["results"]
    assert results["h4_b"] == "inf"
    assert results["h3_right_h"] == ("inf" if order == "1e300" else pytest.approx(3.528404161667198e284))


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--gevrey", "nan"], "--gevrey nan"),
        (["--gevrey", "inf"], "--gevrey inf"),
        (["--gevrey", "2", "--inclusion-gevrey", "nan"], "--inclusion-gevrey nan"),
        (["--gevrey", "2", "--inclusion-gevrey=-inf"], "--inclusion-gevrey -inf"),
    ],
)
def test_seq_check_rejects_an_order_that_is_not_finite(tmp_path, capsys, monkeypatch, flags, named):
    # rejected before any sequence is checked
    monkeypatch.setattr(cli, "check_basic", lambda *a: pytest.fail("the sequence was checked"))
    out = tmp_path / "r.json"
    assert run(["seq-check", *flags, "--out", str(out)]) == 2
    assert not out.exists()
    assert f"{named} is not a finite number" in capsys.readouterr().err


def test_seq_check_rejects_a_zero_denominator(tmp_path, capsys):
    assert run(["seq-check", "--gevrey", "2", "--power-m", "1/0", "--out", str(tmp_path / "r.json")]) == 2
    assert "--power-m '1/0'" in capsys.readouterr().err


@settings(max_examples=60, deadline=None)
@given(
    order=st.floats(1.0, 1e300),
    pmax=st.integers(0, 200),
    power_m=st.tuples(st.integers(-3, 400), st.integers(0, 80)).map(lambda f: f"{f[0]}/{f[1]}")
    | st.sampled_from(PAST_POWER_M_LIMIT),
    inclusion=st.none() | st.floats(0.5, 1e300),
)
def test_seq_check_fuzzed_flags_exit_cleanly(order, pmax, power_m, inclusion):
    # a RuntimeWarning is an error here, and main lets every other exception through
    argv = ["seq-check", f"--gevrey={order!r}", f"--pmax={pmax}", f"--power-m={power_m}"]
    if inclusion is not None:
        argv.append(f"--inclusion-gevrey={inclusion!r}")
    with tempfile.TemporaryDirectory() as tmp:
        code = _quiet_main(argv + ["--out", str(Path(tmp) / "r.json")])
        assert code == 2 if power_m in PAST_POWER_M_LIMIT else code in (0, 1, 2)


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
    assert report["results"]["witness"]


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
    assert "fitted_constant_statement_variant" in report["results"]["extras"]


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


def test_verify_prop31_past_the_float_range_exits_without_nan(tmp_path):
    # at kmax 60 the binomial sums leave the float range: those right sides read "inf"
    symbol = {"dimension": 1, "terms": [{"alpha": [2], "re": 1.0, "im": 0.0}, {"alpha": [0], "re": 1.0, "im": 0.0}]}
    doc = {
        "check": "prop31", "symbol": symbol, "d": "1/1", "resolution": 512,
        "omega": {"lo": [-0.3], "hi": [0.3]}, "kmax": 60, "deltas": [0.01],
        "fixtures": [{"family": "gaussian_bump", "width": 0.05}],
    }
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(doc))
    # main lets every exception but a rejected input through, as a traceback
    assert run(["verify", "--check", "prop31", "--config", str(cfg), "--out", str(out)]) in (0, 1)
    text = out.read_text()
    assert '"nan"' not in text
    assert any(case["rhs"] == "inf" for case in json.loads(text)["results"]["cases"])


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


def test_verify_p1_names_a_dimension_mismatch(tmp_path, capsys):
    doc = read(fixture_path("verify_p1.json"))
    r_symbol = {"dimension": 3, "terms": [{"alpha": [1, 0, 0], "re": 1.0, "im": 0.0}]}
    doc.update(symbol=fixture_path("laplacian.json"), r_symbol=r_symbol)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run(["verify", "--check", "p1", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert "error: dimension mismatch: R has dimension 3, Q has dimension 2" in capsys.readouterr().err


def test_verify_builds_a_modulated_bump(tmp_path):
    assert run_p1_with_fixture(tmp_path, {"family": "modulated_bump", "k": [1, 0], "width": 0.1}) == 0


def run_p1_with_fixture(tmp_path, fixture) -> int:
    doc = read(fixture_path("verify_p1.json"))
    doc.update(fixtures=[fixture], symbol=fixture_path("laplacian.json"), r_symbol=fixture_path("first_order.json"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return run(["verify", "--check", "p1", "--config", str(cfg), "--out", str(tmp_path / "r.json")])


@pytest.mark.parametrize(
    "check, edit, named",
    [
        ("th1", {"sequence": {"kind": "gevrey"}}, ["'sequence'", "'s'"]),
        ("prop31", {"deltas": 5}, ["'deltas'"]),
        ("p1", {"t": None}, ["'t'"]),
        ("domination", {"x0": None}, ["'x0'"]),
        ("th1", {"amax": "many"}, ["'amax'"]),
        ("th1", {"bogus": 1}, ["'bogus'"]),
        ("domination", {"kmax": 2}, ["'kmax'"]),
        ("prop31", {"deltas": [0.05, 0.0]}, ["shrink distance", "0.0"]),
        ("domination", {"lmax": 1e300}, ["'lmax'", "integer"]),
        ("th1", {"d": float("inf")}, ["'d'"]),
        ("prop31", {"deltas": "12"}, ["'deltas'", "list of numbers"]),
        ("domination", {"x0": "00"}, ["'x0'", "list of numbers"]),
        ("domination", {"x0": [True, False]}, ["'x0'", "list of numbers"]),
        ("domination", {"lmax": 10**30}, ["'lmax'", "limit 100"]),
        ("th1", {"lmax": 101}, ["'lmax'", "limit 100"]),
        ("th1", {"amax": 10**30}, ["'amax'", "limit 100"]),
        ("prop31", {"kmax": 10**30}, ["'kmax'", "limit 100"]),
        ("p1", {"seed": 0}, ["unknown key", "'seed'"]),
        ("p1", {"resolution": 2**100}, ["'resolution'", "limit 4096"]),
        ("domination", {"delta": "12"}, ["'delta'", "expected a number"]),
        ("th1", {"delta": "0.05"}, ["'delta'", "expected a number"]),
        ("th1", {"delta": True}, ["'delta'", "expected a number"]),
        ("p1", {"t": "12"}, ["'t'", "expected a number"]),
        ("th1", {"sequence": {"kind": "gevrey", "s": True}}, ["'sequence'", "'s'", "number"]),
        ("th1", {"sequence": {"kind": "gevrey", "s": "2"}}, ["'sequence'", "'s'", "number"]),
        ("p1", {"enforce_diameter": "false"}, ["unknown key", "'enforce_diameter'"]),
        ("domination", {"delta": 5.0}, ["empty-region", "distance 5.0"]),
        ("th1", {"delta": 5.0}, ["empty-region", "distance 5.0"]),
        ("prop31", {"deltas": [0.05, 5.0]}, ["empty-region", "distance 5.0"]),
        ("th1", {"sequence": {"kind": "gevrey", "s": float("nan")}}, ["'s'", "not finite"]),
        ("th1", {"sequence": {"kind": "gevrey", "s": float("inf")}}, ["'s'", "not finite"]),
        ("p1", {"t": float("inf")}, ["'t'", "not finite"]),
        ("prop31", {"deltas": [0.05, float("-inf")]}, ["'deltas'", "not finite"]),
        ("domination", {"x0": [float("nan"), 0.0]}, ["'x0'", "not finite"]),
        ("prop31", {"deltas": []}, ["shrink distances must be one or more", "got []"]),
        (
            "p1",
            {
                "symbol": {"dimension": 1, "terms": [{"alpha": [120], "re": 1.0}, {"alpha": [0], "re": 1.0}]},
                "r_symbol": {"dimension": 1, "terms": [{"alpha": [120], "re": 1.0}]},
                "omega": {"lo": [-0.4], "hi": [0.4]},
                "resolution": 4096,
                "fixtures": [{"family": "gaussian_bump", "width": 0.05}],
            },
            ["spectral-range", "4096 nodes"],
        ),
        ("p1", {"fixtures": [{"family": "polynomial_bump", "support": {"lo": [-0.3], "hi": [0.3]}}]},
         ["support dimension 1 != grid dimension 2"]),
        ("p1", {"fixtures": [{"family": "gaussian_bump", "width": 0.1, "center": [0.0, 0.0],
                              "support": {"lo": [-0.3], "hi": [0.3]}}]}, ["support dimension 1 != grid dimension 2"]),
        ("th1", {"d": True}, ["'d'", "got True"]),
        ("p1", {"d": "1e400"}, ["'d'", "past the float range"]),
        ("th1", {"fixtures": [{"family": "gaussian_bump", "width": 0.1}] * 2}, ["unknown key", "'fixtures'"]),
        ("domination", {"fixtures": [{"family": "gaussian_bump", "width": 0.1}]}, ["unknown key", "'fixtures'"]),
        ("p1", {"fixture": {"family": "gaussian_bump", "width": 0.1}}, ["unknown key", "'fixture'"]),
        ("prop31", {"fixture": {"family": "gaussian_bump", "width": 0.1}}, ["unknown key", "'fixture'"]),
    ],
    ids=["sequence-without-s", "deltas-int", "t-null", "x0-null", "amax-str", "unknown-key", "unread-key",
         "deltas-zero", "lmax-float", "d-inf", "deltas-str", "x0-str", "x0-bools", "lmax-huge", "lmax-past-limit",
         "amax-huge", "kmax-huge", "seed-key", "resolution-huge", "delta-str", "delta-str-th1", "delta-bool", "t-str",
         "s-bool", "s-str", "enforce-diameter-str", "delta-empties-domination", "delta-empties-th1",
         "deltas-empty-prop31", "s-nan", "s-inf", "t-inf", "deltas-minus-inf", "x0-nan", "deltas-none",
         "multiplier-past-float-range", "support-short-polynomial", "support-short-gaussian", "d-bool",
         "d-huge-string", "fixtures-th1", "fixtures-domination", "fixture-beside-fixtures-p1",
         "fixture-beside-fixtures-prop31"],
)
def test_verify_malformed_config_exits_2_naming_the_key(tmp_path, capsys, check, edit, named):
    doc = read(fixture_path(f"verify_{check}.json"))
    for key in ("symbol", "r_symbol", "operator"):
        if key in doc:
            doc[key] = fixture_path(doc[key])
    doc.update(edit)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert run(["verify", "--check", check, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for word in named:
        assert word in err


@pytest.mark.parametrize("text", ["1e10000000", "1e-10000000", "-1e10000000"])
@pytest.mark.parametrize("entry", ["--d", "--power-m", "d"])
def test_a_decimal_past_the_float_range_is_refused_before_fraction_writes_it_out(tmp_path, capsys, monkeypatch, entry, text):
    # Fraction multiplies out 10^|exponent|: at 1e10000000 that took seconds before any limit was checked
    new = fractions.Fraction.__new__

    def guarded(cls, *args, **kwargs):
        if args and args[0] == text:
            pytest.fail(f"Fraction read {text}")
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", guarded)
    out = tmp_path / "r.json"
    if entry == "--d":
        argv = ["analyze", "--symbol", fixture_path("heat.json"), f"--d={text}"]
    elif entry == "--power-m":
        argv = ["seq-check", "--gevrey", "2", f"--power-m={text}"]
    else:
        doc = read(fixture_path("verify_p1.json"))
        doc["symbol"], doc["d"] = fixture_path(doc["symbol"]), text
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = ["verify", "--check", "p1", "--config", str(cfg)]
    assert run([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert {"--d": f"--d {text!r}", "--power-m": f"--power-m is {text}", "d": "'d'"}[entry] in err
    # a positive --power-m too large for a float is named as past its limit, as 1e400 is
    past_limit = entry == "--power-m" and text == "1e10000000"
    assert ("above its limit 1000" if past_limit else "past the float range") in err


def _reached_fixtures(*args):
    raise ParseError("reached the fixtures")


@pytest.mark.parametrize(
    "dim, in_config, named",
    [
        (3, 512, "resolution 512 gives 512^3 nodes, above the limit 2^24"),
        (3, 256, "reached the fixtures"),
        (2, 4096, "reached the fixtures"),
    ],
    ids=["3d-512", "3d-256", "2d-4096"],
)
def test_verify_bounds_the_grid_nodes_before_building_a_fixture(tmp_path, capsys, monkeypatch, dim, in_config, named):
    monkeypatch.setattr(cli, "_config_fixtures", _reached_fixtures)
    doc = read(fixture_path("verify_prop31.json"))
    doc.update({
        "symbol": {"dimension": dim, "terms": [{"alpha": [2] + [0] * (dim - 1), "re": 1.0}]},
        "omega": {"lo": [-0.2] * dim, "hi": [0.2] * dim},
        "resolution": in_config,
    })
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run(["verify", "--check", "prop31", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert named in capsys.readouterr().err


def test_verify_rejects_a_number_past_the_float_range_naming_the_key(tmp_path, capsys):
    # 1e400 reads as inf, as the literals NaN and Infinity read as nan and inf
    doc = read(fixture_path("verify_p1.json"))
    for key in ("symbol", "r_symbol"):
        doc[key] = fixture_path(doc[key])
    doc["t"] = "T"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc).replace('"T"', "1e400"))
    assert run(["verify", "--check", "p1", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert "'t' holds a number that is not finite: inf" in capsys.readouterr().err


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


@pytest.mark.parametrize("check", ["p1", "prop31"])
def test_verify_csv_without_norm_sweeps_exits_2_before_reading_the_config(tmp_path, capsys, monkeypatch, check):
    read_configs = []
    monkeypatch.setattr(cli, "_load_config", lambda path: read_configs.append(path) or {})
    out, csv = tmp_path / "r.json", tmp_path / "sweeps.csv"
    argv = ["verify", "--check", check, "--config", fixture_path(f"verify_{check}.json"), "--csv", str(csv)]
    assert run(argv + ["--out", str(out)]) == 2
    assert f"the {check} check: it has no norm sweeps to export" in capsys.readouterr().err
    assert not read_configs and not out.exists() and not csv.exists()


# -- determinism -------------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "--symbol", fixture_path("laplacian.json")],
        ["seq-check", "--gevrey", "2", "--pmax", "40"],
        ["strength", "--p", fixture_path("first_order.json"), "--q", fixture_path("laplacian.json")],
        ["strength", "--variable", fixture_path("drift_operator.json")],
        ["verify", "--check", "th1", "--config", fixture_path("verify_th1.json")],
        ["verify", "--check", "domination", "--config", fixture_path("verify_domination.json")],
    ],
)
def test_reports_byte_identical_across_runs(tmp_path, args):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(args + ["--out", str(out1)]) in (0, 1)
    assert run(args + ["--out", str(out2)]) in (0, 1)
    assert out1.read_bytes() == out2.read_bytes()


PACKAGED_COMMANDS = [
    ["analyze", "--symbol", fixture_path("laplacian.json")],
    ["analyze", "--symbol", fixture_path("heat.json"), "--d", "2"],
    ["analyze", "--symbol", fixture_path("wave.json")],
    ["seq-check", "--gevrey", "2", "--pmax", "60", "--inclusion-gevrey", "1"],
    ["seq-check", "--table", fixture_path("factorial_table.txt"), "--pmax", "20"],
    ["seq-check", "--table", fixture_path("factorial_table.txt")],
    ["strength", "--p", fixture_path("first_order.json"), "--q", fixture_path("laplacian.json")],
    ["strength", "--variable", fixture_path("drift_operator.json")],
    ["strength", "--variable", fixture_path("degenerate_operator.json")],
    *(["verify", "--check", check, "--config", fixture_path(f"verify_{check}.json")]
      for check in ("p1", "prop31", "th1", "domination")),
    ["verify", "--check", "th1", "--config", fixture_path("verify_th1_bad.json")],
]


def test_every_packaged_command_runs_twice_in_one_process_alike(tmp_path):
    # the second run reuses the parser the first one built
    def once(args):
        out, csv, err = tmp_path / "r.json", tmp_path / "r.csv", io.StringIO()
        for path in (out, csv):
            path.unlink(missing_ok=True)
        flags = ["--csv", str(csv)] if args[0] == "verify" and args[2] in ("th1", "domination") else []
        with contextlib.redirect_stderr(err):
            code = main(args + ["--out", str(out), *flags])
        return code, err.getvalue(), *(p.read_bytes() if p.exists() else None for p in (out, csv))

    for args in PACKAGED_COMMANDS:
        first = once(args)
        assert first[0] in (0, 1, 2) and (first[2] is None) == (first[0] == 2)
        assert once(args) == first, args


def test_the_parser_is_built_on_the_first_call_only(tmp_path, monkeypatch):
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    args = ["seq-check", "--gevrey", "2", "--pmax", "20", "--out", str(tmp_path / "r.json")]
    assert main(args) == 0 and main(args) == 0
    assert built == [1]


def test_the_parser_parses_correctly_after_an_argparse_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--symbol", fixture_path("laplacian.json"), "--rays", "many"])
    assert exc.value.code == 2 and "--rays: invalid int value" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["seq-check", "--gevrey", "2", "--table", fixture_path("factorial_table.txt")])
    out = tmp_path / "r.json"
    assert main(["analyze", "--symbol", fixture_path("laplacian.json"), "--rays", "16", "--out", str(out)]) == 0
    config = read(out)["config"]
    assert config["rays"] == {"directions": 16, "radii": 40} and config["d"] is None


def test_a_replaced_run_function_is_the_one_that_runs(monkeypatch):
    cli._parser()  # built before the replacement
    seen = []
    monkeypatch.setattr(cli, "run_analyze", lambda args: seen.append(args.symbol) or 7)
    assert main(["analyze", "--symbol", "q.json"]) == 7
    assert seen == ["q.json"]


def test_module_run_prints_the_in_process_report(capsys):
    args = ["analyze", "--symbol", fixture_path("laplacian.json"), "--rays", "32"]
    assert main(args) == 0
    in_process = capsys.readouterr().out
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "hypoel.cli", *args], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == in_process


@dataclasses.dataclass
class _Result:
    """A result object of the kind the commands hand the writer: a dataclass holding a subtree."""

    label: str
    value: object


def _sanitize(obj):
    """Reference: inf and nan become their repr strings, a dataclass the dict of its fields and an array its list;
    json.dumps of the result is the text the writer must give."""
    if dataclasses.is_dataclass(obj):
        return _sanitize(vars(obj))
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return repr(obj)
        return obj
    return obj


report_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, min_side=0, max_side=3)),
    lambda children: st.lists(children) | st.lists(children).map(tuple) | st.dictionaries(st.text(), children)
    | st.builds(_Result, st.text(), children),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(tree=report_trees)
@example(tree={"ä": [0.0, -0.0, float("inf"), float("-inf"), float("nan")], "": {}, "e": [], "t": (1, "\u2028")})
@example(tree=[10**40, -1, True, None, 1e-300, 5e-324, 1.7976931348623157e308, "\x00\"\\"])
@example(tree=_Result("r", {"a": np.array([[0.0, -0.0], [np.inf, np.nan]]), "b": _Result("", np.zeros(0))}))
def test_report_text_is_the_sanitized_json_dump(tree):
    want = json.dumps(_sanitize(tree), indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert cli._json_text(tree) == want


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
    assert "seed" not in config
    assert config["resolution"] == 128
    assert config["kmax"] == 3
    assert config["deltas"] == [0.05, 0.1, 0.2]


# -- fuzzed symbol documents ---------------------------------------------------------

#: values that break one field of a term: the parser must name them, exit 2
BAD_VALUES = ["nan", "inf", "-inf", "1e400", "x", None, [], {}]


@st.composite
def symbol_docs(draw):
    """A small symbol document, sometimes of one variable up to order 100, sometimes with one flaw."""
    if draw(st.integers(0, 4)) == 0:
        dimension, alphas = 1, st.lists(st.integers(0, 100), min_size=1, max_size=1)
    else:
        dimension = draw(st.integers(1, 3))
        alphas = st.lists(st.integers(0, 8 // dimension), min_size=dimension, max_size=dimension)
    coefficient = st.floats(-100.0, 100.0, allow_nan=False)
    terms = draw(
        st.lists(
            st.fixed_dictionaries({"alpha": alphas, "re": coefficient, "im": coefficient}),
            min_size=1, max_size=6, unique_by=lambda term: tuple(term["alpha"]),
        )
    )
    doc = {"dimension": dimension, "terms": terms}
    flaw = draw(st.sampled_from([None] * 5 + ["duplicate", "missing", "bad-value", "dimension"]))
    term = draw(st.sampled_from(terms))
    key = draw(st.sampled_from(["alpha", "re", "im"]))
    if flaw == "duplicate":
        terms.append(dict(term))
    elif flaw == "missing":
        del term[key]
    elif flaw == "bad-value":
        term[key] = draw(st.sampled_from(BAD_VALUES + [[-1] * dimension, [1] * (dimension + 1)]))
    elif flaw == "dimension":
        doc["dimension"] = draw(st.sampled_from([0, dimension + 1, "two", None]))
    return doc


def _run_documents(command, docs, rays):
    """Exit code of the CLI on the documents; anything but a clean exit fails the test."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, doc in enumerate(docs):
            paths.append(Path(tmp) / f"symbol{k}.json")
            paths[-1].write_text(json.dumps(doc))
        flags = ["--symbol", str(paths[0])] if command == "analyze" else ["--p", str(paths[0]), "--q", str(paths[1])]
        with contextlib.redirect_stderr(io.StringIO()):
            return run([command, *flags, "--rays", str(rays), "--out", str(Path(tmp) / "report.json")])


@settings(max_examples=50, deadline=None)
@given(doc=symbol_docs(), rays=st.integers(16, 64))
def test_analyze_fuzzed_symbols_exit_cleanly(doc, rays):
    # a RuntimeWarning is an error here, and main lets every other exception through
    assert _run_documents("analyze", [doc], rays) in (0, 1, 2)


@settings(max_examples=50, deadline=None)
@given(p=symbol_docs(), q=symbol_docs(), rays=st.integers(16, 64))
def test_strength_fuzzed_symbols_exit_cleanly(p, q, rays):
    assert _run_documents("strength", [p, q], rays) in (0, 1, 2)


# -- fuzzed operator documents and verify configs ---------------------------------------


@st.composite
def operator_docs(draw):
    """A small variable-operator document, sometimes with one flaw."""
    dimension = draw(st.integers(1, 3))
    alphas = st.lists(st.integers(0, 4 // dimension), min_size=dimension, max_size=dimension)
    coefficient = st.floats(-10.0, 10.0, allow_nan=False)
    term = st.fixed_dictionaries({
        "alpha": st.lists(st.integers(0, 2), min_size=dimension, max_size=dimension),
        "re": coefficient,
        "im": coefficient,
    })
    poly = st.fixed_dictionaries({
        "dimension": st.just(dimension),
        "terms": st.lists(term, min_size=1, max_size=3, unique_by=lambda t: tuple(t["alpha"])),
    })
    coefficients = draw(
        st.lists(
            st.fixed_dictionaries({"alpha": alphas, "poly": poly}),
            min_size=1, max_size=4, unique_by=lambda c: tuple(c["alpha"]),
        )
    )
    lo = draw(st.lists(st.floats(-2.0, 1.0), min_size=dimension, max_size=dimension))
    hi = [a + draw(st.floats(0.1, 2.0)) for a in lo]
    doc = {"dimension": dimension, "coefficients": coefficients, "domain": {"lo": lo, "hi": hi}}
    flaw = draw(st.sampled_from([None] * 4 + ["duplicate", "missing", "bad-value", "domain", "poly-dimension"]))
    entry = draw(st.sampled_from(coefficients))
    if flaw == "duplicate":
        coefficients.append(dict(entry))
    elif flaw == "missing":
        owner, key = draw(st.sampled_from([(doc, "domain"), (doc, "coefficients"), (entry, "alpha"), (entry, "poly")]))
        del owner[key]
    elif flaw == "bad-value":
        bad = draw(st.sampled_from(BAD_VALUES + [[-1] * dimension, [1] * (dimension + 1)]))
        if draw(st.booleans()):
            entry["alpha"] = bad
        else:
            entry["poly"]["terms"][0][draw(st.sampled_from(["alpha", "re", "im"]))] = bad
    elif flaw == "domain":
        doc["domain"] = draw(st.sampled_from([
            {"lo": hi, "hi": lo}, {"lo": lo}, {"lo": lo + [0.0], "hi": hi}, {"lo": ["x"] * dimension, "hi": hi},
            "box", None,
        ]))
    elif flaw == "poly-dimension":
        entry["poly"]["dimension"] = dimension + 1
    return doc


def _quiet_main(argv) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        return run(argv)


@settings(max_examples=40, deadline=None)
@given(doc=operator_docs(), rays=st.integers(16, 48), points=st.sampled_from([None, 1, 3, 9]))
def test_strength_fuzzed_operators_exit_cleanly(doc, rays, points):
    # a RuntimeWarning is an error here, and main lets every other exception through
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "operator.json"
        path.write_text(json.dumps(doc))
        flags = ["--points", str(points)] if points else []
        argv = ["strength", "--variable", str(path), "--rays", str(rays), *flags, "--out", str(Path(tmp) / "r.json")]
        assert _quiet_main(argv) in (0, 1, 2)


def _inline_symbols(doc: dict) -> dict:
    """The packaged config with every symbol or operator file reference replaced by its document."""
    for key in ("symbol", "r_symbol", "operator"):
        if key in doc:
            doc[key] = json.loads((FIXTURES / doc[key]).read_text())
    return doc


VERIFY_CONFIGS = {
    check: _inline_symbols(json.loads((FIXTURES / f"verify_{check}.json").read_text()))
    for check in ("domination", "p1", "prop31", "th1")
}

#: fixtures whose samples are not all finite on every packaged config's grid: 2 w^2 underflows, so the
#: centre node is 0/0, and a frequency past the float range makes every phase NaN
NON_FINITE_FIXTURES = [{"family": "gaussian_bump", "width": 1e-200}, {"family": "plane_wave", "k": [1e308, 0]}]

#: numbers for one key of a verify config, or for the entries of a list under it;
#: integers stay small so a run stays short
NUMBERS = [-1, 0, 1, 2, 3, 0.0, -0.05, 1e-9, 0.05, 0.3, 1e300, float("nan"), float("inf")]
#: besides these, huge integers, past every integer key's limit, digit strings, which no list key takes,
#: and strings and booleans under the keys that take one number or one boolean
CONFIG_VALUES = NUMBERS + [
    10**30, -(10**30), 2**63, "12", "00", "1e400",
    "x", "1/2", "0/1", "1/0", "-1", None, True, False, "false", "no", [], ["x"],
    {}, {"lo": [-0.3, -0.3], "hi": [0.3, 0.3]}, {"lo": [0.3, 0.3], "hi": [-0.3, -0.3]},
    {"family": "gaussian_bump", "width": 0.1}, {"kind": "gevrey", "s": 0.5}, {"kind": "table", "path": "none.txt"},
    {"kind": "gevrey", "s": "2"}, {"kind": "gevrey", "s": True}, *NON_FINITE_FIXTURES,
]


def _mistyped(key, value) -> bool:
    """A scalar that must be a JSON number (delta, t, a Gevrey s), or an exponent d within the float range, but is not."""
    if key == "sequence" and isinstance(value, dict) and value.get("kind") == "gevrey" and "s" in value:
        key, value = "s", value["s"]
    if key == "d":  # a boolean, or "1e400": the one value of CONFIG_VALUES that reads past the float range
        return isinstance(value, bool) or value == "1e400"
    return key in ("delta", "t", "s") and (isinstance(value, bool) or not isinstance(value, (int, float)))


@st.composite
def verify_configs(draw):
    """A packaged verify config at a small resolution, with up to two keys replaced or removed."""
    check = draw(st.sampled_from(sorted(VERIFY_CONFIGS)))
    doc = json.loads(json.dumps(VERIFY_CONFIGS[check]))
    doc["resolution"] = draw(st.sampled_from([16, 32]))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(doc) + ["fixture", "fixtures", "unknown"]))
        if draw(st.integers(0, 4)) == 0:
            doc.pop(key, None)
        else:
            doc[key] = draw(st.one_of(st.sampled_from(CONFIG_VALUES), st.lists(st.sampled_from(NUMBERS), max_size=3)))
    return check, doc


@settings(max_examples=60, deadline=None)
@given(config=verify_configs())
@example(config=("th1", {**VERIFY_CONFIGS["th1"], "resolution": 16, "fixture": NON_FINITE_FIXTURES[0]}))
@example(config=("domination", {**VERIFY_CONFIGS["domination"], "resolution": 32, "fixture": NON_FINITE_FIXTURES[1]}))
def test_verify_fuzzed_configs_exit_cleanly(config):
    check, doc = config
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        argv = ["verify", "--check", check, "--config", str(path), "--out", str(Path(tmp) / "r.json")]
        code = _quiet_main(argv)
        flawed = any(_mistyped(k, v) or v in NON_FINITE_FIXTURES for k, v in doc.items())
        assert code == 2 if flawed else code in (0, 1, 2)


def _verify_th1(doc):
    """For a tmp_path, the argv of `verify --check th1` on doc, written there as its config."""
    def argv(tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return ["verify", "--check", "th1", "--config", str(path)]
    return argv


TH1 = VERIFY_CONFIGS["th1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(lambda t: ["analyze", "--symbol", fixture_path("drift_operator.json")],
                     "holds a variable operator; `analyze` expects a symbol", id="analyze-operator"),
        pytest.param(lambda t: ["strength", "--variable", fixture_path("laplacian.json")],
                     "laplacian.json does not hold a variable operator", id="strength-variable-symbol"),
        pytest.param(lambda t: ["strength", "--p", fixture_path("drift_operator.json"), "--q", fixture_path("laplacian.json")],
                     "`strength --p/--q` expects constant-coefficient symbols", id="strength-p-operator"),
        pytest.param(_verify_th1([TH1]), "cfg.json must be a JSON object", id="config-list"),
        pytest.param(_verify_th1({**TH1, "symbol": fixture_path("drift_operator.json")}),
                     "'symbol' must be a SymbolPolynomial", id="th1-symbol-operator"),
        pytest.param(_verify_th1({**TH1, "sequence": "gevrey"}), "config needs a 'sequence' object", id="th1-sequence-string"),
        pytest.param(_verify_th1({**TH1, "sequence": {"kind": "beta"}}), "unknown sequence kind 'beta'", id="th1-sequence-kind"),
        pytest.param(_verify_th1({k: v for k, v in TH1.items() if k != "fixture"}),
                     "config is missing 'fixture'", id="no-fixture"),
        pytest.param(lambda t: ["strength", "--p", fixture_path("laplacian.json")],
                     "strength needs either --variable or both --p and --q", id="strength-p-alone"),
        pytest.param(lambda t: ["strength", "--p", fixture_path("laplacian.json"), "--q", fixture_path("heat.json"),
                                "--points", "7"],
                     "--points does not apply to strength --p/--q", id="strength-pq-points"),
        pytest.param(lambda t: ["strength", "--variable", fixture_path("drift_operator.json"),
                                "--p", fixture_path("laplacian.json")],
                     "--p does not apply to strength --variable", id="strength-variable-p"),
        pytest.param(lambda t: ["seq-check", "--gevrey", "2", "--seed", "3"],
                     "unrecognized arguments: --seed 3", id="seq-check-seed"),
        pytest.param(lambda t: ["analyze", "--symbol", fixture_path("laplacian.json"), "--seed", "0"],
                     "unrecognized arguments: --seed 0", id="analyze-seed"),
        pytest.param(lambda t: ["strength", "--variable", fixture_path("drift_operator.json"), "--seed", "0"],
                     "unrecognized arguments: --seed 0", id="strength-seed"),
        pytest.param(lambda t: _verify_th1(TH1)(t) + ["--seed", "0"],
                     "unrecognized arguments: --seed 0", id="verify-seed"),
        # each verify setting has one source, its config key
        *(pytest.param(lambda t, flag=flag: _verify_th1(TH1)(t) + [f"--{flag}", "2"],
                       f"unrecognized arguments: --{flag} 2", id=f"verify-{flag}") for flag in ("resolution", "kmax", "lmax")),
    ],
)
def test_rejected_inputs_exit_2_naming_the_reason(tmp_path, capsys, argv, message):
    out = tmp_path / "r.json"
    try:
        code = run(argv(tmp_path) + ["--out", str(out)])
    except SystemExit as exc:  # the argparse error
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err
    assert not out.exists()
