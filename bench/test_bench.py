"""Tests of the benchmark's own checks, judging and tracing (about two seconds).

    python3 -m pytest bench/test_bench.py -q
"""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks as C  # noqa: E402
import hostspeed  # noqa: E402
import hypoel as H  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def report(verdict="hypoelliptic-consistent", d_snapped=None, d_estimate=None):
    return SimpleNamespace(verdict=verdict, d_snapped=d_snapped, d_estimate=d_estimate)


# -- hand-worked answers ------------------------------------------------------------


@pytest.mark.parametrize(
    "orders, d",
    [((2, 4), (2, 1)), ((4, 2), (2, 1)), ((2, 6, 4), (3, 1)), ((4, 6), (3, 2)), ((2, 2), (1, 1))],
)
def test_quasi_elliptic_exponent(orders, d):
    assert C.quasi_elliptic_d(orders) == d


def test_exponent_check_on_the_program():
    # xi1^2 + xi2^4 => d = 2
    q = H.SymbolPolynomial(2, {(2, 0): 1.0, (0, 4): 1.0})
    assert C.check_exponent(H.estimate_d(q), C.quasi_elliptic_d((2, 4))) is None


def test_exponent_check_rejects_wrong_answers():
    assert C.check_exponent(report(d_snapped=(2, 1)), (2, 1)) is None
    assert "expected (2, 1)" in C.check_exponent(report(d_snapped=(3, 1)), (2, 1))
    assert "inconclusive" in C.check_exponent(report("inconclusive", (2, 1)), (2, 1))
    assert C.check_verdict(report("violated"), "violated") is None
    assert C.check_verdict(report("hypoelliptic-consistent"), "violated") is not None


def test_strength_from_the_definition():
    # P = xi^2: |P|^2 + |P'|^2 + |P''|^2 = 81 + 36 + 4 at xi = 3
    assert C.strength({(2,): 1.0}, np.array([3.0])) == pytest.approx(11.0)
    assert C.poly_derive({(3, 1): 2.0}, (2, 1)) == {(1, 0): 12.0}


def test_temperate_checks():
    fit = SimpleNamespace(success=True, c=1.0, n_exp=1.0)
    assert C.check_temperate_one_plus_norm(fit) is None
    assert C.check_temperate_one_plus_norm(SimpleNamespace(success=True, c=2.0, n_exp=1.0)) is not None
    # strength of xi^2 + 1 is not temperate with N = 0
    xi, eta = np.array([[0.0]]), np.array([[5.0]])
    assert C.check_temperate_fit(SimpleNamespace(success=True, c=1.0, n_exp=0.0), {(2,): 1, (0,): 1}, xi, eta)
    assert C.check_temperate_fit(SimpleNamespace(success=True, c=1.0, n_exp=2.0), {(2,): 1, (0,): 1}, xi, eta) is None
    pts = C.ball_points(np.random.default_rng(0), 256, 3, 10.0)
    assert pts.shape == (256, 3) and np.linalg.norm(pts, axis=1).max() <= 10.0


def test_sandwich_check():
    good = SimpleNamespace(sandwich_lower_margin=0.0, power_identity_residual=1e-9)
    assert C.check_sandwich(good) is None
    assert C.check_sandwich(SimpleNamespace(sandwich_lower_margin=-1e-3, power_identity_residual=0.0))
    assert C.check_sandwich(SimpleNamespace(sandwich_lower_margin=0.0, power_identity_residual=1e-3))


def test_gevrey_power_bound_by_hand():
    assert C.gevrey_power_bound(1.0, 1) == pytest.approx(2.0)
    assert C.gevrey_power_bound(1.0, 2) == pytest.approx(math.sqrt(6.0))
    assert C.gevrey_power_bound(2.0, 2) == pytest.approx(6.0)


def test_plane_wave_closed_forms_match_spectral_reference():
    grid = C.Grid((-0.5, -0.5), (0.5, 0.5), 32)
    box = ((-0.3, -0.3), (0.3, 0.3))
    values = C.plane_wave_values(grid, (2, -1))
    closed = C.plane_wave_derivative_norms(grid, (2, -1), 3, *box, 0.05)
    spectral = C.derivative_norms_ref(grid, values, 3, *box, 0.05)
    assert np.allclose(closed, spectral, rtol=1e-10)
    # |k|^2 for the Laplacian: k = 2 pi (2, -1)
    lap = {(2, 0): 1.0, (0, 2): 1.0}
    iterates = C.plane_wave_iterate_norms(grid, (2, -1), lap, 2, *box, 0.05)
    assert iterates[1] / iterates[0] == pytest.approx((2 * np.pi) ** 2 * 5)
    assert np.allclose(iterates, C.iterate_norms_ref(grid, values, lap, 2, *box, 0.05), rtol=1e-10)


def test_shrink_norm_of_a_constant():
    grid = C.Grid((-1.0,), (1.0,), 64)
    values = np.ones(64)
    # delta^1 * sqrt(#nodes in (-0.5 + delta, 0.5 - delta) * dv), maximized over the delta grid
    want = max(d * math.sqrt(np.sum(np.abs(grid.axes[0]) < 0.5 - d) / 32) for d in C.delta_grid(0.4))
    assert C.brute_shrink_norm(grid, values, (-0.5,), (0.5,), 1.0, 0.4) == pytest.approx(want)
    deltas = C.delta_grid(0.4)
    assert deltas.max() == pytest.approx(0.4) and deltas.min() == pytest.approx(4e-5)


def test_sweep_and_case_checks_catch_wrong_answers():
    sweep = SimpleNamespace(labels=[0, 1], norms=[1.0, 2.0], flagged=[False, True])
    assert C.check_sweep(sweep, [1.0, 5.0], 1e-9, unflagged_only=True) is None
    assert C.check_sweep(sweep, [1.0, 5.0], 1e-9, unflagged_only=False) is not None
    assert C.check_sweep(sweep, [1.1, 2.0], 1e-9, unflagged_only=True) is not None
    case = SimpleNamespace(params={}, lhs=1.0, rhs=2.0, flagged=False)
    ok = SimpleNamespace(verdict="pass", fitted_constant=1.0, cases=[case])
    assert C.check_cases_close(ok) is None
    bad = SimpleNamespace(verdict="pass", fitted_constant=1.0, cases=[SimpleNamespace(params={}, lhs=3.0, rhs=2.0, flagged=False)])
    assert "does not close" in C.check_cases_close(bad)


def test_growth_fit_check_by_hand():
    # ||Q^l u|| <= C^{l+1} (2l)! with C = 2: l = 0 -> 2, l = 1 -> 8
    fit = SimpleNamespace(constant=2.0, labels=[0, 1], norms=[2.0, 8.0], flagged=[False, False], target="M")
    assert C.check_growth_fit(fit, lambda l: C.log_gevrey(1.0, 2 * l)) is None
    fit.norms = [2.0, 8.1]
    assert C.check_growth_fit(fit, lambda l: C.log_gevrey(1.0, 2 * l)) is not None
    assert C.slope([(1, 0.5), (2, 1.29)]) == pytest.approx(0.79)


# -- judging and the measurement loop --------------------------------------------------


def op(check_result, fault=None, is_fault=None, call=lambda: 1):
    return workloads.Op("op", call, lambda r: check_result, fault, is_fault)


def test_judge_counts_wrong_answers_and_named_faults():
    assert run.judge(op(None), 1) == (False, None)
    assert run.judge(op("wrong"), 1) == (True, "wrong")
    assert run.judge(op("wrong", "known", lambda r: True), 1) == (True, None)
    assert run.judge(op("wrong", "known", lambda r: False), 1) == (True, "wrong")
    failed, reason = run.judge(op(None), ValueError("boom"))
    assert failed and "boom" in reason


def test_measure_counts_whole_rounds(capsys):
    ops = [op(None), op("deliberately wrong"), op("wrong", "known", lambda r: True)]
    args = SimpleNamespace(seconds=0.0, trace=0)
    result = run.measure(args, ops, setup_s=0.1)
    rounds = result["attempted"] // len(ops)
    assert result["attempted"] == rounds * len(ops) >= run.MIN_OPERATIONS
    assert result["failed"] == 2 * rounds
    assert result["correct"] is False
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert "WRONG op: deliberately wrong" in capsys.readouterr().out


def test_host_speed_factor_and_probe_outside_the_trace():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.factor([ref, 2 * ref, 4 * ref]) == pytest.approx(0.5)
    tracer = tracing.Tracer().install()
    try:
        assert hostspeed.probe() > 0
    finally:
        tracer.uninstall()
    assert tracer.layer_metrics().get("grids.fft_calls", 0) == 0


def test_tracer_records_layers_and_restores_the_program():
    original = H.estimate_d, H.grids.restricted_l2, np.fft.fftn, H.SymbolPolynomial.__call__
    tracer = tracing.Tracer().install()
    try:
        H.estimate_d(H.SymbolPolynomial(1, {(2,): 1.0, (0,): 1.0}), H.RayConfig(radii=8))
        spec = H.GridSpec(H.BoxDomain((-0.3, -0.3), (0.3, 0.3)), 16)
        H.derivative_norms(H.gaussian_bump(spec, 0.1), 1, spec.omega)
        assert H.estimates.restricted_l2 is H.grids.restricted_l2 is not original[1]
    finally:
        tracer.uninstall()
    assert (H.estimate_d, H.grids.restricted_l2, np.fft.fftn, H.SymbolPolynomial.__call__) == original
    m = tracer.layer_metrics()
    assert m["analysis.check_hypoelliptic_calls"] == 1  # the re-run inside estimate_d
    assert m["analysis.directions_built"] == 2 * 2  # two 1-D rays, built again by the nested check
    assert m["symbols.eval_calls"] > 0 and m["symbols.eval_points"] >= m["symbols.eval_calls"]
    # gaussian_bump: none; derivative_norms: one forward FFT and one inverse per multi-index
    assert m["grids.fft_calls"] == 1 + 3
    assert m["grids.fft_points"] == 4 * 16 * 16
    assert m["grids.sweep_entries"] == 2
    assert m["grids.restricted_l2_calls"] == 3
    parents = {span[2] for span in tracer.spans}
    assert -1 in parents and len(parents) > 1
    assert all(m[f"{layer}.self_s"] >= 0 for layer in tracing.LAYERS)


def test_workloads_have_unique_names_and_seed_independent_faults(tmp_path):
    for name in ("ray-sweep", "cli-batch"):
        a = workloads.build(name, 1, tmp_path / f"{name}-a")
        b = workloads.build(name, 2, tmp_path / f"{name}-b")
        assert len({o.name for o in a}) == len(a)
        assert [o.name for o in a] == [o.name for o in b]
        assert all(o.is_fault is not None for o in a if o.fault)
    faults = [o.fault for o in workloads.build("ray-sweep", 3, tmp_path / "f") if o.fault]
    assert faults == ["overflow-1d", "refine-overestimate"]


def test_cli_inputs_regenerate_identically(tmp_path):
    first = workloads.write_cli_inputs(np.random.default_rng([5, 2]), tmp_path / "a")
    second = workloads.write_cli_inputs(np.random.default_rng([5, 2]), tmp_path / "b")
    for name, path in first["files"].items():
        assert path.read_bytes() == second["files"][name].read_bytes()
