import dataclasses
import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoel import (
    BoxDomain,
    DimensionMismatch,
    HypoelError,
    RayConfig,
    SymbolPolynomial,
    VariableOperator,
    check_constant_strength,
    check_hypoelliptic,
    equally_strong,
    estimate_d,
    snap_rational,
)
from hypoel import analysis, cli
from hypoel.analysis import EPS_BOOST, SLOPE_TOL, check_symbol_domination, freeze_sample_points, unit_directions
from hypoel.fitting import slope_function
from hypoel.symbols import multi_indices_up_to

from conftest import random_symbol


def test_ray_config_validation():
    with pytest.raises(ValueError):
        RayConfig(radii=4)
    assert RayConfig(radii=1023).radius_grid()[-1] == 2.0**1023
    with pytest.raises(ValueError, match="at most 1023 radii"):
        RayConfig(radii=1024)
    with pytest.raises(ValueError):
        RayConfig(directions=2).validate_for_dimension(2)


def test_unit_directions_include_axes_and_diagonals():
    dirs = unit_directions(2, 16)
    keys = {tuple(np.round(d, 9)) for d in dirs}
    assert (1.0, 0.0) in keys and (0.0, -1.0) in keys
    diag = 1 / math.sqrt(2)
    assert (round(diag, 9), round(diag, 9)) in keys
    assert all(abs(np.linalg.norm(d) - 1) < 1e-12 for d in dirs)


def test_unit_directions_1d_and_3d():
    assert len(unit_directions(1, 8)) == 2
    dirs = unit_directions(3, 64)
    assert len(dirs) >= 64
    assert all(abs(np.linalg.norm(d) - 1) < 1e-9 for d in dirs)


def _unit_directions_by_rows(n, count):
    """The row-by-row construction of the directions of the fixed draw, n = 1 or n >= 4, kept as their reference."""
    base = []
    if n == 1:
        base += [np.array([1.0]), np.array([-1.0])]
    else:
        pts = np.random.default_rng(0).standard_normal((count, n))
        norms = np.linalg.norm(pts, axis=1)
        base.extend(pts[norms > 1e-12] / norms[norms > 1e-12, None])
    for j in range(n):
        for sign in (1.0, -1.0):
            e = np.zeros(n)
            e[j] = sign
            base.append(e)
    if n > 1:
        for signs in np.ndindex(*(2,) * n):
            base.append(np.array([1.0 if s == 0 else -1.0 for s in signs]) / math.sqrt(n))
    seen, out = set(), []
    for d in base:
        key = tuple(np.round(d, 12))
        if key not in seen:
            seen.add(key)
            out.append(d)
    return np.array(out)


@pytest.mark.parametrize("n", [1, 4, 5, 6])
def test_unit_directions_match_the_row_construction_bit_for_bit(n):
    for count in (2 * n, 7, 8, 64, 256, 1024):
        got = unit_directions(n, count)
        want = _unit_directions_by_rows(n, count)
        # equal bytes: same rows in the same order, signs of zeros included
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_distinct_rows_match_the_unique_construction_byte_for_byte(n, monkeypatch):
    built, distinct = [], analysis._distinct_rows
    monkeypatch.setattr(analysis, "_distinct_rows", lambda rows: built.append(rows) or distinct(rows))
    for count in (1, 7, 8, 256, 1024, 2048):
        got = unit_directions(n, count)
        rows = built.pop()
        _, first = np.unique(rows + 0.0, axis=0, return_index=True)
        want = rows[np.sort(first)] + 0.0
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # ties, repeats and signed zeros in every column
    rows = np.random.default_rng(n).choice([-1.0, -0.0, 0.0, 0.5], (300, n))
    _, first = np.unique(rows + 0.0, axis=0, return_index=True)
    assert distinct(rows + 0.0).tobytes() == (rows[np.sort(first)] + 0.0).tobytes()


@pytest.mark.parametrize("n", [17, 40])
def test_sign_diagonals_stop_at_the_direction_limit(n, monkeypatch):
    ndindex = np.ndindex

    def small_ndindex(*shape):
        assert math.prod(shape) <= 2**16, "built 2^n sign diagonals"
        return ndindex(*shape)

    monkeypatch.setattr(np, "ndindex", small_ndindex)
    assert len(unit_directions(n, 8)) == 8 + 2 * n


def _signed_permutations(n):
    signs = 1.0 - 2.0 * np.array(list(np.ndindex(*(2,) * n)))
    return [(list(p), s) for p in itertools.permutations(range(n)) for s in signs]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 7, 8, 64, 256, 1024])
def test_low_dimensional_directions_are_closed_under_signed_permutations(n, count):
    dirs = unit_directions(n, count)
    keys = {row.tobytes() for row in dirs}
    assert len(keys) == len(dirs)
    for p, s in _signed_permutations(n):
        assert {(row[p] * s + 0.0).tobytes() for row in dirs} == keys
    axes = [*np.eye(n), *(-np.eye(n) + 0.0)]
    diagonals = [s / math.sqrt(n) for _, s in _signed_permutations(n)]
    assert all(row.tobytes() in keys for row in axes + diagonals)
    # the rows of the region x_1 >= ... >= x_n >= 0 come first, its corners among them
    in_region = np.all(np.diff(dirs, axis=1) <= 0, axis=1) & (dirs[:, -1] >= 0)
    assert in_region.sum() >= n and in_region[: in_region.sum()].all()
    assert np.all(np.abs(np.linalg.norm(dirs, axis=1) - 1.0) <= 1e-15)


@pytest.mark.parametrize("count", [8, 64, 256, 1024, 2048])
def test_planar_directions_are_the_evenly_spaced_angles_axes_and_diagonals(count):
    dirs = unit_directions(2, count)
    angles = 2 * np.pi * (np.arange(count) + 0.5) / count
    extra = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    extra += [(a / math.sqrt(2), b / math.sqrt(2)) for a in (1.0, -1.0) for b in (1.0, -1.0)]
    want = np.concatenate([np.stack([np.cos(angles), np.sin(angles)], axis=1), extra])
    assert dirs.shape == want.shape == (count + 8, 2)
    by_angle = [rows[np.argsort(np.arctan2(rows[:, 1], rows[:, 0]) % (2 * np.pi))] for rows in (dirs, want)]
    assert np.max(np.abs(by_angle[0] - by_angle[1])) <= 1e-15


def test_first_max_is_the_first_value_within_the_tie_tolerance():
    first_max, tol = analysis._first_max, analysis.TIE_TOL
    assert first_max(np.array([1.0, 2.0 - 0.5 * tol, 2.0])) == 1
    assert first_max(np.array([1.0, 2.0 - 2.0 * tol, 2.0])) == 2
    assert first_max(np.array([np.nan, -np.inf, -1.0])) == 2
    assert first_max(np.array([np.nan, -np.inf])) is None
    assert first_max(np.array([3.0, np.inf, np.nan, np.inf])) == 1
    assert first_max(np.array([5.0, 1.0, 1.0]), np.array([False, True, True])) == 1
    assert first_max(np.array([5.0, 1.0]), False) is None
    # a later candidate replaces the current witness only when it beats it by more than the tolerance
    assert first_max(np.array([1.0, 2.0]), current=2.0 - 0.5 * tol) is None
    assert first_max(np.array([1.0, 2.0]), current=2.0 - 2.0 * tol) == 1


def test_symbol_domination_names_a_dimension_mismatch(laplacian):
    r = SymbolPolynomial.variable(3, 0)
    with pytest.raises(DimensionMismatch, match="R has dimension 3, Q has dimension 2"):
        check_symbol_domination(r, laplacian)


# -- snap_rational ---------------------------------------------------------------


@pytest.mark.parametrize(
    "value, expected",
    [
        (1.0, (1, 1)),
        (2.0000002, (2, 1)),
        (1.5, (3, 2)),
        (4 / 3 + 1e-4, (4, 3)),
        (1.083333, (13, 12)),
        (119.5, (239, 2)),
        (130.25, (521, 4)),
    ],
)
def test_snap_rational_hits(value, expected):
    assert snap_rational(value) == expected


def test_snap_rational_rejects_far_values():
    # nothing with denominator <= 12 within 2% of this
    assert snap_rational(1.0 + 1 / 29) is None


# -- check_hypoelliptic ------------------------------------------------------------


def test_elliptic_is_consistent(laplacian):
    rep = check_hypoelliptic(laplacian, 1.0)
    assert rep.verdict == "hypoelliptic-consistent"
    assert math.isfinite(rep.fitted_c) and rep.fitted_c > 0


def test_a_nan_exponent_is_rejected_not_answered(laplacian):
    with pytest.raises(ValueError, match="exponent d must be >= 1, got nan"):
        check_hypoelliptic(laplacian, float("nan"), RayConfig(directions=16))


def test_constant_symbol_fitted_c():
    q = SymbolPolynomial.constant(2, 1.0)
    rep = check_hypoelliptic(q, 1.0)
    assert rep.verdict == "hypoelliptic-consistent"
    # only the zeroth derivative contributes: |Q|/(1+|Q|) = 1/2
    assert rep.fitted_c == pytest.approx(0.5, rel=1e-12)


def test_wave_is_violated_along_diagonal(wave_symbol):
    rep = check_hypoelliptic(wave_symbol, 1.0)
    assert rep.verdict == "violated"
    direction = np.abs(np.asarray(rep.witness.direction))
    assert np.allclose(direction, 1 / math.sqrt(2), atol=1e-2)
    assert rep.witness.slope > SLOPE_TOL


def test_zero_symbol_rejected():
    with pytest.raises(HypoelError):
        check_hypoelliptic(SymbolPolynomial(2, {}), 1.0)


def test_monotone_in_d(laplacian, heat_symbol):
    assert check_hypoelliptic(laplacian, 1.0).verdict == "hypoelliptic-consistent"
    for d in (1.5, 2.0, 3.0):
        assert check_hypoelliptic(laplacian, d).verdict == "hypoelliptic-consistent"
    assert check_hypoelliptic(heat_symbol, 2.0).verdict == "hypoelliptic-consistent"
    for d in (2.5, 3.0, 4.0):
        assert check_hypoelliptic(heat_symbol, d).verdict == "hypoelliptic-consistent"


def test_scaling_invariance_of_verdict(laplacian, wave_symbol, heat_symbol):
    for c in (0.5, 2.0, -3.0, 1j):
        for q, expected in (
            (laplacian, "hypoelliptic-consistent"),
            (heat_symbol, "hypoelliptic-consistent"),
            (wave_symbol, "violated"),
        ):
            d = 2.0 if q is heat_symbol else 1.0
            assert check_hypoelliptic(c * q, d).verdict == expected


# -- estimate_d ----------------------------------------------------------------------


def test_estimate_elliptic(laplacian):
    rep = estimate_d(laplacian)
    assert rep.verdict == "hypoelliptic-consistent"
    assert abs(rep.d_estimate - 1.0) <= 0.05
    assert rep.d_snapped == (1, 1)


def test_estimate_elliptic_with_lower_order():
    q = SymbolPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): 1.0})
    rep = estimate_d(q)
    assert abs(rep.d_estimate - 1.0) <= 0.05
    assert rep.d_snapped == (1, 1)


def test_estimate_heat(heat_symbol):
    rep = estimate_d(heat_symbol)
    assert rep.verdict == "hypoelliptic-consistent"
    assert abs(rep.d_estimate - 2.0) <= 0.2
    assert rep.d_snapped == (2, 1)


def test_estimate_wave_violated(wave_symbol):
    rep = estimate_d(wave_symbol)
    assert rep.verdict == "violated"
    assert rep.d_estimate is None
    direction = np.abs(np.asarray(rep.witness.direction))
    assert np.allclose(direction, 1 / math.sqrt(2), atol=1e-2)


@pytest.mark.parametrize("rays", [256, 1024])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("c", [0.01, 1 / 3, 0.75, 3.0, 7.1, 10.0, 100.0, 1e4])
def test_scaled_diagonal_waves_are_violated(c, n, rays):
    # c(xi1^2 - xi2^2), plus c xi3^2 in 3-D, sums to exactly 0 on the diagonal row (1, 1)/sqrt(2), (1, 1, 0)/sqrt(2) in 3-D
    q = SymbolPolynomial(n, {(2, 0): c, (0, 2): -c} if n == 2 else {(2, 0, 0): c, (0, 2, 0): -c, (0, 0, 2): c})
    cfg = RayConfig(directions=rays)
    assert estimate_d(q, cfg).verdict == "violated"
    assert check_hypoelliptic(q, 1.0, cfg).verdict == "violated"


def test_estimate_reports_a_violation_of_its_own_check():
    # damped wave: the principal part has real characteristics.  At 256 rays no
    # ray diverges for every boosted exponent, but the check at d_est = 1 finds one.
    q = SymbolPolynomial(2, {(2, 0): 1.959, (0, 2): -1.144, (1, 0): -0.001j})
    cfg = RayConfig(directions=256)
    rep = estimate_d(q, cfg)
    assert rep.verdict == "violated"
    assert rep.d_estimate is None and rep.d_snapped is None
    assert rep.witness.slope > SLOPE_TOL


def test_estimate_first_order_transport_violated():
    # D_1 in two variables: smoothness along x2 is never forced
    q = SymbolPolynomial(2, {(1, 0): 1.0})
    rep = estimate_d(q)
    assert rep.verdict == "violated"


def test_estimate_scaling_invariance(heat_symbol):
    base = estimate_d(heat_symbol).d_estimate
    for c in (0.5, 2.0, 1j):
        rep = estimate_d(c * heat_symbol)
        assert rep.verdict == "hypoelliptic-consistent"
        assert abs(rep.d_estimate - base) <= 0.01 * base


def test_estimate_rejects_order_zero():
    with pytest.raises(HypoelError):
        estimate_d(SymbolPolynomial.constant(2, 1.0))


def test_violated_witness_grows_monotonically(wave_symbol):
    rep = estimate_d(wave_symbol)
    dq = wave_symbol.derive(rep.witness.beta)
    radii = RayConfig().radius_grid()
    xi = np.asarray(rep.witness.direction)[None, :] * radii[:, None]
    ratio = np.abs(dq(xi)) / (1.0 + np.abs(wave_symbol(xi)))
    assert np.all(np.diff(ratio[-5:]) >= 0)
    assert rep.witness.slope > SLOPE_TOL


def test_estimate_quasi_elliptic():
    # anisotropic symbol: the top derivative along the slow axis reveals d = 2
    q = SymbolPolynomial(2, {(4, 0): 1.0, (0, 2): 1.0})
    rep = estimate_d(q)
    assert rep.verdict == "hypoelliptic-consistent"
    assert rep.d_snapped == (2, 1)
    assert check_hypoelliptic(q, 2.0).verdict == "hypoelliptic-consistent"


def test_estimate_quartic_heat():
    q = SymbolPolynomial(2, {(4, 0): 1.0, (0, 1): 1j})
    rep = estimate_d(q)
    assert rep.verdict == "hypoelliptic-consistent"
    assert rep.d_snapped == (4, 1)


def test_estimate_three_dimensional_elliptic():
    q = SymbolPolynomial(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    rep = estimate_d(q)
    assert rep.verdict == "hypoelliptic-consistent"
    assert rep.d_snapped == (1, 1)


def test_estimate_three_dimensional_heat():
    # heat in two space dimensions: xi1^2 + xi2^2 + i xi3
    q = SymbolPolynomial(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 1): 1j})
    rep = estimate_d(q)
    assert rep.verdict == "hypoelliptic-consistent"
    assert rep.d_snapped == (2, 1)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_elliptic_symbols_snap_to_one(seed):
    # positive-definite principal part plus arbitrary lower order
    rng = np.random.default_rng(seed)
    a, c = rng.uniform(0.5, 3.0, size=2)
    b = rng.uniform(-0.9, 0.9) * 2 * math.sqrt(a * c)
    q = SymbolPolynomial(
        2,
        {(2, 0): a, (1, 1): b, (0, 2): c, (1, 0): rng.uniform(-2, 2), (0, 0): rng.uniform(-2, 2)},
    )
    rep = estimate_d(q)
    assert rep.verdict == "hypoelliptic-consistent"
    assert rep.d_snapped == (1, 1)


def test_reports_are_deterministic(laplacian):
    a = cli._json_text(estimate_d(laplacian))
    b = cli._json_text(estimate_d(laplacian))
    assert a == b


# -- equally_strong ---------------------------------------------------------------------


def test_equally_strong_reflexive(laplacian):
    rep = equally_strong(laplacian, laplacian)
    assert rep.verdict == "equally-strong"
    assert rep.ratio_bounds == (1.0, 1.0)


def test_lower_order_perturbation_equally_strong(laplacian):
    p = SymbolPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): 1.0})
    assert equally_strong(p, laplacian).verdict == "equally-strong"


def test_first_order_weaker_than_laplacian(laplacian):
    p = SymbolPolynomial(2, {(1, 0): 1.0})
    rep = equally_strong(p, laplacian)
    assert rep.verdict == "P-weaker"
    assert rep.witness is not None


def test_verdict_symmetric_under_swap(laplacian):
    p = SymbolPolynomial(2, {(1, 0): 1.0})
    assert equally_strong(laplacian, p).verdict == "Q-weaker"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_high_order_strengths_run_on_every_radius():
    # the squared strengths of 1 + xi^40 reach 2^3200 at the last radius
    p = SymbolPolynomial(1, {(0,): 1.0, (40,): 1.0})
    q = SymbolPolynomial(1, {(0,): 1.0, (40,): 2.0})
    rep = equally_strong(p, q)
    assert rep.verdict == "equally-strong"
    # the strengths are formed in logs, which round to 1e-12 relatively
    assert rep.ratio_bounds == pytest.approx((0.5, 0.5), rel=1e-12)
    assert check_symbol_domination(p, q)["worst_slope"] <= SLOPE_TOL
    p8 = SymbolPolynomial(2, {(0, 0): 1.0, (8, 0): 1.0, (0, 8): 1.0})
    assert equally_strong(p8, p8 + 1).verdict == "equally-strong"


def test_zero_symbol_rejected_for_strength(laplacian):
    with pytest.raises(HypoelError):
        equally_strong(SymbolPolynomial(2, {}), laplacian)


def test_dimension_mismatch_rejected(laplacian):
    with pytest.raises(HypoelError):
        equally_strong(SymbolPolynomial(1, {(1,): 1.0}), laplacian)


# -- constant strength ---------------------------------------------------------------------


def test_drift_operator_constant_strength(drift_operator):
    rep = check_constant_strength(drift_operator)
    assert rep.verdict == "constant-strength"


def test_constant_coefficients_trivially_constant_strength():
    op = VariableOperator(2, {(2, 0): 1.0, (0, 2): 1.0}, BoxDomain((-1, -1), (1, 1)))
    assert check_constant_strength(op).verdict == "constant-strength"


def test_degenerate_operator_not_constant_strength():
    x1 = SymbolPolynomial.variable(1, 0)
    op = VariableOperator(1, {(2,): x1}, BoxDomain((-1.0,), (1.0,)))
    rep = check_constant_strength(op)
    assert rep.verdict == "not-constant-strength"
    assert abs(rep.witness["x"][0]) < 1e-6


def _constant_strength_by_pairs(op, cfg):
    """check_constant_strength as one equally_strong call per frozen point: (verdict, bounds, witness)."""
    xs = [*freeze_sample_points(op.domain), np.array(op.domain.center)]
    center = op.freeze(xs.pop())
    lo, hi = math.inf, -math.inf
    for x in xs:
        rep = equally_strong(op.freeze(x), center, cfg)
        lo, hi = min(lo, rep.ratio_bounds[0]), max(hi, rep.ratio_bounds[1])
        if rep.verdict != "equally-strong":
            witness = {"x": [float(v) for v in x], "pair_verdict": rep.verdict, "ray": rep.witness}
            return "not-constant-strength", (lo, hi), witness
    return "constant-strength", (lo, hi), None


@pytest.mark.parametrize("directions", [64, 256])
def test_constant_strength_compares_each_point_like_equally_strong(drift_operator, directions):
    x1, x2 = (SymbolPolynomial.variable(2, j) for j in range(2))
    growing = VariableOperator(2, {(2, 0): x1, (0, 2): 1.0}, BoxDomain((-1.0, -1.0), (1.0, 1.0)))
    # symmetric in x1, so the lattice's middle column freezes at x1 = 0, as in the bench
    box = BoxDomain((-0.8, -1.2), (0.8, 0.9))
    a = 1.3 + 0.6 * x1 * x1 + 0.4 * x2 * x2
    bounded = VariableOperator(2, {(2, 0): a, (0, 2): 1.7 * a, (1, 0): 0.3 - 0.8 * x2}, box)
    vanishing = VariableOperator(2, {(2, 0): 1.4 * x1, (0, 2): 0.9 * x1, (1, 0): 1.1}, box)
    cfg = RayConfig(directions=directions)
    for op, verdict in ((drift_operator, "constant-strength"), (bounded, "constant-strength"),
                        (vanishing, "not-constant-strength"), (growing, "not-constant-strength")):
        rep = check_constant_strength(op, cfg)
        assert (rep.verdict, rep.ratio_bounds, rep.witness) == _constant_strength_by_pairs(op, cfg)
        assert rep.verdict == verdict
    assert rep.witness["ray"] is not None


def _counted_strength_work(monkeypatch):
    """Count the strength tables built and the derivatives evaluated for them."""
    tables, evaluated = [], []
    log_strength, log_abs = analysis._log_strength, analysis._log_abs_on_rays
    monkeypatch.setattr(analysis, "_log_strength", lambda s, *a: tables.append(s) or log_strength(s, *a))
    monkeypatch.setattr(analysis, "_log_abs_on_rays", lambda f, *a: evaluated.extend(f) or log_abs(f, *a))
    return tables, evaluated


def test_constant_strength_sweeps_each_distinct_frozen_symbol_once(drift_operator, monkeypatch):
    # 14 points freeze to 5 distinct symbols; with the centre's derivatives shared, 12 of
    # their 70 derivatives are evaluated
    tables, evaluated = _counted_strength_work(monkeypatch)
    assert check_constant_strength(drift_operator).verdict == "constant-strength"
    assert len(tables) <= 5 and len(set(tables)) == len(tables)
    assert len(evaluated) <= 13


def test_constant_strength_builds_one_table_per_value_of_the_only_variable(monkeypatch):
    x2 = SymbolPolynomial.variable(2, 1)
    op = VariableOperator(2, {(2, 0): 1.0, (0, 2): 2.0 + x2, (1, 0): x2}, BoxDomain((-1.0, -1.0), (1.0, 1.0)))
    tables, _ = _counted_strength_work(monkeypatch)
    assert check_constant_strength(op).verdict == "constant-strength"
    values = {float(x[1]) for x in freeze_sample_points(op.domain)}
    assert len(values) == 5 and len(tables) == len(values)


def test_log_strength_ignores_the_sign_of_a_zero_imaginary_part():
    # equal symbols (0.0 == -0.0) share derivative logs, so each must give the same floats
    plus = SymbolPolynomial(2, {(2, 0): complex(1.5, 0.0), (0, 2): complex(0.7, 0.0), (0, 1): complex(-2.0, 0.0)})
    minus = SymbolPolynomial(2, {a: complex(c.real, -0.0) for a, c in plus.terms.items()})
    assert plus == minus and math.copysign(1.0, next(iter(minus.terms.values())).imag) == -1.0
    dirs, radii = unit_directions(2, 64), RayConfig().radius_grid()
    want = analysis._log_strength(plus, dirs, radii, {}).tobytes()
    assert analysis._log_strength(minus, dirs, radii, {}).tobytes() == want
    shared: dict = {}
    analysis._log_strength(plus, dirs, radii, shared)
    assert analysis._log_strength(minus, dirs, radii, dict(shared)).tobytes() == want


def test_points_validation(drift_operator):
    with pytest.raises(ValueError):
        check_constant_strength(drift_operator, points=1)


# -- numerical range and NaN rays -----------------------------------------------------------


def test_high_order_symbol_runs_on_every_radius():
    # 1 + xi^40 reaches 2^1600 at the last radius; on the full grid it once looked like d ~ 2.5
    rep = estimate_d(SymbolPolynomial(1, {(0,): 1.0, (40,): 1.0}))
    assert rep.verdict == "hypoelliptic-consistent"
    assert rep.d_snapped == (1, 1)
    assert estimate_d(SymbolPolynomial(1, {(0,): 1.0, (8,): 1.0})).d_snapped == (1, 1)


def test_order_100_symbol_answers():
    rep = estimate_d(SymbolPolynomial(1, {(0,): 1.0, (100,): 1.0}))
    assert rep.verdict == "hypoelliptic-consistent"
    assert rep.d_snapped == (1, 1)


def test_extreme_coefficients_answer_or_name_the_overflow():
    # |c|^2 overflows past 1e154; every value is scaled by a power of two first
    huge = SymbolPolynomial(2, {(8, 0): 1e300, (0, 8): 1.0 + 1e300j, (0, 0): 1.0})
    assert estimate_d(huge, RayConfig(directions=32)).d_snapped == (1, 1)
    assert equally_strong(huge, 2 * huge, RayConfig(directions=32)).verdict == "equally-strong"
    # 1.5e308 (xi + 1) is past the float range at xi = 1 unless scaled
    assert estimate_d(SymbolPolynomial(1, {(0,): 1.5e308, (1,): 1.5e308})).d_snapped == (1, 1)
    # the 100th derivative, 100! * 1e300, is past the float range
    with pytest.raises(HypoelError, match="beyond floating-point range"):
        estimate_d(SymbolPolynomial(1, {(0,): 1.0, (100,): 1e300}))


def test_high_order_symbol_free_of_an_axis_violated_on_every_radius():
    # Q = 1 on the xi2 axis, where d^40 Q / d xi1^40 = 40! stays put
    q = SymbolPolynomial(2, {(0, 0): 1.0, (40, 0): 1.0})
    # scaled by r^40 for the symbol's order, not per ray, Q underflowed to 0 there
    radii = RayConfig().radius_grid()
    assert np.array_equal(analysis._log_abs_on_rays([q], np.array([[0.0, 1.0]]), radii)[0], np.zeros((1, 41)))
    rep = estimate_d(q)
    assert rep.verdict == "violated"
    assert np.allclose(np.abs(rep.witness.direction), [0.0, 1.0])
    assert rep.witness.radius == 2.0**40
    check = check_hypoelliptic(q, 1.0)
    assert check.verdict == "violated" and check.witness.radius == 2.0**40


def _log_abs_by_call(family, dirs, radii):
    """Each log|P| of the family by SymbolPolynomial.__call__ on the (rays, radii, n) points, as the sweep took it before."""
    with np.errstate(divide="ignore"):
        return [np.log(np.abs(p(dirs[:, None, :] * radii[None, :, None]))) for p in family]


def _assert_same_report(got, want):
    """Equal verdicts, exponents and witnesses (beta, direction, radius); floats within 1e-12."""
    assert got.verdict == want.verdict and got.d_snapped == want.d_snapped
    assert got.d_estimate == pytest.approx(want.d_estimate, rel=1e-12)
    assert got.fitted_c == pytest.approx(want.fitted_c, rel=1e-12)
    assert [(e["beta"], e["direction"]) for e in got.per_beta_slopes] == [
        (e["beta"], e["direction"]) for e in want.per_beta_slopes
    ]
    for e, f in zip(got.per_beta_slopes, want.per_beta_slopes):
        assert e["worst_slope"] == pytest.approx(f["worst_slope"], abs=1e-12)
    w, v = got.witness, want.witness
    assert (w is None) == (v is None)
    if w is None:
        return
    assert (w.beta, list(w.direction), w.radius) == (v.beta, list(v.direction), v.radius)
    assert w.slope == pytest.approx(v.slope, abs=1e-12)
    assert w.ratio == pytest.approx(v.ratio, rel=1e-12)


#: mirror-symmetric symbols, whose mirror rays tie: 1.5(xi1^4 + xi2^4) + 0.7 xi1^2 xi2^2 + 2|xi|^2 + 1, and |xi|^2 + 1 in 3-D
MIRROR_SYMBOLS = {
    "quartic-2d": SymbolPolynomial(2, {(4, 0): 1.5, (0, 4): 1.5, (2, 2): 0.7, (2, 0): 2.0, (0, 2): 2.0, (0, 0): 1.0}),
    "laplacian-3d": SymbolPolynomial(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0}),
}


@pytest.mark.parametrize("seed", [*range(16), *MIRROR_SYMBOLS])
def test_homogeneous_parts_match_pointwise_evaluation(seed, monkeypatch):
    # order <= 8 keeps every pointwise value of the default grid in floating-point range
    if seed in MIRROR_SYMBOLS:
        q = MIRROR_SYMBOLS[seed]
    else:
        rng = np.random.default_rng(seed)
        q = random_symbol(rng, 1 + seed % 3, int(rng.integers(1, 9)))
    n = q.dimension
    if q.order == 0:
        q = q + SymbolPolynomial.variable(n, 0)
    cfg = RayConfig(directions=64 if n > 1 else 2)
    radii = cfg.radius_grid()

    table = analysis._ray_table(q, cfg)
    xi = table.dirs[:, None, :] * radii[None, :, None]
    for d in (1.0, math.inf):
        for beta, logs, _, slopes in analysis._sweep(table, table.derivatives, d):
            ratios = radii ** (sum(beta) / d) * np.abs(q.derive(beta)(xi)) / (1.0 + np.abs(q(xi)))
            active = ~(ratios.max(axis=1) < 1e-250)
            assert np.allclose(np.exp(logs), ratios, rtol=1e-12, atol=0.0)
            want = slope_function(np.log(radii), 2)(np.log(np.maximum(ratios[active], 1e-300)))
            assert np.allclose(slopes[active], want, rtol=0.0, atol=1e-12)

    got = [estimate_d(q, cfg), check_hypoelliptic(q, 1.0, cfg), check_hypoelliptic(q, 2.0, cfg)]
    monkeypatch.setattr(analysis, "_log_abs_on_rays", _log_abs_by_call)
    want = [estimate_d(q, cfg), check_hypoelliptic(q, 1.0, cfg), check_hypoelliptic(q, 2.0, cfg)]
    for g, w in zip(got, want):
        _assert_same_report(g, w)


@pytest.fixture
def nan_rays(monkeypatch):
    """Make every log|Q^(beta)|, beta != 0, NaN on the first `count` (base) rays of a sweep."""
    evaluate = analysis._log_abs_on_rays

    def poison(symbol, count):
        def poisoned(family, dirs, radii):
            out = evaluate(family, dirs, radii)
            for p, logs in zip(family, out):
                if p != symbol:
                    logs[:count] = np.nan
            return out

        monkeypatch.setattr(analysis, "_log_abs_on_rays", poisoned)
        return unit_directions(2, 64)[:count]

    return poison


def _avoids(directions, bad):
    return not any(np.allclose(d, b) for d in directions for b in bad)


def test_nan_rays_count_as_ambiguous_and_never_win(laplacian, nan_rays):
    cfg = RayConfig(directions=64)
    nan_rays(laplacian, 1)
    assert check_hypoelliptic(laplacian, 1.0, cfg).verdict == "hypoelliptic-consistent"
    bad = nan_rays(laplacian, 8)  # more than AMBIGUOUS_RAY_FRACTION of the base rays
    rep = check_hypoelliptic(laplacian, 1.0, cfg)
    assert rep.verdict == "inconclusive"
    assert math.isfinite(rep.fitted_c) and _avoids([rep.witness.direction], bad)
    assert all(math.isfinite(e["worst_slope"]) for e in rep.per_beta_slopes)
    assert _avoids([e["direction"] for e in rep.per_beta_slopes], bad)


def test_nan_rays_skipped_by_estimate_and_ambiguous_in_its_check(laplacian, nan_rays):
    cfg = RayConfig(directions=64)
    bad = nan_rays(laplacian, 8)
    rep = estimate_d(laplacian, cfg)
    assert rep.d_snapped == (1, 1)
    assert rep.verdict == "inconclusive"  # the check at d_estimate counts the NaN rays
    assert math.isfinite(rep.fitted_c) and _avoids([rep.witness.direction], bad)
    assert _avoids([e["direction"] for e in rep.per_beta_slopes], bad)


def test_estimate_samples_rays_once(heat_symbol, monkeypatch):
    def public_check(*args, **kwargs):
        raise AssertionError("estimate_d must check on its own rays")

    built = []
    directions = analysis.unit_directions
    monkeypatch.setattr(analysis, "check_hypoelliptic", public_check)
    monkeypatch.setattr(analysis, "unit_directions", lambda *a: built.append(a) or directions(*a))
    rep = estimate_d(heat_symbol)
    assert rep.d_snapped == (2, 1) and rep.fitted_c is not None
    assert len(built) == 1


def _sweep_by_reevaluation(q):
    """The sweep that evaluated every derivative, and Q for the denominator, again on each pass."""

    def sweep(table, derivatives, d=math.inf):
        log_r = np.log(table.radii)
        log_denom = np.logaddexp(0.0, analysis._log_abs_on_rays([q], table.dirs, table.radii)[0])
        for beta, _ in derivatives:
            log_abs = analysis._log_abs_on_rays([q.derive(beta)], table.dirs, table.radii)[0]
            logs = sum(beta) / d * log_r + log_abs - log_denom
            yield beta, logs, logs.max(axis=1), slope_function(log_r, 2)(logs)

    return sweep


def _reports(q, cfg):
    """estimate_d and check_hypoelliptic at d = 1 and 2, each as its JSON text, which tells -0.0 and NaN apart."""
    reports = [estimate_d(q, cfg), check_hypoelliptic(q, 1.0, cfg), check_hypoelliptic(q, 2.0, cfg)]
    return [cli._json_text(rep) for rep in reports]


def _table_cases():
    for seed in range(16):
        rng = np.random.default_rng(100 + seed)
        n = 1 + seed % 3
        q = random_symbol(rng, n, int(rng.integers(1, 7)))
        if q.order == 0:
            q = q + SymbolPolynomial.variable(n, 0)
        yield pytest.param(q, RayConfig(directions=64 if n > 1 else 2), None, id=f"random-{seed}")
    spike = SymbolPolynomial(1, {(0,): 1.0, (40,): 1.0})
    yield pytest.param(spike, RayConfig(directions=2), "hypoelliptic-consistent", id="spike-1d")
    # a damped wave: the principal part has real characteristics
    wave = SymbolPolynomial(2, {(2, 0): 1.779, (0, 2): -0.826, (1, 0): -0.0037j})
    yield pytest.param(wave, RayConfig(directions=256), "violated", id="damped-wave")
    # (xi - 2^30)^2: the real root inside the tail window leaves the estimate inconclusive
    root = SymbolPolynomial(1, {(2,): 1.0, (1,): -(2.0**31), (0,): 2.0**60})
    yield pytest.param(root, RayConfig(directions=2), "inconclusive", id="root-in-window")


@pytest.mark.parametrize("q, cfg, estimate_verdict", list(_table_cases()))
def test_stored_derivative_logs_give_the_reevaluating_reports(q, cfg, estimate_verdict, monkeypatch):
    got = _reports(q, cfg)
    monkeypatch.setattr(analysis, "_sweep", _sweep_by_reevaluation(q))
    assert got == _reports(q, cfg)
    assert estimate_verdict in (None, json.loads(got[0])["verdict"])


@pytest.mark.parametrize("caller", ["estimate_d", "check_hypoelliptic", "analyze --d"])
def test_each_nonzero_derivative_is_evaluated_once(caller, heat_symbol, monkeypatch, tmp_path):
    evaluated, built = [], []
    evaluate, directions = analysis._log_abs_on_rays, analysis.unit_directions
    monkeypatch.setattr(analysis, "_log_abs_on_rays", lambda ps, *a: evaluated.append(list(ps)) or evaluate(ps, *a))
    monkeypatch.setattr(analysis, "unit_directions", lambda *a: built.append(a) or directions(*a))
    if caller == "estimate_d":
        estimate_d(heat_symbol)
    elif caller == "check_hypoelliptic":
        check_hypoelliptic(heat_symbol, 2.0)
    else:
        path = tmp_path / "heat.json"
        path.write_text(json.dumps(heat_symbol.to_dict()))
        assert cli.main(["analyze", "--symbol", str(path), "--d", "2", "--out", str(tmp_path / "r.json")]) == 0
    assert evaluated == [[dq for _, dq in heat_symbol.nonzero_derivatives]]
    assert len(built) == 1


def test_characteristic_search_evaluates_once_per_step(monkeypatch):
    q = SymbolPolynomial(2, {(2, 0): 1.0, (0, 2): -1.0, (1, 0): 1j})
    families, evaluate = [], analysis._evaluate
    monkeypatch.setattr(analysis, "_evaluate", lambda ps, xi: families.append(list(ps)) or evaluate(ps, xi))
    assert len(analysis._characteristic_refinement(q, unit_directions(2, 64)))
    # the starts, then one candidate set for each of the 40 steps: P_m (scaled by 1/2) and its gradient each time
    pm = 0.5 * q.principal_part()
    assert families == [[pm.terms, pm.derive((1, 0)).terms, pm.derive((0, 1)).terms]] * 41


def test_ray_table_evaluates_each_nonzero_homogeneous_part_once(heat_symbol, monkeypatch):
    calls, evaluate = [], analysis._evaluate
    monkeypatch.setattr(analysis, "_evaluate", lambda ps, xi: calls.append((list(ps), xi)) or evaluate(ps, xi))
    table = analysis._ray_table(heat_symbol, RayConfig(directions=64))
    # Q = xi1^2 + i xi2 and its nonzero derivatives i, 2 xi1 and 2, each divided by its power of two, as term maps;
    # no empty part
    parts = [((0, 1), 0.5j), ((2, 0), 0.5), ((0, 0), 0.5j), ((1, 0), 0.5), ((0, 0), 0.5)]
    assert [family for family, xi in calls if xi is table.dirs] == [[{a: c} for a, c in parts]]


def _exact_abs(p, theta, radii):
    """|P(r theta)| at each radius, from exact rational arithmetic at the float direction and radii, rounded once."""
    parts = {}
    for alpha, c in p.terms.items():
        mono = math.prod(Fraction(t) ** a for t, a in zip(theta, alpha))
        re, im = parts.get(sum(alpha), (0, 0))
        parts[sum(alpha)] = (re + Fraction(c.real) * mono, im + Fraction(c.imag) * mono)
    out = []
    for r in radii:
        re = sum(h[0] * Fraction(r) ** k for k, h in parts.items())
        im = sum(h[1] * Fraction(r) ** k for k, h in parts.items())
        out.append(math.sqrt(re * re + im * im))
    return np.array(out)


#: |P~ - P| <= RAY_SUM_TOL eps S, S = sum |c_a theta^a| r^|a|: a relative error in |P| of RAY_SUM_TOL eps S / |P|.
#: It covers the roundings of each monomial, sum and scaling, and of logs up to 6 log(2^40) = 166, whose ulp is 128 eps.
RAY_SUM_TOL = 256


@pytest.mark.parametrize("n, order", [(n, order) for n in (1, 2, 3) for order in range(1, 7)])
def test_ray_logs_match_exact_rational_evaluation(n, order):
    rng = np.random.default_rng(10 * n + order)
    q = random_symbol(rng, n, order)
    if q.order < order:
        q = q + SymbolPolynomial.variable(n, n - 1) ** order
    family = [dq for _, dq in q.nonzero_derivatives] + [SymbolPolynomial(n, {})]
    dirs, radii = unit_directions(n, 16), RayConfig().radius_grid()[::4]
    got = analysis._log_abs_on_rays(family, dirs, radii)
    assert np.array_equal(got[-1], np.full((len(dirs), 1), -np.inf))
    for p, logs in zip(family, got):
        r = radii if p.order else radii[:1]
        exact = np.array([_exact_abs(p, theta, r) for theta in dirs])
        size = sum(abs(c) * np.abs(np.prod(dirs**alpha, axis=1))[:, None] * r ** sum(alpha) for alpha, c in p.terms.items())
        assert np.all(np.abs(np.exp(logs) - exact) <= RAY_SUM_TOL * np.finfo(float).eps * size)


def _refinement_by_reevaluation(q, dirs):
    """The characteristic search that evaluated pm(pts) again at the top of every step."""
    pm = q.principal_part()
    if pm.is_zero or q.order == 0:
        return np.zeros((0, q.dimension))
    coeffs = np.array(list(pm.terms.values()), dtype=complex).view(float)
    scaled = np.ldexp(coeffs, -math.frexp(np.abs(coeffs).max())[1]).view(complex)
    pm = SymbolPolynomial(q.dimension, dict(zip(pm.terms, scaled)))
    vals = np.abs(pm(dirs))
    vmax = float(vals.max())
    if vmax == 0.0:
        return np.zeros((0, q.dimension))
    order = np.argsort(vals, kind="stable")
    starts = dirs[order[: min(32, len(dirs))]]
    grads = [pm.derive(tuple(1 if j == k else 0 for j in range(q.dimension))) for k in range(q.dimension)]

    pts = starts.copy()
    f = np.abs(pm(pts)) ** 2
    step = np.full(len(pts), 0.1)
    for _ in range(40):
        p_vals = pm(pts)
        grad = np.stack([2 * np.real(np.conj(p_vals) * g(pts)) for g in grads], axis=1)
        gn = np.linalg.norm(grad, axis=1)
        gn[gn == 0] = 1.0
        cand = pts - step[:, None] * grad / gn[:, None]
        cn = np.linalg.norm(cand, axis=1)
        cn[cn == 0] = 1.0
        cand = cand / cn[:, None]
        f_cand = np.abs(pm(cand)) ** 2
        better = f_cand < f
        pts[better] = cand[better]
        f[better] = f_cand[better]
        step = np.where(better, step, step * 0.5)

    keep = f < (1e-6 * vmax) ** 2
    pts = pts[keep]
    pts[np.abs(pts) < 1e-10] = 0.0
    norms = np.linalg.norm(pts, axis=1)
    return pts[norms > 0] / norms[norms > 0, None]


@pytest.mark.parametrize("seed", range(24))
def test_refinement_reuses_the_accepted_values_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n, m = 2 + seed % 2, int(rng.integers(2, 7))
    if seed % 4 < 3:
        # real coefficients and +-xi_j^m terms give the principal part real zeros to descend to
        alphas = list(multi_indices_up_to(n, m))
        terms = {alphas[i]: float(rng.standard_normal()) for i in rng.choice(len(alphas), 6, replace=False)}
        terms.update({(m,) + (0,) * (n - 1): 1.0, (0,) * (n - 1) + (m,): (-1.0) ** (m + 1)})
        q = SymbolPolynomial(n, terms)
    else:
        q = random_symbol(rng, n, m)
    dirs = unit_directions(n, 64)
    got, want = analysis._characteristic_refinement(q, dirs), _refinement_by_reevaluation(q, dirs)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if seed % 4 < 3:
        assert len(got)


def _search_cases(kind: str, draws: int):
    """Seeded 1-D and 2-D symbols with a direction set each, for the characteristic search's skip.

    The near-degenerate families xi1^m + eps xi2^m and (xi1 - t xi2)^2 + eps xi2^2 take eps from 1 down to
    1e-12, with a complex phase on half of the draws; lower-order terms never change the principal part.
    """
    rng = np.random.default_rng(["random-1d", "random-2d", "power", "square"].index(kind))
    for _ in range(draws):
        eps = 10.0 ** -rng.uniform(0, 12) * (np.exp(2j * np.pi * rng.random()) if rng.random() < 0.5 else 1.0)
        if kind == "random-1d":
            q = random_symbol(rng, 1, int(rng.integers(1, 9)))
        elif kind == "random-2d":
            q = random_symbol(rng, 2, int(rng.integers(1, 9)))
        elif kind == "power":
            m = int(rng.integers(1, 9))
            q = SymbolPolynomial(2, {(m, 0): 1.0, (0, m): eps, (0, 0): complex(*rng.standard_normal(2))})
        else:
            t = rng.uniform(-3, 3)
            q = SymbolPolynomial(2, {(2, 0): 1.0, (1, 1): -2 * t, (0, 2): t * t + eps, (1, 0): 1j * rng.standard_normal()})
        if q.dimension == 1:
            dirs = unit_directions(1, 2)
        elif rng.random() < 0.25:  # a direction set without symmetry
            angles = rng.uniform(0, 2 * np.pi, int(rng.integers(4, 300)))
            dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        else:
            dirs = unit_directions(2, int(rng.choice([4, 8, 64, 256, 2048])))
        yield q, dirs


@pytest.mark.parametrize("kind, draws", [("random-1d", 250), ("random-2d", 450), ("power", 300), ("square", 300)])
def test_skipped_search_is_one_that_finds_nothing(kind, draws, monkeypatch):
    searched, ascend = [], analysis.ascend
    monkeypatch.setattr(analysis, "ascend", lambda *a: searched.append(1) or ascend(*a))
    cover = analysis._cover
    skips = found = 0
    for q, dirs in _search_cases(kind, draws):
        searched.clear()
        got = analysis._characteristic_refinement(q, dirs)
        skipped = not searched and not q.principal_part().is_zero
        monkeypatch.setattr(analysis, "_cover", lambda dirs: math.inf)
        want = analysis._characteristic_refinement(q, dirs)
        monkeypatch.setattr(analysis, "_cover", cover)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        skips += skipped
        found += bool(len(want))
    # both branches: searches skipped, and searches run that keep directions
    assert skips and (found or kind == "random-1d")
    if kind == "random-1d":
        assert skips == draws


@pytest.mark.parametrize("count", [4, 7, 8, 64, 256, 2048])
def test_cover_bounds_the_distance_to_the_nearest_direction(count):
    dirs = unit_directions(2, count)
    angles = 2 * np.pi * np.arange(2**16) / 2**16
    points = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # the smallest over the sampled unit vectors of the cosine to their nearest direction, 1,024 at a time
    cos = min(float((chunk @ dirs.T).max(axis=1).min()) for chunk in np.split(points, 64))
    brute = math.sqrt(2 - 2 * cos)
    assert brute <= analysis._cover(dirs) < brute + 1e-3


def test_cover_is_zero_in_1d_and_no_bound_in_3d():
    assert analysis._cover(unit_directions(1, 2)) == 0.0
    assert analysis._cover(unit_directions(3, 256)) == math.inf


#: slopes at which a boost of 0.1, 0.2 or 0.5 brings the boosted slope to SLOPE_TOL, and their neighbours
BOOST_EDGES = [v for edge in (-0.05, -0.15, -0.45) for v in (edge, np.nextafter(edge, 0), np.nextafter(edge, -1))]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.floats(-0.06, -0.04), st.sampled_from(BOOST_EDGES)), min_size=1, max_size=40))
def test_one_boost_decides_like_the_three_it_replaced(values):
    # fl(s + a) is monotone in a, so the smallest boost decides; NaN fails every test
    slopes = np.array(values)
    old = np.ones(len(slopes), dtype=bool)
    for eps in (0.1, 0.2, 0.5):
        old &= slopes + eps > SLOPE_TOL
    assert np.array_equal(slopes + EPS_BOOST > SLOPE_TOL, old)


def _log_abs_by_symbol_parts(family, dirs, radii):
    """The ray logs as first written: each part a SymbolPolynomial, parts reversed by one gather, offset per member."""
    scaled = []
    for p in family:
        coeffs = np.array(list(p.terms.values()), dtype=complex)
        scale = math.frexp(np.abs(coeffs.view(float)).max(initial=0.0))[1]
        terms = dict(zip(p.terms, np.ldexp(coeffs.view(float), -scale).view(complex)))
        scaled.append((scale, {k: SymbolPolynomial(p.dimension, {a: c for a, c in terms.items() if sum(a) == k})
                               for k in dict.fromkeys(map(sum, terms))}))
    values = analysis._evaluate([h.terms for _, by_degree in scaled for h in by_degree.values()], dirs)
    out = []
    for p, (scale, by_degree) in zip(family, scaled):
        m = p.order
        parts = np.zeros((len(dirs), m + 1), dtype=complex)
        for k in by_degree:
            parts[:, k] = next(values)
        top = m - np.argmax(parts[:, ::-1] != 0, axis=1)
        shift = top[:, None] - np.arange(m + 1)
        reversed_parts = np.where(shift >= 0, parts[np.arange(len(parts))[:, None], shift], 0)
        r = radii if m else radii[:1]
        logs = np.abs(reversed_parts @ r ** -np.arange(m + 1.0)[:, None])
        with np.errstate(divide="ignore"):
            np.log(logs, out=logs)
        logs += top[:, None] * np.log(r) + scale * math.log(2.0)
        out.append(logs)
    return out


@pytest.mark.parametrize("n, order", [(n, order) for n in (1, 2, 3) for order in range(1, 7)])
def test_ray_logs_match_the_per_member_offset_form_bit_for_bit(n, order):
    rng = np.random.default_rng(10 * n + order)  # the cases of test_ray_logs_match_exact_rational_evaluation
    q = random_symbol(rng, n, order)
    if q.order < order:
        q = q + SymbolPolynomial.variable(n, n - 1) ** order
    family = [dq for _, dq in q.nonzero_derivatives] + [SymbolPolynomial(n, {})]
    for dirs, radii in ((unit_directions(n, 16), RayConfig().radius_grid()[::4]), (unit_directions(n, 64), None)):
        radii = RayConfig().radius_grid() if radii is None else radii
        got, want = analysis._log_abs_on_rays(family, dirs, radii), _log_abs_by_symbol_parts(family, dirs, radii)
        assert [g.shape for g in got] == [w.shape for w in want]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))  # -inf rows included


def _sweep_by_tail_slope(table, derivatives, d=math.inf):
    """The sweep as first written: the weight added on every row, and the slope function built per beta."""
    log_r = np.log(table.radii)
    for beta, log_abs in derivatives:
        logs = sum(beta) / d * log_r + log_abs - table.log_denom
        yield beta, logs, logs.max(axis=1), slope_function(log_r, 2)(logs)


#: 1 + xi^40 and 1 + xi^100, a constant, xi1 xi2 (whose axis rows hold logs of -inf), and the packaged wave
WARNING_CASES = {
    "spike-40": SymbolPolynomial(1, {(0,): 1.0, (40,): 1.0}),
    "spike-100": SymbolPolynomial(1, {(0,): 1.0, (100,): 1.0}),
    "constant": SymbolPolynomial.constant(2, 3.0),
    "product": SymbolPolynomial(2, {(1, 1): 1.0}),
    "wave": SymbolPolynomial(2, {(2, 0): 1.0, (0, 2): -1.0}),
}


def _warning_case_results(q):
    cfg = RayConfig(directions=64 if q.dimension > 1 else 2)
    out = [check_hypoelliptic(q, d, cfg) for d in (1.0, 2.0)] + [equally_strong(q, q + 1.0, cfg)]
    out.append(estimate_d(q, cfg) if q.order else None)
    try:
        out.append(check_symbol_domination(q, q))
    except HypoelError as exc:
        out.append(str(exc))
    table = analysis._ray_table(q, cfg)
    for d in (1.0, math.inf):
        out += [(beta, logs.tolist(), top.tolist(), np.asarray(s).tolist()) for beta, logs, top, s in
                analysis._sweep(table, table.derivatives, d)]
    return [cli._json_text(r) if dataclasses.is_dataclass(r) else r for r in out]


@pytest.mark.parametrize("q", WARNING_CASES.values(), ids=WARNING_CASES)
def test_one_error_state_per_loop_warns_nothing_and_keeps_the_results(q, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _warning_case_results(q)
    monkeypatch.setattr(analysis, "_log_abs_on_rays", _log_abs_by_symbol_parts)
    monkeypatch.setattr(analysis, "_sweep", _sweep_by_tail_slope)
    with np.errstate(all="ignore"):
        want = _warning_case_results(q)
    assert json.dumps(got) == json.dumps(want)
