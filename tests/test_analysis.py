import math

import numpy as np
import pytest

from hypoel import (
    BoxDomain,
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
from hypoel.analysis import SLOPE_TOL, unit_directions
from hypoel.estimates import check_symbol_domination


def test_ray_config_validation():
    with pytest.raises(ValueError):
        RayConfig(radii=4)
    with pytest.raises(ValueError):
        RayConfig(rho=1.0)
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


# -- snap_rational ---------------------------------------------------------------


@pytest.mark.parametrize(
    "value, expected",
    [
        (1.0, (1, 1)),
        (2.0000002, (2, 1)),
        (1.5, (3, 2)),
        (4 / 3 + 1e-4, (4, 3)),
        (1.083333, (13, 12)),
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
    assert rep.witness.slope > rep.slope_threshold


def test_zero_symbol_rejected():
    with pytest.raises(HypoelError):
        check_hypoelliptic(SymbolPolynomial.zero(2), 1.0)


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
    assert rep.witness.slope > rep.slope_threshold


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
    a = estimate_d(laplacian).to_dict()
    b = estimate_d(laplacian).to_dict()
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
def test_high_order_strengths_cap_the_radius_grid():
    # the squared strengths of 1 + xi^40 overflowed and every ratio was NaN
    p = SymbolPolynomial(1, {(0,): 1.0, (40,): 1.0})
    q = SymbolPolynomial(1, {(0,): 1.0, (40,): 2.0})
    rep = equally_strong(p, q)
    assert rep.verdict == "equally-strong"
    assert rep.ratio_bounds == (0.5, 0.5)
    assert rep.config["radii"] == 8
    assert check_symbol_domination(p, q)["worst_slope"] <= SLOPE_TOL
    p8 = SymbolPolynomial(2, {(0, 0): 1.0, (8, 0): 1.0, (0, 8): 1.0})
    assert equally_strong(p8, p8 + 1).config["radii"] == 40


def test_zero_symbol_rejected_for_strength(laplacian):
    with pytest.raises(HypoelError):
        equally_strong(SymbolPolynomial.zero(2), laplacian)


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


def test_points_validation(drift_operator):
    with pytest.raises(ValueError):
        check_constant_strength(drift_operator, points=1)


# -- numerical range and NaN rays -----------------------------------------------------------


def test_high_order_symbol_caps_the_radius_grid():
    # 1 + xi^40 overflowed on the full grid and looked like d ~ 2.5
    rep = estimate_d(SymbolPolynomial(1, {(0,): 1.0, (40,): 1.0}))
    assert rep.verdict == "hypoelliptic-consistent"
    assert rep.d_snapped == (1, 1)
    assert rep.config["radii"] == 20
    assert estimate_d(SymbolPolynomial(1, {(0,): 1.0, (8,): 1.0})).config["radii"] == 40


def test_symbol_too_high_for_eight_radii_rejected():
    with pytest.raises(HypoelError, match="order 100"):
        estimate_d(SymbolPolynomial(1, {(0,): 1.0, (100,): 1.0}))


@pytest.fixture
def nan_rays(monkeypatch):
    """Make every |Q^(beta)|, beta != 0, NaN on the first `count` (base) rays of a sweep."""
    call = SymbolPolynomial.__call__

    def poison(symbol, count):
        def poisoned(p, xi):
            out = call(p, xi)
            if p != symbol and np.ndim(xi) == 3:
                out[:count] = np.nan
            return out

        monkeypatch.setattr(SymbolPolynomial, "__call__", poisoned)
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
    from hypoel import analysis

    def public_check(*args, **kwargs):
        raise AssertionError("estimate_d must check on its own rays")

    built = []
    directions = analysis.unit_directions
    monkeypatch.setattr(analysis, "check_hypoelliptic", public_check)
    monkeypatch.setattr(analysis, "unit_directions", lambda *a: built.append(a) or directions(*a))
    rep = estimate_d(heat_symbol)
    assert rep.d_snapped == (2, 1) and rep.fitted_c is not None
    assert len(built) == 1
