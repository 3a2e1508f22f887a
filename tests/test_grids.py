import math

import numpy as np
import pytest

from hypoel import (
    BoxDomain,
    DomainError,
    GridFunction,
    GridSpec,
    HypoelError,
    StrengthWeight,
    SymbolPolynomial,
    apply_operator,
    derivative_norms,
    gaussian_bump,
    iterate_norms,
    modulated_bump,
    plane_wave,
    polynomial_bump,
    restricted_l2,
    sample,
    shrink_norm,
    weighted_norm,
    zero_function,
)
from hypoel.grids import cell_frequency, delta_grid, spectral_tail_fraction


@pytest.fixture
def unit_box():
    return BoxDomain((0.0, 0.0), (1.0, 1.0))


@pytest.fixture
def spec128(unit_box):
    return GridSpec(unit_box, 128)


def bump_fixtures(spec):
    out = [gaussian_bump(spec, w) for w in (0.05, 0.1, 0.2)]
    out.append(polynomial_bump(spec))
    out.append(modulated_bump(spec, (2, 1), 0.15))
    return out


# -- grid spec ---------------------------------------------------------------------


def test_resolution_must_be_power_of_two(unit_box):
    with pytest.raises(ValueError):
        GridSpec(unit_box, 100)
    with pytest.raises(ValueError):
        GridSpec(unit_box, 8)


def test_default_cell_inflates_omega(unit_box):
    spec = GridSpec(unit_box, 64)
    assert spec.cell.lo == (-0.25, -0.25)
    assert spec.cell.hi == (1.25, 1.25)


def test_explicit_cell_must_contain_omega(unit_box):
    with pytest.raises(DomainError):
        GridSpec(unit_box, 64, cell=BoxDomain((0.0, -1.0), (2.0, 2.0)))


def test_fft_round_trip(spec128):
    u = gaussian_bump(spec128, 0.1)
    back = np.fft.ifftn(u.spectrum())
    err = np.max(np.abs(back - u.values)) / np.max(np.abs(u.values))
    assert err < 1e-12


def test_grid_function_values_are_read_only(spec128):
    u = gaussian_bump(spec128, 0.1)
    with pytest.raises(ValueError):
        u.values[0, 0] = 1.0


# -- sampling families --------------------------------------------------------------


def test_zero_function(spec128):
    assert zero_function(spec128).l2_norm() == 0.0


def test_plane_wave_closed_form(spec128):
    k = (3, -2)
    u = plane_wave(spec128, k)
    kt = cell_frequency(spec128, k)
    mesh = np.meshgrid(*spec128.axes(), indexing="ij")
    expected = np.exp(1j * (kt[0] * mesh[0] + kt[1] * mesh[1]))
    assert np.max(np.abs(u.values - expected)) < 1e-12


def test_plane_wave_rejects_fractional_frequency(spec128):
    with pytest.raises(HypoelError):
        plane_wave(spec128, (1.5, 0))


def test_gaussian_bump_matches_pointwise_formula(unit_box):
    spec = GridSpec(unit_box, 64)
    u = gaussian_bump(spec, 0.1, normalize=False)
    mesh = np.meshgrid(*spec.axes(), indexing="ij")
    r2 = (mesh[0] - 0.5) ** 2 + (mesh[1] - 0.5) ** 2
    core = np.exp(-r2 / 0.02)
    t0 = (mesh[0] - 0.5) / 0.5
    t1 = (mesh[1] - 0.5) / 0.5
    cut = np.where(np.abs(t0) < 1, np.exp(1 - 1 / np.maximum(1e-300, 1 - t0**2)), 0.0)
    cut = cut * np.where(np.abs(t1) < 1, np.exp(1 - 1 / np.maximum(1e-300, 1 - t1**2)), 0.0)
    assert np.max(np.abs(u.values - core * cut)) < 1e-12


def test_bumps_are_supported_inside_omega(spec128, unit_box):
    for u in bump_fixtures(spec128):
        total = u.l2_norm()
        inside = restricted_l2(u, unit_box, 0.0)
        assert math.sqrt(max(0.0, total**2 - inside**2)) < 1e-9 * total


def test_sample_dispatcher(spec128):
    assert sample(spec128, "zero").l2_norm() == 0.0
    with pytest.raises(HypoelError):
        sample(spec128, "no-such-family")


# -- apply_operator -------------------------------------------------------------------


def test_identity_symbol_is_identity(spec128):
    u = gaussian_bump(spec128, 0.1)
    v = apply_operator(SymbolPolynomial.constant(2, 1.0), u)
    assert np.max(np.abs(v.values - u.values)) < 1e-12


def test_plane_wave_is_eigenfunction(spec128, laplacian):
    for k in [(1, 0), (2, 1), (4, -4), (8, 8)]:
        u = plane_wave(spec128, k)
        v = apply_operator(laplacian, u)
        lam = complex(laplacian(cell_frequency(spec128, k)))
        err = np.max(np.abs(v.values - lam * u.values)) / max(abs(lam), 1.0)
        assert err < 1e-10


def test_spectral_laplacian_vs_finite_difference(unit_box, laplacian):
    """Second-order centered differences on a fine grid agree on coarse nodes."""
    coarse = GridSpec(unit_box, 128)
    fine = GridSpec(unit_box, 1024)
    u_c = gaussian_bump(coarse, 0.12)
    u_f = gaussian_bump(fine, 0.12, normalize=False)
    scale = 1.0 / GridFunction(fine, u_f.values).l2_norm()
    vals = u_f.values * scale

    h = (fine.cell.hi[0] - fine.cell.lo[0]) / fine.resolution
    lap_fd = (
        np.roll(vals, 1, axis=0) + np.roll(vals, -1, axis=0)
        + np.roll(vals, 1, axis=1) + np.roll(vals, -1, axis=1)
        - 4 * vals
    ) / h**2
    # D_j = -i d/dx_j, so the symbol xi1^2+xi2^2 acts as minus the Laplacian
    oracle = -lap_fd[::8, ::8]

    spectral = apply_operator(laplacian, u_c).values
    rel = np.linalg.norm(spectral - oracle) / np.linalg.norm(oracle)
    assert rel < 1e-4


def test_variable_operator_application(drift_operator):
    omega = BoxDomain((-1.0, -1.0), (1.0, 1.0))
    spec = GridSpec(omega, 64)
    u = gaussian_bump(spec, 0.15, support=BoxDomain((-0.9, -0.9), (0.9, 0.9)))
    applied = apply_operator(drift_operator, u)
    # compare against symbol-by-symbol assembly
    mesh = np.meshgrid(*spec.axes(), indexing="ij")
    lap = SymbolPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
    d1 = SymbolPolynomial(2, {(1, 0): 1.0})
    expected = apply_operator(lap, u).values + mesh[0] * apply_operator(d1, u).values
    assert np.max(np.abs(applied.values - expected)) < 1e-10


# -- restricted_l2 ---------------------------------------------------------------------


def test_restricted_norm_of_one():
    om = BoxDomain((0.0,), (1.0,))
    spec = GridSpec(om, 128)
    u = GridFunction(spec, np.ones(128))
    got = restricted_l2(u, om, 1.0 / 3.0)
    assert abs(got - math.sqrt(1.0 / 3.0)) < 2.0 / 128


def test_restricted_norm_empty_shrink():
    om = BoxDomain((0.0,), (1.0,))
    spec = GridSpec(om, 64)
    u = GridFunction(spec, np.ones(64))
    assert restricted_l2(u, om, 0.5) == 0.0
    assert restricted_l2(u, om, 0.7) == 0.0


def test_restricted_norm_monotone_in_delta(spec128, unit_box):
    u = gaussian_bump(spec128, 0.2)
    deltas = [0.0, 0.05, 0.1, 0.2, 0.3]
    norms = [restricted_l2(u, unit_box, d) for d in deltas]
    assert all(a >= b for a, b in zip(norms, norms[1:]))


def test_restricted_region_must_be_inside_cell(spec128):
    u = gaussian_bump(spec128, 0.2)
    with pytest.raises(DomainError):
        restricted_l2(u, BoxDomain((-5.0, -5.0), (5.0, 5.0)), 0.0)


# -- shrink_norm -----------------------------------------------------------------------


def test_shrink_norm_closed_form():
    om = BoxDomain((0.0,), (1.0,))
    spec = GridSpec(om, 4096)
    u = GridFunction(spec, np.ones(4096))
    got = shrink_norm(u, om, 1.0, 0.5)
    assert abs(got - 3.0**-1.5) < 1e-3


def test_shrink_norm_zero_function(spec128, unit_box):
    assert shrink_norm(zero_function(spec128), unit_box, 1.0, 0.5) == 0.0


def test_shrink_norm_small_t_bound(spec128, unit_box):
    u = gaussian_bump(spec128, 0.1)
    t = 1e-3
    assert shrink_norm(u, unit_box, 1.0, t) <= t * restricted_l2(u, unit_box, 0.0) * (1 + 1e-12)


def test_shrink_norm_nondecreasing_in_t(spec128, unit_box):
    u = gaussian_bump(spec128, 0.2)
    values = [shrink_norm(u, unit_box, 1.5, t) for t in (0.05, 0.1, 0.2, 0.4)]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(values, values[1:]))


def test_delta_grid_covers_range():
    grid = delta_grid(0.5)
    assert grid.min() > 0 and grid.max() == pytest.approx(0.5)
    assert len(grid) >= 150


# -- weighted_norm ----------------------------------------------------------------------


def test_plancherel_on_bumps(spec128):
    for u in bump_fixtures(spec128):
        wn = weighted_norm(u, 1.0, 2.0)
        assert wn == pytest.approx(u.l2_norm(), rel=1e-6)


def test_weighted_norm_zero(spec128):
    assert weighted_norm(zero_function(spec128), 1.0, 2.0) == 0.0


def test_weighted_norm_infinity_is_max(spec128):
    u = gaussian_bump(spec128, 0.1)
    assert weighted_norm(u, 1.0, math.inf) > 0


def test_weighted_norm_rejects_small_p(spec128):
    u = gaussian_bump(spec128, 0.1)
    with pytest.raises(ValueError):
        weighted_norm(u, 1.0, 0.5)


def test_apply_operator_dimension_mismatch(spec128):
    u = gaussian_bump(spec128, 0.1)
    with pytest.raises(Exception) as err:
        apply_operator(SymbolPolynomial(3, {(1, 0, 0): 1.0}), u)
    from hypoel import DimensionMismatch

    assert isinstance(err.value, DimensionMismatch)


def test_weighted_norm_concentrated_mode(laplacian):
    # a wide modulated bump concentrates the spectrum near the wave frequency
    om = BoxDomain((-1.0, -1.0), (1.0, 1.0))
    spec = GridSpec(om, 128)
    u = modulated_bump(spec, (16, 0), 0.35)
    w = StrengthWeight(laplacian)
    ratio = weighted_norm(u, w, 2.0) / weighted_norm(u, 1.0, 2.0)
    expected = float(w(cell_frequency(spec, (16, 0))))
    assert abs(ratio - expected) / expected < 0.05


# -- iterate and derivative sweeps --------------------------------------------------------


def test_iterate_identity_symbol(spec128, unit_box):
    u = gaussian_bump(spec128, 0.1)
    sweep = iterate_norms(SymbolPolynomial.constant(2, 1.0), u, 4, unit_box, 0.0)
    base = restricted_l2(u, unit_box, 0.0)
    assert np.allclose(sweep.norms, base, rtol=1e-12)


def test_iterate_eigenmode_closed_form(laplacian):
    om = BoxDomain((0.0, 0.0), (1.0, 1.0))
    spec = GridSpec(om, 64)
    u = plane_wave(spec, (2, 1))
    lam = abs(complex(laplacian(cell_frequency(spec, (2, 1)))))
    sweep = iterate_norms(laplacian, u, 3, om, 0.0)
    base = restricted_l2(u, om, 0.0)
    for l, n in zip(sweep.labels, sweep.norms):
        assert n == pytest.approx(lam**l * base, rel=1e-9)


def test_one_shot_power_matches_repeated_application(heat_symbol, unit_box):
    spec = GridSpec(unit_box, 128)
    u = gaussian_bump(spec, 0.2)
    sweep = iterate_norms(heat_symbol, u, 4, unit_box, 0.0)
    current = u
    for l in range(1, 5):
        current = apply_operator(heat_symbol, current)
        if not sweep.flagged[l]:
            direct = restricted_l2(current, unit_box, 0.0)
            assert sweep.norms[l] == pytest.approx(direct, rel=1e-6)


def test_derivative_norms_zero(spec128, unit_box):
    sweep = derivative_norms(zero_function(spec128), 3, unit_box, 0.0)
    assert all(n == 0.0 for n in sweep.norms)


def test_derivative_norms_plane_wave_closed_form():
    om = BoxDomain((0.0, 0.0), (1.0, 1.0))
    spec = GridSpec(om, 64)
    k = (3, 1)
    u = plane_wave(spec, k)
    kt = cell_frequency(spec, k)
    base = restricted_l2(u, om, 0.0)
    sweep = derivative_norms(u, 4, om, 0.0)
    for a, n in zip(sweep.labels, sweep.norms):
        best = max(
            abs(kt[0] ** alpha[0] * kt[1] ** alpha[1])
            for alpha in [(i, a - i) for i in range(a + 1)]
        )
        assert n == pytest.approx(best * base, rel=1e-9)


def test_derivative_norms_low_order_fd_cross_check(unit_box):
    coarse = GridSpec(unit_box, 128)
    fine = GridSpec(unit_box, 1024)
    u_c = gaussian_bump(coarse, 0.2)
    u_f = gaussian_bump(fine, 0.2, normalize=False)
    vals = u_f.values / GridFunction(fine, u_f.values).l2_norm()
    h = (fine.cell.hi[0] - fine.cell.lo[0]) / fine.resolution
    vol = coarse.volume_element

    def coarse_norm(arr):
        mesh = np.meshgrid(*coarse.axes(), indexing="ij")
        mask = np.ones(arr.shape, dtype=bool)
        for j in range(2):
            mask &= (mesh[j] > unit_box.lo[j]) & (mesh[j] < unit_box.hi[j])
        return math.sqrt(np.sum(np.abs(arr[mask]) ** 2) * vol)

    # D_j = -i d/dx_j: first derivatives via centered differences
    d1 = (np.roll(vals, -1, axis=0) - np.roll(vals, 1, axis=0)) / (2 * h) * (-1j)
    d2 = (np.roll(vals, -1, axis=1) - np.roll(vals, 1, axis=1)) / (2 * h) * (-1j)
    fd_orders = {
        1: max(coarse_norm(d1[::8, ::8]), coarse_norm(d2[::8, ::8])),
    }
    sweep = derivative_norms(u_c, 3, unit_box, 0.0)
    assert sweep.norms[1] == pytest.approx(fd_orders[1], rel=1e-3)


def test_spectral_tail_flags_rough_data(unit_box):
    spec = GridSpec(unit_box, 64)
    rng = np.random.default_rng(0)
    noisy = GridFunction(spec, rng.standard_normal((64, 64)))
    sweep = derivative_norms(noisy, 1, unit_box, 0.0)
    assert sweep.flagged[1]


def test_tail_fraction_of_single_low_mode(spec128):
    u = plane_wave(spec128, (1, 1))
    assert spectral_tail_fraction(u.spectrum()) < 1e-10


def test_sample_reads_a_support_box_dict(spec128):
    box = BoxDomain((0.2, 0.2), (0.8, 0.8))
    u = sample(spec128, "gaussian_bump", width=0.1, support={"lo": [0.2, 0.2], "hi": [0.8, 0.8]})
    assert np.array_equal(u.values, gaussian_bump(spec128, 0.1, support=box).values)
    wave = sample(spec128, "modulated_bump", k=[2, 1], width=0.15)
    assert np.array_equal(wave.values, modulated_bump(spec128, (2, 1), 0.15).values)
