import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoel import grids, symbols
from hypoel import (
    BoxDomain,
    DomainError,
    GridFunction,
    GridSpec,
    HypoelError,
    ParseError,
    StrengthWeight,
    SymbolPolynomial,
    VariableOperator,
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
from hypoel.grids import (
    CAP_SLACK,
    TAIL_FLAG_THRESHOLD,
    _box_slices,
    _derivative_sweep,
    _plancherel_caps,
    _tail_fractions,
    cell_frequency,
    delta_grid,
    spectral_tail_fraction,
    symbol_on_lattice,
)
from hypoel.symbols import multi_indices_up_to


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


def _dense_value(p, nodes):
    """p on a dense (..., n) array of nodes, term by term, every power and monomial computed afresh."""
    out = np.zeros(nodes.shape[:-1], dtype=complex)
    for alpha, c in p.terms.items():
        mono = np.ones(nodes.shape[:-1])
        for j, a in enumerate(alpha):
            if a:
                mono = mono * nodes[..., j] ** a
        out = out + c * mono
    return out


def _monomial_multiplier(freq, alpha):
    mono = np.ones((1,) * len(freq))
    for j, a in enumerate(alpha):
        if a:
            mono = mono * freq[j] ** a
    return mono


def _random_operator(rng, n):
    """A variable operator of order <= 3 with complex polynomial coefficients of degree <= 2."""
    def poly():
        return SymbolPolynomial(n, {tuple(rng.integers(0, 3, n)): complex(*rng.uniform(-2, 2, 2)) for _ in range(3)})
    terms = {tuple(rng.integers(0, 3, n)): poly() for _ in range(rng.integers(1, 4))}
    terms[(0,) * n] = complex(*rng.uniform(-2, 2, 2))
    return VariableOperator(n, terms, BoxDomain((-1.0,) * n, (1.0,) * n))


@pytest.mark.parametrize("seed", range(20))
def test_operators_on_the_grid_keep_the_bits_of_dense_evaluation(seed):
    """Lattice multipliers and variable operators match the per-term loops on dense nodes bit for bit.

    The reference is the application that evaluated each coefficient on the
    stacked dense nodes and each multiplier term by term.  Complex coefficients
    guard the operand form: numpy multiplies into a temporary right operand
    with the operands swapped, which changes the last bit of complex products.
    """
    rng = np.random.default_rng(seed)
    n = 1 + seed % 3
    # grids of 256 KiB or more: numpy reuses a temporary operand only from there on
    spec = GridSpec(BoxDomain((-1.0,) * n, (1.0,) * n), (16384, 128, 32)[n - 1])
    op = _random_operator(rng, n)
    u = GridFunction(spec, rng.standard_normal(spec.resolution**n * 2).view(complex).reshape((spec.resolution,) * n))
    nodes = np.stack(np.meshgrid(*spec.axes(), indexing="ij"), axis=-1)
    freq = spec.frequency_mesh()
    want = np.zeros_like(u.values)
    for alpha, coeff in op.terms.items():
        d_alpha_u = np.fft.ifftn(_monomial_multiplier(freq, alpha) * u.spectrum())
        want = want + _dense_value(coeff, nodes) * d_alpha_u
    assert apply_operator(op, u).values.tobytes() == want.tobytes()
    q = op.freeze(np.zeros(n))
    lattice = np.zeros(u.values.shape, dtype=complex)
    for alpha, c in q.terms.items():
        lattice += c * _monomial_multiplier(freq, alpha)
    assert symbol_on_lattice(spec, q).tobytes() == lattice.tobytes()


def test_a_variable_sweep_evaluates_its_coefficients_once(drift_operator, monkeypatch):
    evaluated, evaluate = [], grids._evaluate

    def counted(polys, coords):
        polys = list(polys)
        evaluated.extend(p for p in polys if any(p is c for c in drift_operator.terms.values()))
        return evaluate(polys, coords)

    # through SymbolPolynomial.__call__ or directly
    monkeypatch.setattr(symbols, "_evaluate", counted)
    monkeypatch.setattr(grids, "_evaluate", counted)
    spec = GridSpec(drift_operator.domain, 32)
    u = gaussian_bump(spec, 0.15, support=BoxDomain((-0.9, -0.9), (0.9, 0.9)))
    iterate_norms(drift_operator, u, 3, drift_operator.domain)
    assert len(evaluated) == len(drift_operator.terms)


def _parent_bump_profile(t):
    out = np.zeros_like(t)
    inside = np.abs(t) < 1
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


@pytest.mark.parametrize("seed", range(12))
def test_bumps_on_a_support_box_keep_the_bits_of_dense_evaluation(seed):
    """gaussian_bump's cutoff and polynomial_bump, computed per axis, match the dense per-node loops bit for bit."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 3
    spec = GridSpec(BoxDomain((-1.0,) * n, (1.0,) * n), (64, 32, 16)[n - 1])
    lo = rng.uniform(-1.0, 0.0, n)
    support = BoxDomain(lo, lo + rng.uniform(0.3, 1.0, n))
    width, power = rng.uniform(0.05, 0.5), int(rng.integers(1, 10))
    mesh = spec.mesh()
    cut = np.ones((spec.resolution,) * n)
    poly = np.ones((spec.resolution,) * n)
    for j in range(n):
        c = 0.5 * (support.lo[j] + support.hi[j])
        half = 0.5 * (support.hi[j] - support.lo[j])
        t = np.broadcast_to((mesh[j] - c) / half, cut.shape)
        cut = cut * _parent_bump_profile(t)
        poly = poly * np.where(np.abs(t) < 1, (1 - t * t) ** power, 0.0)
    r2 = sum((mesh[j] - support.center[j]) ** 2 for j in range(n))
    gauss = GridFunction(spec, np.exp(-r2 / (2.0 * width * width)) * cut)
    gauss = gauss * (1.0 / gauss.l2_norm())
    assert gaussian_bump(spec, width, support=support).values.tobytes() == gauss.values.tobytes()
    assert polynomial_bump(spec, power, support).values.tobytes() == GridFunction(spec, poly).values.tobytes()


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
    cube = BoxDomain((0.0,) * 3, (1.0,) * 3)
    ones = GridFunction(GridSpec(cube, 16), np.ones((16,) * 3))
    assert restricted_l2(ones, cube, 0.5) == 0.0
    assert restricted_l2(ones, BoxDomain((0.0, 0.0, 0.0), (1.0, 0.2, 1.0)), 0.1) == 0.0


def test_restricted_norm_monotone_in_delta(spec128, unit_box):
    u = gaussian_bump(spec128, 0.2)
    deltas = [0.0, 0.05, 0.1, 0.2, 0.3]
    norms = [restricted_l2(u, unit_box, d) for d in deltas]
    assert all(a >= b for a, b in zip(norms, norms[1:]))


def test_restricted_region_must_be_inside_cell(spec128):
    u = gaussian_bump(spec128, 0.2)
    with pytest.raises(DomainError):
        restricted_l2(u, BoxDomain((-5.0, -5.0), (5.0, 5.0)), 0.0)


def brute_restricted_l2(u, region, delta):
    """The restricted norm with one explicit node mask (x > lo + delta) & (x < hi - delta)."""
    inside = np.ones(u.values.shape, dtype=bool)
    for x, lo, hi in zip(np.meshgrid(*u.spec.axes(), indexing="ij"), region.lo, region.hi):
        inside &= (x > lo + delta) & (x < hi - delta)
    return math.sqrt(float(np.sum(np.abs(u.values[inside]) ** 2)) * u.spec.volume_element)


def noisy_bump(spec, seed=0):
    bump = gaussian_bump(spec, 0.1).values
    return GridFunction(spec, bump + 1e-3 * np.random.default_rng(seed).standard_normal(bump.shape))


# (grid, regions): on the second 2-D grid, node 128 and -0.35 + 0.0875 both round to
# -0.26249999999999996, so that node is on the edge of the box shrunk by 0.0875, not inside
NORM_CASES = [
    (GridSpec(BoxDomain((0.0,), (1.0,)), 128), [BoxDomain((0.0,), (1.0,)), BoxDomain((-0.2,), (0.7,))]),
    (GridSpec(BoxDomain((0.0, 0.0), (1.0, 1.0)), 128), [BoxDomain((0.0, 0.0), (1.0, 1.0))]),
    (
        GridSpec(BoxDomain((-0.35, -0.35), (0.35, 0.35)), 512),
        [BoxDomain((-0.35, -0.35), (0.35, 0.35)), BoxDomain((-0.3, -0.2), (0.1, 0.33))],
    ),
    (GridSpec(BoxDomain((-0.35,) * 3, (0.35,) * 3), 32), [BoxDomain((-0.3, -0.2, -0.35), (0.1, 0.33, 0.2))]),
]


@pytest.mark.parametrize("spec, regions", NORM_CASES, ids=["1d", "2d", "2d-tie", "3d"])
def test_restricted_norm_equals_brute_mask(spec, regions):
    u = noisy_bump(spec)
    deltas = [0.0, 0.0875, 0.1, 1.0 / 3.0, 0.35, 0.5, *delta_grid(0.25)]
    for region in regions:
        for d in deltas:
            assert restricted_l2(u, region, float(d)) == brute_restricted_l2(u, region, float(d))


def test_restricted_norm_rounding_tie_excludes_the_node():
    spec = GridSpec(BoxDomain((-0.35, -0.35), (0.35, 0.35)), 512)
    assert spec.axes()[0][128] == -0.35 + 0.0875
    spike = np.zeros((512, 512))
    spike[128, 256] = 1.0
    u = GridFunction(spec, spike)
    assert restricted_l2(u, spec.omega, 0.0875) == 0.0
    assert restricted_l2(u, spec.omega, 0.0874) > 0.0


# -- shrink_norm -----------------------------------------------------------------------


@pytest.mark.parametrize("spec, regions", NORM_CASES, ids=["1d", "2d", "2d-tie", "3d"])
def test_shrink_norm_is_the_max_over_delta_grid(spec, regions):
    u = noisy_bump(spec)
    for region in regions:
        for mu, t in ((0.5, 0.05), (1.0, 0.25), (2.0, 0.4)):
            want = max(d**mu * restricted_l2(u, region, float(d)) for d in delta_grid(t))
            assert shrink_norm(u, region, mu, t) == want


def test_shrink_norm_closed_form():
    om = BoxDomain((0.0,), (1.0,))
    spec = GridSpec(om, 4096)
    u = GridFunction(spec, np.ones(4096))
    got = shrink_norm(u, om, 1.0, 0.5)
    assert abs(got - 3.0**-1.5) < 1e-3


def test_shrink_norm_zero_function(spec128, unit_box):
    assert shrink_norm(zero_function(spec128), unit_box, 1.0, 0.5) == 0.0


def test_sweep_norms_past_the_float_range_read_inf():
    # D^alpha u at |alpha| >= 95 and Q^l u at high l leave the float range: inf and flagged, never NaN
    om = BoxDomain((-0.3,), (0.3,))
    u = gaussian_bump(GridSpec(om, 512), 0.05)
    sweeps = [
        derivative_norms(u, 120, om, 0.01),
        iterate_norms(SymbolPolynomial(1, {(2,): 1.0, (0,): 1.0}), u, 60, om, 0.0),
    ]
    for sweep in sweeps:
        assert math.inf in sweep.norms and not any(math.isnan(n) for n in sweep.norms)
        assert all(f for n, f in zip(sweep.norms, sweep.flagged) if n == math.inf)


def test_zero_function_sweeps_read_zero_past_the_float_range():
    # an exact zero of the spectrum times a multiplier or power past the float range is 0, not NaN read as inf
    om = BoxDomain((-0.3,), (0.3,))
    u = zero_function(GridSpec(om, 512))
    sweeps = [
        derivative_norms(u, 120, om, 0.01),
        iterate_norms(SymbolPolynomial(1, {(2,): 1.0, (0,): 1.0}), u, 100, om, 0.0),
    ]
    for sweep in sweeps:
        assert sweep.norms == [0.0] * len(sweep.labels)
        assert not any(sweep.flagged)


def test_shrink_norm_skips_distances_past_the_region():
    # every distance of delta_grid(1e300) empties the box: each adds nothing, and its
    # d**mu, past the float range, is never formed (a RuntimeWarning is an error here)
    om = BoxDomain((0.0,), (1.0,))
    u = GridFunction(GridSpec(om, 256), np.ones(256))
    assert shrink_norm(u, om, 2.0, 1e300) == 0.0


def _exhaustive_shrink_norm(u, region, mu, t):
    return max(d**mu * restricted_l2(u, region, float(d)) for d in delta_grid(t))


def _counted_box_sums(monkeypatch):
    sums, box_l2 = [], grids._box_l2
    monkeypatch.setattr(grids, "_box_l2", lambda sq, dv: sums.append(sq.size) or box_l2(sq, dv))
    return sums


def _edge_ring(spec, region):
    """Unit mass on the nodes of the region that lie within 0.01 of its edge, none elsewhere."""
    vals = np.zeros((spec.resolution,) * spec.dimension)
    vals[_box_slices(spec, region, 0.0)] = 1.0
    vals[_box_slices(spec, region, 0.01)] = 0.0
    return GridFunction(spec, vals)


@pytest.mark.parametrize("mu, t", [(0.5, 0.05), (1.0, 0.25), (2.0, 0.4)])
def test_shrink_norm_prunes_nothing_for_mass_on_the_edge(mu, t, monkeypatch):
    # only the smallest distances' box reaches the ring: every other box sums to 0, best stays 0 until
    # the last box, and no distance is passed over
    om = BoxDomain((0.0, 0.0), (1.0, 1.0))
    spec = GridSpec(om, 128)
    u = _edge_ring(spec, om)
    want = _exhaustive_shrink_norm(u, om, mu, t)
    boxes = {tuple((s.start, s.stop) for s in _box_slices(spec, om, float(d))) for d in delta_grid(t)}
    nonempty = [b for b in boxes if all(start < stop for start, stop in b)]
    sums = _counted_box_sums(monkeypatch)
    assert shrink_norm(u, om, mu, t) == want
    # every nonempty box once, and the smallest distance's box once more for the cap
    assert len(sums) == len(nonempty) + 1


def test_shrink_norm_keeps_a_maximum_that_only_the_outer_box_reaches():
    # a centre spike and 4e-4 of its mass on the nodes that only the smallest distances' box holds: at
    # mu = 1e-5 the largest of those distances gives the maximum, 1.5e-4 above the value at t, a margin
    # that a cap 1e-3 below the outer box's norm would prune
    om = BoxDomain((0.0,), (1.0,))
    spec, mu, t = GridSpec(om, 256), 1e-5, 0.25
    deltas = delta_grid(t)
    outer = _box_slices(spec, om, float(deltas[0]))
    inner = next(b for b in (_box_slices(spec, om, float(d)) for d in deltas) if b != outer)
    vals = np.zeros(256)
    vals[outer] = math.sqrt(4e-4 / (outer[0].stop - outer[0].start - (inner[0].stop - inner[0].start)))
    vals[inner] = 0.0
    vals[128] = 1.0
    u = GridFunction(spec, vals)
    want = _exhaustive_shrink_norm(u, om, mu, t)
    d_top = max(d for d in deltas if _box_slices(spec, om, float(d)) == outer)
    assert want == d_top**mu * restricted_l2(u, om, float(d_top))
    assert shrink_norm(u, om, mu, t) == want


@pytest.mark.parametrize(
    "spec, region, width, mu, t",
    [
        (GridSpec(BoxDomain((0.0,), (1.0,)), 4096), BoxDomain((0.0,), (1.0,)), 0.02, 1.0, 0.25),
        (GridSpec(BoxDomain((0.0, 0.0), (1.0, 1.0)), 256), BoxDomain((0.0, 0.0), (1.0, 1.0)), 0.05, 0.5, 0.05),
        (GridSpec(BoxDomain((-0.35,) * 3, (0.35,) * 3), 32), BoxDomain((-0.35,) * 3, (0.35,) * 3), 0.08, 2.0, 0.2),
    ],
    ids=["1d", "2d", "3d"],
)
def test_shrink_norm_prunes_most_boxes_of_a_narrow_centred_gaussian(spec, region, width, mu, t, monkeypatch):
    u = gaussian_bump(spec, width)
    want = _exhaustive_shrink_norm(u, region, mu, t)
    sums = _counted_box_sums(monkeypatch)
    assert shrink_norm(u, region, mu, t) == want
    assert len(sums) <= 5


def test_shrink_norm_sums_few_boxes_of_a_centred_gaussian(unit_box, monkeypatch):
    u = gaussian_bump(GridSpec(unit_box, 256), 0.03)
    sums = _counted_box_sums(monkeypatch)
    shrink_norm(u, unit_box, 2.0, 1.0)
    # a visit of every distance sums 119 distinct boxes here, the empty ones past the region included
    assert len(sums) <= 10


@pytest.mark.parametrize("spec, regions", NORM_CASES, ids=["1d", "2d", "2d-tie", "3d"])
def test_shrink_norm_past_the_region_is_the_exhaustive_max(spec, regions):
    # t beyond every region's half-width: the largest distances leave the box empty
    u = noisy_bump(spec)
    for region in regions:
        for mu in (0.5, 1.0, 3.0):
            assert shrink_norm(u, region, mu, 0.9) == _exhaustive_shrink_norm(u, region, mu, 0.9)
    ring = _edge_ring(spec, regions[0])
    assert shrink_norm(ring, regions[0], 2.0, 0.9) == _exhaustive_shrink_norm(ring, regions[0], 2.0, 0.9)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([1, 2, 3]),
    mu=st.floats(0.05, 8.0),
    t=st.floats(1e-3, 1.0),
    zero_share=st.floats(0.0, 1.0),
    sub_region=st.booleans(),
)
def test_shrink_norm_is_the_exhaustive_max_on_random_mass(seed, dim, mu, t, zero_share, sub_region):
    rng = np.random.default_rng(seed)
    om = BoxDomain((0.0,) * dim, (1.0,) * dim)
    spec = GridSpec(om, {1: 256, 2: 32, 3: 16}[dim])
    region = om
    if sub_region:
        lo, hi = np.sort(rng.uniform(-0.25, 1.25, (2, dim)), axis=0)
        region = BoxDomain(tuple(lo), tuple(hi))
    shape = (spec.resolution,) * dim
    # nonnegative mass |u|^2 spread over six decades, with a random share of exact zeros
    mass = rng.exponential(size=shape) * 10.0 ** rng.uniform(-3, 3, shape) * (rng.random(shape) >= zero_share)
    u = GridFunction(spec, np.sqrt(mass))
    assert shrink_norm(u, region, mu, t) == _exhaustive_shrink_norm(u, region, mu, t)


@pytest.mark.parametrize(
    "mu, t", [(1.0, math.inf), (math.inf, 0.2), (math.nan, 0.2), (1.0, math.nan), (1.0, -math.inf)]
)
def test_shrink_norm_rejects_a_weight_or_range_that_is_not_finite(spec128, unit_box, mu, t):
    with pytest.raises(ValueError, match=f"mu={mu}, t={t}"):
        shrink_norm(gaussian_bump(spec128, 0.1), unit_box, mu, t)


def test_shrink_norm_reads_a_nan_box_norm_as_inf_not_as_an_empty_box():
    spec = GridSpec(BoxDomain((-0.4, -0.4), (0.4, 0.4)), 64)
    values = gaussian_bump(spec, 0.1).values.copy()
    values[32, 32] = np.nan  # the centre, inside every shrunk box
    u = GridFunction(spec, values)
    assert math.isnan(restricted_l2(u, spec.omega))
    assert shrink_norm(u, spec.omega, 1.0, 0.25) == math.inf


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


@pytest.mark.parametrize(
    "family, params, bad",
    [("gaussian_bump", {"width": 1e-200}, 1), ("plane_wave", {"k": [1e308, 0]}, 128 * 128)],
)
def test_sample_rejects_samples_that_are_not_all_finite(spec128, family, params, bad):
    # 2 w^2 underflows to 0, so the centre node is 0/0; a frequency past the float range makes every phase NaN
    with pytest.raises(ParseError, match=f"{family!r} .*: {bad} of {128 * 128} samples are not finite"):
        sample(spec128, family, **params)


# -- box-pruned sweeps against the full-grid loops ---------------------------------------

#: stated tolerance of the box-pruned sweep against one ifftn per multi-index:
#: the multipliers are applied one axis at a time and the tail sums are
#: contracted per axis, which changes rounding only
SWEEP_RTOL = 1e-12


def masked_tail_fraction(spectrum):
    """The outer-shell norm fraction summed through one boolean mask over the lattice."""
    n = spectrum.shape[0]
    idx = np.fft.fftfreq(n) * n
    outer = np.abs(idx) >= n // 3
    mask = np.zeros(spectrum.shape, dtype=bool)
    for axis in range(spectrum.ndim):
        shape = [1] * spectrum.ndim
        shape[axis] = n
        mask |= outer.reshape(shape)
    total = float(np.sum(np.abs(spectrum) ** 2))
    if total == 0.0:
        return 0.0
    return math.sqrt(float(np.sum(np.abs(spectrum[mask]) ** 2)) / total)


def per_alpha_sweep(u, alphas, region, deltas):
    """{alpha: (tail fraction, norms)} from one full-grid ifftn of xi^alpha u_hat per alpha."""
    freq = u.spec.frequency_mesh()
    out = {}
    for alpha in alphas:
        mono = np.ones((1,) * u.dimension)
        for j, a in enumerate(alpha):
            if a:
                mono = mono * freq[j] ** a
        spec_a = mono * u.spectrum()
        d_alpha_u = u.with_values(np.fft.ifftn(spec_a))
        out[alpha] = masked_tail_fraction(spec_a), [restricted_l2(d_alpha_u, region, d) for d in deltas]
    return out


def sweep_fixtures():
    """Plane waves, gaussian bumps and polynomial bumps in one, two and three dimensions."""
    cases = []
    for n, res, amax, k in ((1, 256, 10, (5,)), (2, 128, 6, (3, -2)), (3, 32, 4, (1, 2, -1))):
        spec = GridSpec(BoxDomain((-0.35,) * n, (0.35,) * n), res)
        for name, u in (
            ("plane-wave", plane_wave(spec, k)),
            ("gaussian", gaussian_bump(spec, 0.08)),
            ("polynomial", polynomial_bump(spec, 8)),
        ):
            cases.append(pytest.param(u, amax, id=f"{name}-{n}d"))
    return cases


@pytest.mark.parametrize("u, amax", sweep_fixtures())
def test_derivative_sweep_matches_the_per_alpha_ifftn_loop(u, amax):
    alphas = multi_indices_up_to(u.dimension, amax)
    region = u.spec.omega
    # 1.0 shrinks the box to nothing: those norms are 0 on both sides
    deltas = [0.0, 0.05, 0.2, 1.0]
    want = per_alpha_sweep(u, alphas, region, deltas)
    got = _derivative_sweep(u, alphas, region, deltas)
    fractions, _ = _tail_fractions(u.spectrum(), amax)
    assert list(got) == alphas
    for alpha in alphas:
        frac, norms = want[alpha]
        flag, new_norms = got[alpha]
        assert flag == (frac > TAIL_FLAG_THRESHOLD)
        assert abs(fractions[alpha] - frac) <= SWEEP_RTOL * frac
        assert norms[-1] == new_norms[-1] == 0.0
        for old, new in zip(norms, new_norms):
            assert abs(new - old) <= SWEEP_RTOL * old
    # derivative_norms takes the max norm and any flag over each order
    sweep = derivative_norms(u, amax, region, deltas[1])
    for a in sweep.labels:
        entries = [got[alpha] for alpha in alphas if sum(alpha) == a]
        assert sweep.flagged[a] == any(flag for flag, _ in entries)
        assert sweep.norms[a] == max(norms[1] for _, norms in entries)


def exhaustive_derivative_norms(u, amax, region, delta):
    """Per order, the max norm and any flag over every alpha of the uncapped sweep."""
    norms, flagged = [0.0] * (amax + 1), [False] * (amax + 1)
    for alpha, (flag, (norm,)) in _derivative_sweep(u, multi_indices_up_to(u.dimension, amax), region, [delta]).items():
        a = sum(alpha)
        norms[a], flagged[a] = max(norms[a], norm), flagged[a] or flag
    return norms, flagged


def capped_fixtures():
    cases = []
    for n, res, amax, k in ((1, 256, 10, (5,)), (2, 128, 6, (3, -2)), (3, 32, 4, (1, 2, -1))):
        spec = GridSpec(BoxDomain((-0.35,) * n, (0.35,) * n), res)
        noise = np.random.default_rng(n).standard_normal((2,) + (res,) * n)
        cases += [
            # a plane wave: most alphas skipped
            pytest.param(plane_wave(spec, k), amax, spec.omega, 0.05, id=f"plane-wave-{n}d"),
            # isotropic: the top alphas of each order tie
            pytest.param(gaussian_bump(spec, 0.08), amax, spec.omega, 0.05, id=f"gaussian-{n}d"),
            # white noise: caps close together, few skipped
            pytest.param(GridFunction(spec, noise[0] + 1j * noise[1]), amax, spec.omega, 0.0, id=f"white-noise-{n}d"),
        ]
    aniso = GridSpec(BoxDomain((-0.35, -0.1), (0.35, 0.1)), 128, BoxDomain((-0.5, -0.3), (0.5, 0.3)))
    cases.append(pytest.param(gaussian_bump(aniso, 0.05), 8, aniso.omega, 0.02, id="anisotropic-cell"))
    spec = GridSpec(BoxDomain((-0.35,) * 2, (0.35,) * 2), 128)
    nan_node = np.array(gaussian_bump(spec, 0.08).values)
    nan_node[3, 4] = math.nan
    cases.append(pytest.param(GridFunction(spec, nan_node), 4, spec.omega, 0.05, id="nan-node"))
    # |u|^2 overflows at every order
    cases.append(pytest.param(gaussian_bump(spec, 0.08) * 1e200, 6, spec.omega, 0.05, id="amplitude-1e200"))
    # max|xi_k|^a_k alone overflows from a_k = 59 on; caps are formed from order 35 on, where every a_k < 48
    tiny = GridSpec(BoxDomain((-1e-4,) * 2, (1e-4,) * 2), 16)
    with np.errstate(under="ignore"):
        cases.append(pytest.param(gaussian_bump(tiny, 3e-5) * 1e-300, 64, tiny.omega, 1e-5, id="amplitude-1e-300"))
    return cases


@pytest.mark.parametrize("u, amax, region, delta", capped_fixtures())
def test_derivative_norms_equal_the_exhaustive_sweep_bit_for_bit(u, amax, region, delta):
    sweep = derivative_norms(u, amax, region, delta)
    norms, flagged = exhaustive_derivative_norms(u, amax, region, delta)
    assert [v.hex() for v in sweep.norms] == [v.hex() for v in norms]
    assert sweep.flagged == flagged


def test_derivative_norms_equal_the_exhaustive_sweep_on_random_fixtures():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        half = rng.uniform(0.05, 0.45, n)
        omega = BoxDomain(tuple(-half), tuple(half))
        spec = GridSpec(omega, (128, 64, 16)[n - 1], omega.scaled(float(rng.uniform(1.1, 2.0))))
        k = tuple(int(v) for v in rng.integers(-4, 5, n))
        u = modulated_bump(spec, k, float(rng.uniform(0.05, 0.3) * half.min()))
        amax, delta = int(rng.integers(0, (16, 7, 5)[n - 1])), float(rng.uniform(0.0, 0.5) * half.min())
        sweep = derivative_norms(u, amax, omega, delta)
        norms, flagged = exhaustive_derivative_norms(u, amax, omega, delta)
        assert [v.hex() for v in sweep.norms] == [v.hex() for v in norms] and sweep.flagged == flagged


def caps_of(u, amax, nodes=None):
    """Caps of every alpha up to amax on a box of `nodes` nodes, by default the whole cell."""
    alphas = multi_indices_up_to(u.dimension, amax)
    nodes = u.spec.resolution ** u.dimension if nodes is None else nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        return dict(zip(alphas, _plancherel_caps(u, alphas, _tail_fractions(u.spectrum(), amax)[1], nodes)))


@pytest.mark.parametrize("u, amax", sweep_fixtures())
def test_plancherel_caps_bound_every_box_norm_and_match_the_cell_norm(u, amax):
    caps = caps_of(u, amax)
    # the largest box: the sup bound over its nodes is a cap of every box inside it
    nodes = math.prod(s.stop - s.start for s in grids._box_slices(u.spec, u.spec.omega, 0.0))
    box_caps = caps_of(u, amax, nodes)
    sweep = _derivative_sweep(u, list(caps), u.spec.omega, [0.0, 0.05, 0.2])
    freq = u.spec.frequency_mesh()
    for alpha, cap in caps.items():
        assert all(norm <= box_caps[alpha] <= cap for norm in sweep[alpha][1])
        mono = np.ones((1,) * u.dimension)
        for j, a in enumerate(alpha):
            mono = mono * freq[j] ** a
        cell = math.sqrt(float(np.sum(np.abs(np.fft.ifftn(mono * u.spectrum())) ** 2)) * u.spec.volume_element)
        # on the whole cell the sup bound is never below the Plancherel norm
        assert abs(cap / (1 + CAP_SLACK) - cell) <= 1e-9 * cell


def test_sup_bound_caps_a_plane_wave_at_its_box_norm():
    # a 3-D plane wave: the Plancherel cap is 2.47 times the box norm, the sup bound that norm
    spec = GridSpec(BoxDomain((-0.28,) * 3, (0.28,) * 3), 32)
    u = plane_wave(spec, (3, -3, 4))
    box = grids._box_slices(spec, spec.omega, 0.05)
    caps = caps_of(u, 3, math.prod(s.stop - s.start for s in box))
    sweep = _derivative_sweep(u, list(caps), spec.omega, [0.05])
    for alpha, cap in caps.items():
        (norm,) = sweep[alpha][1]
        assert norm <= cap <= norm * (1 + 2 * CAP_SLACK)


def test_plancherel_caps_are_inf_where_the_sweep_may_leave_the_float_range():
    spec = GridSpec(BoxDomain((-0.35,) * 2, (0.35,) * 2), 64)
    u = gaussian_bump(spec, 0.08)
    assert all(math.isfinite(cap) for cap in caps_of(u, 6).values())
    # sum |u_hat| squared past 1e250; the spectrum not finite; every total at most 1e-250 but alpha = 0's
    assert all(math.isinf(cap) for cap in caps_of(u * 1e200, 6).values())
    nan_node = np.array(u.values)
    nan_node[3, 4] = math.nan
    assert all(math.isinf(cap) for cap in caps_of(GridFunction(spec, nan_node), 6).values())
    assert all(math.isinf(cap) for cap in caps_of(zero_function(spec), 6).values())
    constant = caps_of(u.with_values(np.ones((64, 64))), 6)
    assert math.isfinite(constant.pop((0, 0))) and all(math.isinf(cap) for cap in constant.values())
    # a total at most 1e-250, whose terms may be lost to underflow, has a +inf log
    spectrum = np.zeros(16)
    spectrum[:2] = 1.0, 1e-130
    assert np.isfinite(_tail_fractions(spectrum, 2)[1]).tolist() == [True, False, False]
    # on a 1e-300 field the squared cell norm is below 1e-250 up to order 34, and max|xi_k|^a_k alone
    # is past 1e250 from a_k = 48 on
    tiny = GridSpec(BoxDomain((-1e-4,) * 2, (1e-4,) * 2), 16)
    with np.errstate(under="ignore"):
        caps = caps_of(gaussian_bump(tiny, 3e-5) * 1e-300, 64)
    finite = {alpha for alpha, cap in caps.items() if math.isfinite(cap)}
    assert finite and all(35 <= sum(alpha) and max(alpha) < 48 for alpha in finite)
    assert {a for a in caps if 40 <= sum(a) <= 64 and max(a) < 48} <= finite


def test_capped_sweep_transforms_few_plane_wave_multi_indices(monkeypatch):
    # the bench's 256^2 plane wave: of the 28 multi-indices up to order 6, about one per order is transformed
    spec = GridSpec(BoxDomain((-0.35,) * 2, (0.35,) * 2), 256)
    u = plane_wave(spec, (5, -2))
    transforms = []
    ifft_to_box = grids._ifft_to_box
    monkeypatch.setattr(grids, "_ifft_to_box", lambda *args: transforms.append(args[1]) or ifft_to_box(*args))
    sweep = derivative_norms(u, 6, spec.omega, 0.05)
    monkeypatch.undo()
    assert len(transforms) <= 8
    assert (sweep.norms, sweep.flagged) == exhaustive_derivative_norms(u, 6, spec.omega, 0.05)
    # a skipped alpha has no norms and the flag of its tail fraction
    capped = _derivative_sweep(u, multi_indices_up_to(2, 6), spec.omega, [0.05], capped=True)
    assert sum(1 for _, norms in capped.values() if norms) <= 8
    fractions, _ = _tail_fractions(u.spectrum(), 6)
    assert all(flag == (fractions[alpha] > TAIL_FLAG_THRESHOLD) for alpha, (flag, _) in capped.items())


@pytest.mark.parametrize("k, most", [((3, -3, 4), 12), ((3, 4, 3), 9), ((2, -2, 2), 34)])
def test_capped_sweep_forms_each_partial_transform_at_most_once(monkeypatch, k, most):
    # 3-D plane waves on 32^3 up to order 3: 20 alphas, 10 suffixes alpha[1:], 4 suffixes alpha[2:].
    # With one top |k_j| only alpha = a e_j is transformed; when all |k_j| tie, every alpha is, once.
    spec = GridSpec(BoxDomain((-0.28,) * 3, (0.28,) * 3), 32)
    u = plane_wave(spec, k)
    axes = []
    ifft_to_box = grids._ifft_to_box
    monkeypatch.setattr(grids, "_ifft_to_box", lambda *args: axes.append(args[1]) or ifft_to_box(*args))
    sweep = derivative_norms(u, 3, spec.omega, 0.05)
    monkeypatch.undo()
    assert len(axes) <= most
    assert all(axes.count(j) <= bound for j, bound in enumerate((20, 10, 4)))
    assert (sweep.norms, sweep.flagged) == exhaustive_derivative_norms(u, 3, spec.omega, 0.05)


@pytest.mark.parametrize("n, res", [(1, 256), (2, 128), (3, 32)])
@pytest.mark.parametrize("delta", [0.0, 0.05])
def test_iterate_norms_bit_identical_to_full_grid_transforms(n, res, delta):
    spec = GridSpec(BoxDomain((-0.35,) * n, (0.35,) * n), res)
    heat = SymbolPolynomial(n, {(2,) + (0,) * (n - 1): 1.0, (0,) * (n - 1) + (1,): 1j})
    for u in (gaussian_bump(spec, 0.08), modulated_bump(spec, (2,) * n, 0.1), polynomial_bump(spec, 6)):
        sweep = iterate_norms(heat, u, 4, spec.omega, delta)
        mult = symbol_on_lattice(spec, heat)
        powered = np.ones_like(mult)
        for l in sweep.labels:
            if l > 0:
                powered = powered * mult
            spec_l = powered * u.spectrum()
            assert sweep.norms[l] == restricted_l2(u.with_values(np.fft.ifftn(spec_l)), spec.omega, delta)
            assert sweep.flagged[l] == (masked_tail_fraction(spec_l) > TAIL_FLAG_THRESHOLD)


def _ones_based_iterate_norms(q, u, lmax, region, delta):
    """Norms and flags of q^l u from a power that starts at ones and one full-grid ifftn per l, redone with u_hat's
    exact zeros kept at zero where the norm is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        mult, u_hat = symbol_on_lattice(u.spec, q), u.spectrum()
    powered, norms, flagged = np.ones_like(mult), [], []
    for l in range(lmax + 1):
        if l > 0:
            powered = powered * mult
        spec_l = powered * u_hat
        norm = restricted_l2(u.with_values(np.fft.ifftn(spec_l)), region, delta)
        if not math.isfinite(norm):
            spec_l[u_hat == 0] = 0
            norm = restricted_l2(u.with_values(np.fft.ifftn(spec_l)), region, delta)
        norms.append(math.inf if math.isnan(norm) else norm)
        flagged.append(not (spectral_tail_fraction(spec_l) <= TAIL_FLAG_THRESHOLD and math.isfinite(norms[-1])))
    return norms, flagged


def test_iterate_norms_in_place_passes_keep_the_bits_of_the_ones_based_sweep():
    # a modulated bump on the bench's largest 2-D grid; and 1e306 xi_2^2 + 1, past the float range wherever
    # xi_2 != 0, where the spectrum of a fixture constant along x_2 is exactly zero: the NaN redo path runs
    # from l = 1 on and keeps the norms finite
    spec = GridSpec(BoxDomain((-0.3, -0.3), (0.3, 0.3)), 1024)
    heat = SymbolPolynomial(2, {(2, 0): 1.0, (0, 1): 1j})
    steep = SymbolPolynomial(2, {(0, 2): 1e306, (0, 0): 1.0})
    flat = GridFunction(spec, np.broadcast_to(gaussian_bump(spec, 0.1).values[:, 512:513], (1024, 1024)))
    assert (flat.spectrum()[:, 1:] == 0).all()
    for q, u, lmax in ((heat, modulated_bump(spec, (3, 5), 0.08), 3), (steep, flat, 2)):
        before = u.spectrum().copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = iterate_norms(q, u, lmax, spec.omega, 0.05)
        with np.errstate(over="ignore", invalid="ignore"):
            assert (sweep.norms, sweep.flagged) == _ones_based_iterate_norms(q, u, lmax, spec.omega, 0.05)
        assert np.array_equal(u.spectrum(), before)
    assert all(math.isfinite(v) for v in sweep.norms) and sweep.norms[1] == sweep.norms[0]


@pytest.mark.parametrize("u", [
    pytest.param(gaussian_bump(GridSpec(BoxDomain((-0.3,), (0.3,)), 256), 0.05), id="1d-256"),
    pytest.param(modulated_bump(GridSpec(BoxDomain((-0.3,) * 2, (0.3,) * 2), 1024), (3, 5), 0.08), id="2d-1024"),
    pytest.param(plane_wave(GridSpec(BoxDomain((-0.3,) * 3, (0.3,) * 3), 64), (1, 2, 3)), id="3d-64"),
])
def test_in_place_spectral_passes_keep_the_bits_of_the_allocating_calls(u):
    """The forward spectrum, box transforms and operator applications equal numpy's allocating calls, bit for bit.

    Each pass writes into an array the function made; the samples, the spectrum and a box transform's input are
    never written.
    """
    spectrum = u.spectrum()
    assert np.array_equal(spectrum, np.fft.fftn(u.values)) and not spectrum.flags.writeable
    kept = spectrum.copy()
    for delta in (0.0, 0.05, 0.4):  # 0.4 empties the box
        box = _box_slices(u.spec, u.spec.omega, delta)
        for s in (spectrum, spectrum * spectrum):
            before = s.copy()
            assert np.array_equal(grids._ifftn_on_box(s, box), np.fft.ifftn(s)[box])
            assert np.array_equal(s, before)
    n = u.dimension
    heat = SymbolPolynomial(n, {(2,) + (0,) * (n - 1): 1.0, (0,) * (n - 1) + (1,): 1j})
    want = np.fft.ifftn(symbol_on_lattice(u.spec, heat) * spectrum)
    assert np.array_equal(apply_operator(heat, u).values, want)
    x1 = SymbolPolynomial.variable(n, 0)
    op = VariableOperator(n, {(2,) + (0,) * (n - 1): 1.0, (0,) * n: x1}, u.spec.cell)
    freq, nodes = u.spec.frequency_mesh(), np.stack(np.meshgrid(*u.spec.axes(), indexing="ij"), axis=-1)
    want = np.zeros_like(u.values)
    for alpha, coeff in op.terms.items():
        want = want + _dense_value(coeff, nodes) * np.fft.ifftn(_monomial_multiplier(freq, alpha) * spectrum)
    assert np.array_equal(apply_operator(op, u).values, want)
    assert np.array_equal(u.spectrum(), kept)


def test_spectral_tail_fraction_matches_the_masked_sum():
    rng = np.random.default_rng(7)
    spectra = []
    for n, res in ((1, 16), (1, 256), (2, 64), (2, 128), (3, 16), (3, 32)):
        spec = GridSpec(BoxDomain((-0.35,) * n, (0.35,) * n), res)
        spectra.append(rng.standard_normal((res,) * n) + 1j * rng.standard_normal((res,) * n))
        for u in (gaussian_bump(spec, 0.05), polynomial_bump(spec, 8), plane_wave(spec, (1,) * n)):
            mono = np.ones((1,) * n)
            for f in spec.frequency_mesh():
                mono = mono * f**3
            spectra += [u.spectrum(), mono * u.spectrum()]
    for s in spectra:
        want = masked_tail_fraction(s)
        got = spectral_tail_fraction(s)
        assert abs(got - want) <= SWEEP_RTOL * want
        assert (got > TAIL_FLAG_THRESHOLD) == (want > TAIL_FLAG_THRESHOLD)
    assert spectral_tail_fraction(np.zeros((16, 16))) == 0.0
    # a spectrum whose square passes the float range keeps its fraction; one that is not finite gives NaN
    assert spectral_tail_fraction(np.full(16, 1e200)) == pytest.approx(math.sqrt(7 / 16), rel=1e-15)
    assert math.isnan(spectral_tail_fraction(np.full(16, np.inf)))


def test_derivative_norms_flag_overflowing_orders():
    # |xi^alpha u_hat|^2 passes the float range from order 46 on: those entries
    # are flagged, and no overflow warning escapes
    omega = BoxDomain((-0.035,), (0.035,))
    u = gaussian_bump(GridSpec(omega, 128), 0.008)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep = derivative_norms(u, 48, omega, 0.002)
    assert all(sweep.flagged[45:])
    assert not all(math.isfinite(v) for v in sweep.norms)
    assert all(f for v, f in zip(sweep.norms, sweep.flagged) if not math.isfinite(v))


def test_iterate_norms_flag_overflowing_powers(laplacian, spec128, unit_box):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep = iterate_norms(laplacian, gaussian_bump(spec128, 0.1), 80, unit_box)
    assert not all(math.isfinite(v) for v in sweep.norms)
    assert all(f for v, f in zip(sweep.norms, sweep.flagged) if not math.isfinite(v))


def test_sweeps_flag_norms_past_the_float_range(laplacian, spec128, unit_box):
    # resolved, but |u|^2 overflows: the tail fraction is fine and the norm is not
    u = gaussian_bump(spec128, 0.1) * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweeps = derivative_norms(u, 2, unit_box), iterate_norms(laplacian, u, 2, unit_box)
    for sweep in sweeps:
        assert sweep.norms == [math.inf] * 3
        assert sweep.flagged == [True] * 3
