import copy
import json
import math
import pickle
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from hypoel import (
    BoxDomain,
    GridSpec,
    PreconditionError,
    RationalExponent,
    SymbolPolynomial,
    VariableOperator,
    apply_operator,
    derivative_norms,
    fit_roumieu_space,
    fit_roumieu_vector,
    gaussian_bump,
    gevrey,
    plane_wave,
    restricted_l2,
    sample,
    shrink_norm,
    verify_dominated_transfer,
    verify_domination,
    verify_growth_chain,
    verify_iterate_bound,
    zero_function,
)
from hypoel import estimates
from hypoel.estimates import MARGIN_REL_TOL
from hypoel.grids import _derivative_sweep, cell_frequency
from hypoel.sequences import TableSequence, log_factorial
from hypoel.symbols import load, multi_indices_up_to


@pytest.fixture
def small_box():
    return BoxDomain((-0.35, -0.35), (0.35, 0.35))


@pytest.fixture
def wide_box():
    return BoxDomain((-0.7, -0.7), (0.7, 0.7))


# -- RationalExponent ---------------------------------------------------------------


def test_rational_exponent_reduction():
    d = RationalExponent(4, 2)
    assert (d.mu, d.nu) == (2, 1)
    assert d.value == 2.0


def test_rational_exponent_gamma():
    d = RationalExponent(2, 1)
    # d * m * mu for a second-order operator
    assert d.gamma(2) == 8.0


def test_rational_exponent_parse():
    for text in ("3/2", " 3/2 ", "1.5", 1.5):
        assert RationalExponent.parse(text) == RationalExponent(3, 2)
    assert RationalExponent.parse("2") == RationalExponent(2, 1)
    assert type(RationalExponent.parse("2")) is RationalExponent


@pytest.mark.parametrize("text", ["3 / 2", "2/ 1", "-2/-1", "+3/+2"])
def test_rational_exponent_parse_reads_strings_as_fraction_does(text):
    # the grammar of analyze --d
    with pytest.raises(ValueError):
        Fraction(text)
    with pytest.raises(ValueError):
        RationalExponent.parse(text)


@pytest.mark.parametrize("mu, nu", [(1, 1), (3, 2), (7, 3), (10**20 + 1, 10**20)])
def test_rational_exponent_value_is_the_integer_quotient_and_copies_keep_the_type(mu, nu):
    d = RationalExponent(mu, nu)
    assert d.value.hex() == (mu / nu).hex()
    for twin in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert type(twin) is RationalExponent and (twin.mu, twin.nu) == (mu, nu)


def test_rational_exponent_below_one_rejected():
    with pytest.raises(ValueError):
        RationalExponent(1, 2)


@pytest.mark.parametrize("value, error", [(True, TypeError), (False, TypeError), ("1e400", ValueError),
                                          (10**400, ValueError)], ids=["true", "false", "1e400", "10^400"])
def test_rational_exponent_parse_rejects_a_boolean_and_a_value_past_the_float_range(value, error):
    # Fraction reads True as 1 and "1e400" exactly, whose float overflows
    with pytest.raises(error):
        RationalExponent.parse(value)


# -- dominated transfer (shrink-norm comparison) --------------------------------------


def test_transfer_with_equal_symbols_bounded_by_one(laplacian, small_box):
    spec = GridSpec(small_box, 64)
    u = gaussian_bump(spec, 0.1)
    rep = verify_dominated_transfer(laplacian, laplacian, RationalExponent(1, 1), u, small_box, 0.25)
    assert rep.verdict == "pass"
    assert rep.fitted_constant <= 1.0


def test_transfer_zero_fixture_passes(laplacian, small_box):
    spec = GridSpec(small_box, 64)
    rep = verify_dominated_transfer(
        laplacian,
        SymbolPolynomial(2, {(1, 0): 1.0}),
        RationalExponent(1, 1),
        zero_function(spec),
        small_box,
        0.25,
    )
    assert rep.verdict == "pass"
    assert all(c.margin == 0.0 for c in rep.cases)


def test_transfer_flags_a_case_with_no_finite_comparison_in_either_fixture_order(laplacian):
    # a NaN node outside omega makes both sides of its case inf; inf / inf is NaN, which Python's max
    # dropped unless it came first (then A read nan, with a RuntimeWarning, an error under this suite)
    spec = GridSpec(BoxDomain((-0.3, -0.3), (0.3, 0.3)), 64)
    good = gaussian_bump(spec, 0.1)
    values = good.values.copy()
    values[3, 5] = np.nan
    bad = good.with_values(values)
    r = SymbolPolynomial(2, {(1, 0): 1.0})
    reports = [verify_dominated_transfer(laplacian, r, RationalExponent(1, 1), fx, spec.omega, 0.25)
               for fx in ([good, bad], [bad, good])]
    for rep, flags in zip(reports, ([False, True], [True, False])):
        assert rep.verdict == "pass" and rep.fitted_constant == 0.023852466213396026
        assert [c.flagged for c in rep.cases] == flags
    (fine, nan_case), (nan_case_b, fine_b) = (rep.cases for rep in reports)
    assert nan_case.lhs == nan_case.rhs == math.inf and nan_case_b.lhs == nan_case_b.rhs == math.inf
    assert (fine.lhs, fine.rhs, fine.margin) == (fine_b.lhs, fine_b.rhs, fine_b.margin)
    # a NaN left side is flagged in either position, and a case flagged already stays flagged
    for nan_first in (True, False):
        cases = [estimates.EstimateCase({}, math.nan, 1.0, 0.0), estimates.EstimateCase({}, 2.0, 1.0, 0.0, True),
                 estimates.EstimateCase({}, 1.0, 2.0, 0.0), estimates.EstimateCase({}, math.nan, 0.0, 0.0)]
        cases = cases if nan_first else cases[::-1]
        assert estimates._close(cases, [1] * 4) == (0.5, "pass")
        assert [c.flagged for c in cases] == ([True, True, False, True] if nan_first else [True, False, True, True])
    # a NaN right side under a nonzero left still makes A infinite, as a vanishing one does
    cases = [estimates.EstimateCase({}, 1.0, 2.0, 0.0), estimates.EstimateCase({}, 1.0, math.nan, 0.0)]
    assert estimates._close(cases, [1, 1]) == (1e300, "fail") and not any(c.flagged for c in cases)


def test_transfer_two_resolution_stability(laplacian, small_box):
    r = SymbolPolynomial(2, {(1, 0): 1.0})
    consts = {}
    for res in (64, 128):
        spec = GridSpec(small_box, res)
        fixtures = [gaussian_bump(spec, w) for w in (0.05, 0.1, 0.2)]
        rep = verify_dominated_transfer(laplacian, r, RationalExponent(1, 1), fixtures, small_box, 0.25)
        assert rep.verdict == "pass"
        consts[res] = rep.fitted_constant
    assert abs(consts[128] - consts[64]) <= 0.2 * consts[64]


def _transfer_cases(d3: bool):
    """(q, r, fixtures, omega) of a 1-D or a 3-D transfer, the 3-D one with fixtures on two grids."""
    if d3:
        omega = BoxDomain((-0.25,) * 3, (0.25,) * 3)
        q = SymbolPolynomial(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
        r = SymbolPolynomial(3, {(1, 0, 0): 1.0, (0, 0, 0): 0.5})
        us = [gaussian_bump(GridSpec(omega, 32), 0.08), gaussian_bump(GridSpec(omega, 16), 0.1),
              gaussian_bump(GridSpec(omega, 32), 0.05, center=(0.05, -0.02, 0.0))]
    else:
        omega = BoxDomain((-0.35,), (0.35,))
        q, r = SymbolPolynomial(1, {(2,): 1.0, (0,): 1.0}), SymbolPolynomial(1, {(1,): 1j})
        us = [gaussian_bump(GridSpec(omega, 256), w) for w in (0.03, 0.1)]
    return q, r, us, omega


@pytest.mark.parametrize("case", ["p1", "1d", "3d"])
def test_transfer_sides_are_the_shrink_norms_of_the_full_transforms_bit_for_bit(case):
    if case == "p1":
        doc, omega, us, sym = _packaged("p1")
        q, r, t = sym["symbol"], sym["r_symbol"], doc["t"]
    else:
        (q, r, us, omega), t = _transfer_cases(case == "3d"), 0.2
    rep = verify_dominated_transfer(q, r, RationalExponent(1, 1), us, omega, t)
    mu = float(q.order)
    # the reference applies each symbol on the whole grid, one multiplier and one ifftn per fixture and side
    for got, u in zip(rep.cases, us, strict=True):
        lhs = shrink_norm(apply_operator(r, u), omega, mu, t)
        rhs_core = shrink_norm(apply_operator(q, u), omega, mu, t) + restricted_l2(u, omega, 0.0)
        assert lhs > 0 and (got.lhs, got.params["rhs_core"]) == (lhs, rhs_core)


def test_transfer_rejects_undominated_symbol(laplacian, small_box):
    spec = GridSpec(small_box, 64)
    u = gaussian_bump(spec, 0.1)
    r = SymbolPolynomial(2, {(4, 0): 1.0})
    with pytest.raises(PreconditionError) as err:
        verify_dominated_transfer(laplacian, r, RationalExponent(1, 1), u, small_box, 0.25)
    assert err.value.name == "symbol-domination"


def test_transfer_enforces_diameter(laplacian):
    big = BoxDomain((-1.0, -1.0), (1.0, 1.0))
    spec = GridSpec(big, 64)
    u = gaussian_bump(spec, 0.1)
    with pytest.raises(PreconditionError) as err:
        verify_dominated_transfer(laplacian, laplacian, RationalExponent(1, 1), u, big, 0.25)
    assert err.value.name == "domain-normalization"


def test_transfer_fails_a_nan_right_side_through_the_one_fit(laplacian):
    """A NaN node inside omega gives a NaN right side under an infinite left: A is infinite, reported as 1e300."""
    omega = BoxDomain((-0.3, -0.3), (0.3, 0.3))
    u = gaussian_bump(GridSpec(omega, 64), 0.05)
    values = u.values.copy()
    values[32, 32] = np.nan
    r = SymbolPolynomial(2, {(1, 0): 1.0})
    with np.errstate(invalid="ignore"):
        rep = verify_dominated_transfer(laplacian, r, RationalExponent(1, 1), [u, u.with_values(values)], omega, 0.25)
    assert (rep.verdict, rep.fitted_constant, len(rep.cases)) == ("fail", 1e300, 2)
    assert sorted(rep.extras) == ["domination", "mu_exponent", "t"]


def test_transfer_rejects_multipliers_past_the_float_range():
    """xi^120 overflows on a 4096-node grid: every shrink norm would be NaN, and the check read them as 0."""
    q = SymbolPolynomial(1, {(120,): 1.0, (0,): 1.0})
    r = SymbolPolynomial(1, {(120,): 1.0})
    omega = BoxDomain((-0.4,), (0.4,))
    u = gaussian_bump(GridSpec(omega, 4096), 0.05)
    with pytest.raises(PreconditionError) as err:
        verify_dominated_transfer(q, r, RationalExponent(1, 1), [u], omega, 0.25)
    assert err.value.name == "spectral-range"
    assert repr(r) in str(err.value) and "4096 nodes" in str(err.value)


# -- iterate bound -----------------------------------------------------------------------


def test_iterate_bound_k0_reduces_to_restriction(heat_symbol, small_box):
    spec = GridSpec(small_box, 64)
    u = gaussian_bump(spec, 0.1)
    rep = verify_iterate_bound(
        heat_symbol, RationalExponent(2, 1), u, small_box, 0, [0.05, 0.1]
    )
    assert rep.verdict == "pass"
    assert all(c.margin >= 0 for c in rep.cases)
    assert rep.fitted_constant == 0.0


def test_iterate_bound_zero_fixture(heat_symbol, small_box):
    spec = GridSpec(small_box, 64)
    rep = verify_iterate_bound(
        heat_symbol, RationalExponent(2, 1), zero_function(spec), small_box, 2, [0.1]
    )
    assert rep.verdict == "pass"


def test_iterate_bound_margins_self_consistent(heat_symbol, small_box):
    spec = GridSpec(small_box, 128)
    fixtures = [gaussian_bump(spec, w) for w in (0.05, 0.1)]
    rep = verify_iterate_bound(
        heat_symbol, RationalExponent(2, 1), fixtures, small_box, 3, [0.05, 0.1, 0.2]
    )
    assert rep.verdict == "pass"
    for case in rep.cases:
        if not case.flagged:
            assert case.margin >= -1e-9 * max(case.rhs, 1.0)
    assert "fitted_constant_statement_variant" in rep.extras
    assert rep.extras["gamma"] == 8.0


def test_iterate_bound_and_derivative_norms_share_one_sweep():
    # the largest prop31 left side over |alpha| = a is the derivative sweep's entry, bit for bit
    fixtures = resources.files("hypoel") / "fixtures"
    doc = json.loads((fixtures / "verify_prop31.json").read_text())
    omega = BoxDomain.from_dict(doc["omega"])
    desc = dict(doc["fixtures"][1])
    u = sample(GridSpec(omega, doc["resolution"]), desc.pop("family"), **desc)
    q, d = load(fixtures / doc["symbol"]), RationalExponent.parse(doc["d"])
    rep = verify_iterate_bound(q, d, u, omega, doc["kmax"], doc["deltas"])
    amax = max(sum(case.params["alpha"]) for case in rep.cases)
    assert amax == doc["kmax"] * q.order * d.nu
    for delta in doc["deltas"]:
        sweep = derivative_norms(u, amax, omega, delta)
        for a in range(amax + 1):
            lhs = max(
                case.lhs for case in rep.cases
                if case.params["delta"] == delta and sum(case.params["alpha"]) == a
            )
            assert lhs == sweep.norms[a]


def test_iterate_bound_rejects_an_empty_fixture_list(heat_symbol, small_box):
    with pytest.raises(ValueError, match="fixture list is empty"):
        verify_iterate_bound(heat_symbol, RationalExponent(2, 1), [], small_box, 2, [0.1])


def test_dominated_transfer_rejects_an_empty_fixture_list(laplacian, small_box):
    with pytest.raises(ValueError, match="fixture list is empty"):
        verify_dominated_transfer(laplacian, laplacian, RationalExponent(1, 1), [], small_box, 0.25)


def test_iterate_bound_rejects_wrong_exponent(heat_symbol, small_box):
    spec = GridSpec(small_box, 64)
    u = gaussian_bump(spec, 0.1)
    with pytest.raises(PreconditionError) as err:
        verify_iterate_bound(heat_symbol, RationalExponent(1, 1), u, small_box, 2, [0.1])
    assert err.value.name == "exponent-consistency"


def test_iterate_bound_rejects_no_shrink_distance(heat_symbol, small_box):
    u = gaussian_bump(GridSpec(small_box, 64), 0.1)
    with pytest.raises(ValueError, match=r"shrink distances must be one or more, each > 0, got \[\]"):
        verify_iterate_bound(heat_symbol, RationalExponent(2, 1), u, small_box, 2, [])


@pytest.mark.parametrize("resolutions", [(64, 16), (16, 64)])
def test_iterate_bound_checks_the_resolution_of_every_fixture(heat_symbol, small_box, resolutions):
    """Order 10 needs 20 nodes per axis: the 16^2 fixture is rejected wherever it stands in the list."""
    fixtures = [gaussian_bump(GridSpec(small_box, n), 0.1) for n in resolutions]
    with pytest.raises(PreconditionError) as err:
        verify_iterate_bound(heat_symbol, RationalExponent(2, 1), fixtures, small_box, 5, [0.1])
    assert err.value.name == "spectral-resolution"
    assert "resolution 16" in str(err.value)


# -- growth fits ---------------------------------------------------------------------------


def test_vector_fit_zero_fixture_sentinel(laplacian, wide_box):
    spec = GridSpec(wide_box, 64)
    fit = fit_roumieu_vector(zero_function(spec), laplacian, gevrey(1), wide_box, 0.05, 4)
    assert fit.constant == 0.0
    assert fit.log_residuals == [None] * 5
    assert fit.slope == 0.0 and fit.residual_tail_slope == 0.0


def test_vector_fit_eigenmode_closed_form(laplacian, wide_box):
    spec = GridSpec(wide_box, 64)
    k = (2, 2)
    u = plane_wave(spec, k)
    lam = abs(complex(laplacian(cell_frequency(spec, k))))
    base = restricted_l2(u, wide_box, 0.05)
    fit = fit_roumieu_vector(u, laplacian, gevrey(1), wide_box, 0.05, 5)
    expected_log_c = max(
        (l * math.log(lam) + math.log(base) - log_factorial(2 * l)) / (l + 1) for l in range(6)
    )
    assert math.log(fit.constant) == pytest.approx(expected_log_c, abs=1e-9)


def test_vector_fit_eigenmode_targets_outgrow_norms(laplacian, wide_box):
    # for an eigenmode the norm increment per step is the constant log |Q(k)|,
    # while the factorial target increment log((2l+1)(2l+2)) keeps growing
    spec = GridSpec(wide_box, 64)
    u = plane_wave(spec, (2, 1))
    fit = fit_roumieu_vector(u, laplacian, gevrey(1), wide_box, 0.05, 5)
    seq = gevrey(1)
    lam = abs(complex(laplacian(cell_frequency(spec, (2, 1)))))
    for l in range(3, 5):
        dy = math.log(fit.norms[l + 1]) - math.log(fit.norms[l])
        dx = seq.log_m(2 * (l + 1)) - seq.log_m(2 * l)
        assert dy == pytest.approx(math.log(lam), rel=5e-3)
        assert dy <= dx


def test_vector_fit_bump_residuals_fall_at_tail(laplacian, wide_box):
    # the factorial target wins in the residual sense: slack toward the tail
    spec = GridSpec(wide_box, 128)
    u = gaussian_bump(spec, 0.1)
    fit = fit_roumieu_vector(u, laplacian, gevrey(1), wide_box, 0.05, 6)
    usable = [l for l, r, f in zip(fit.labels, fit.log_residuals, fit.flagged) if r is not None and not f]
    assert {3, 4} <= set(usable)
    assert fit.residual_tail_slope <= 1e-9


def test_vector_fit_unimodular_invariance(laplacian, wide_box):
    spec = GridSpec(wide_box, 64)
    u = gaussian_bump(spec, 0.1)
    phase = complex(math.cos(0.7), math.sin(0.7))
    a = fit_roumieu_vector(u, laplacian, gevrey(1), wide_box, 0.05, 4)
    b = fit_roumieu_vector(u * phase, laplacian, gevrey(1), wide_box, 0.05, 4)
    assert b.constant == pytest.approx(a.constant, rel=1e-12)


def test_vector_fit_scaling_moves_constant_boundedly(laplacian, wide_box):
    spec = GridSpec(wide_box, 64)
    u = gaussian_bump(spec, 0.1)
    a = fit_roumieu_vector(u, laplacian, gevrey(1), wide_box, 0.05, 4)
    c = 2.0
    b = fit_roumieu_vector(u * c, laplacian, gevrey(1), wide_box, 0.05, 4)
    arg_a = max(
        (l for l, r, f in zip(a.labels, a.log_residuals, a.flagged) if r is not None and not f),
        key=lambda l: a.log_residuals[l],
    )
    arg_b = max(
        (l for l, r, f in zip(b.labels, b.log_residuals, b.flagged) if r is not None and not f),
        key=lambda l: b.log_residuals[l],
    )
    assert arg_a == arg_b
    assert b.constant == pytest.approx(a.constant * c ** (1.0 / (arg_a + 1)), rel=1e-9)


def test_space_fit_uses_powered_targets(wide_box):
    spec = GridSpec(wide_box, 64)
    u = gaussian_bump(spec, 0.15)
    f1 = fit_roumieu_space(u, gevrey(1), 2.0, wide_box, 0.05, 6)
    f2 = fit_roumieu_space(u, gevrey(2), 1.0, wide_box, 0.05, 6)
    assert f1.constant == pytest.approx(f2.constant, rel=1e-12)


# -- growth chain -----------------------------------------------------------------------


def test_growth_chain_laplacian_passes(laplacian, wide_box):
    spec = GridSpec(wide_box, 128)
    u = gaussian_bump(spec, 0.1)
    rep = verify_growth_chain(
        u, laplacian, gevrey(1), RationalExponent(1, 1), wide_box, 0.05, 6, 12
    )
    assert rep.verdict == "pass"
    assert rep.vector_fit.residual_tail_slope <= 1e-9
    assert rep.space_fit.residual_tail_slope <= 1e-9


def test_growth_chain_eigenmode_passes(laplacian, wide_box):
    spec = GridSpec(wide_box, 64)
    u = plane_wave(spec, (2, 1))
    assert abs(complex(laplacian(cell_frequency(spec, (2, 1))))) >= 1.0
    rep = verify_growth_chain(
        u, laplacian, gevrey(1), RationalExponent(1, 1), wide_box, 0.05, 5, 8
    )
    assert rep.verdict == "pass"


def test_growth_chain_heat_with_gevrey2(heat_symbol, wide_box):
    # d = 2 needs a sequence dominating (p!)^2; gevrey(2) is the tight choice
    spec = GridSpec(wide_box, 128)
    u = gaussian_bump(spec, 0.1)
    rep = verify_growth_chain(
        u, heat_symbol, gevrey(2), RationalExponent(2, 1), wide_box, 0.05, 4, 8
    )
    assert rep.verdict == "pass"


def test_growth_chain_factorial_inclusion_precondition(laplacian, heat_symbol, wide_box):
    spec = GridSpec(wide_box, 64)
    u = gaussian_bump(spec, 0.1)
    with pytest.raises(PreconditionError) as err:
        verify_growth_chain(u, heat_symbol, gevrey(1), RationalExponent(2, 1), wide_box, 0.05, 4, 8)
    assert err.value.name == "factorial-inclusion"


def test_growth_chain_sequence_precondition(laplacian, wide_box):
    spec = GridSpec(wide_box, 64)
    u = gaussian_bump(spec, 0.1)
    bad = TableSequence([1.0] * 100)
    with pytest.raises(PreconditionError) as err:
        verify_growth_chain(u, laplacian, bad, RationalExponent(1, 1), wide_box, 0.05, 4, 8)
    assert err.value.name == "sequence-conditions"


def test_growth_chain_exponent_precondition(laplacian, wide_box):
    spec = GridSpec(wide_box, 64)
    u = gaussian_bump(spec, 0.1)
    with pytest.raises(PreconditionError) as err:
        verify_growth_chain(u, laplacian, gevrey(3), RationalExponent(3, 1), wide_box, 0.05, 4, 8)
    assert err.value.name == "exponent-consistency"


# -- domination ---------------------------------------------------------------------------


def domination_fixture(resolution):
    region = BoxDomain((-1.0, -1.0), (1.0, 1.0))
    spec = GridSpec(region, resolution)
    u = gaussian_bump(spec, 0.15, support=BoxDomain((-0.9, -0.9), (0.9, 0.9)))
    return region, u


def test_domination_constant_coefficients_gives_one(laplacian):
    region, u = domination_fixture(64)
    op = VariableOperator(2, {(2, 0): 1.0, (0, 2): 1.0}, region)
    rep = verify_domination(op, (0.0, 0.0), u, 3, region)
    assert rep.verdict == "pass"
    assert rep.fitted_constant == pytest.approx(1.0, abs=1e-10)


def test_domination_zero_fixture_vacuous(drift_operator):
    region = drift_operator.domain
    spec = GridSpec(region, 64)
    rep = verify_domination(drift_operator, (0.0, 0.0), zero_function(spec), 2, region)
    assert rep.verdict == "pass"
    assert rep.fitted_constant == 0.0


def test_checks_reject_a_shrink_distance_that_empties_the_region(laplacian, heat_symbol, drift_operator, wide_box,
                                                                 small_box):
    # a shrunk box without a grid node compares nothing, so it must not pass vacuously
    spec = GridSpec(wide_box, 64)
    u = gaussian_bump(spec, 0.1)
    runs = [
        lambda: verify_domination(drift_operator, (0.0, 0.0), u, 2, wide_box, delta=5.0),
        lambda: verify_growth_chain(u, laplacian, gevrey(1), RationalExponent(1, 1), wide_box, 5.0, 3, 4),
        # prop31 needs a box of diameter below 1
        lambda: verify_iterate_bound(heat_symbol, RationalExponent(2, 1), u, small_box, 1, [0.05, 5.0]),
    ]
    for call in runs:
        with pytest.raises(PreconditionError, match="distance 5.0") as err:
            call()
        assert err.value.name == "empty-region"


def test_domination_drift_operator_stable(drift_operator):
    consts = {}
    for res in (64, 128):
        region, u = domination_fixture(res)
        rep = verify_domination(drift_operator, (0.0, 0.0), u, 3, region)
        assert rep.verdict == "pass"
        assert math.isfinite(rep.fitted_constant)
        consts[res] = rep.fitted_constant
    assert abs(consts[128] - consts[64]) <= 0.3 * consts[64]


def test_domination_rejects_degenerate_operator():
    x1 = SymbolPolynomial.variable(1, 0)
    op = VariableOperator(1, {(2,): x1}, BoxDomain((-1.0,), (1.0,)))
    spec = GridSpec(op.domain, 64)
    u = gaussian_bump(spec, 0.15, support=BoxDomain((-0.9,), (0.9,)))
    with pytest.raises(PreconditionError) as err:
        verify_domination(op, (0.5,), u, 2, op.domain)
    assert err.value.name == "constant-strength"


def test_case_margins_match_stored_sides(laplacian, heat_symbol, small_box, drift_operator):
    # the report contract: margin is exactly rhs - lhs on the stored fields
    spec = GridSpec(small_box, 64)
    u = gaussian_bump(spec, 0.1)
    reports = [
        verify_dominated_transfer(
            laplacian, SymbolPolynomial(2, {(1, 0): 1.0}), RationalExponent(1, 1), u, small_box, 0.25
        ),
        verify_iterate_bound(heat_symbol, RationalExponent(2, 1), u, small_box, 2, [0.1]),
    ]
    region, ud = domination_fixture(64)
    reports.append(verify_domination(drift_operator, (0.0, 0.0), ud, 2, region))
    for rep in reports:
        for case in rep.cases:
            assert case.margin == pytest.approx(case.rhs - case.lhs, rel=1e-12, abs=1e-300)


def test_domination_rejects_unsupported_fixture(drift_operator):
    region = drift_operator.domain
    cell = BoxDomain((-2.0, -2.0), (2.0, 2.0))
    spec = GridSpec(cell, 64)
    u = gaussian_bump(spec, 0.3, support=cell.scaled(0.9))
    with pytest.raises(PreconditionError) as err:
        verify_domination(drift_operator, (0.0, 0.0), u, 2, cell)
    assert err.value.name == "fixture-support"


@pytest.mark.parametrize("width", [0.13, 0.15, 0.16, 0.165])
def test_domination_accepts_fixture_inside_domain(drift_operator, width):
    # the outside mass is summed over outside nodes, not taken as sqrt(total^2 - inside^2)
    region = BoxDomain((-1.0, -1.0), (1.0, 1.0))
    u = gaussian_bump(GridSpec(region, 128), width, support=BoxDomain((-0.9, -0.9), (0.9, 0.9)))
    rep = verify_domination(drift_operator, (0.0, 0.0), u, 1, region)
    assert rep.verdict == "pass"


# -- one fit for the three checks --------------------------------------------------------


def _packaged(check: str):
    """The packaged verify config of a check: its document, region, grid fixtures and symbols."""
    fixtures = resources.files("hypoel") / "fixtures"
    doc = json.loads((fixtures / f"verify_{check}.json").read_text())
    omega = BoxDomain.from_dict(doc["omega" if "omega" in doc else "region"])
    descs = doc["fixtures"] if "fixtures" in doc else [doc["fixture"]]
    spec = GridSpec(omega, doc["resolution"])
    us = [sample(spec, desc["family"], **{k: v for k, v in desc.items() if k != "family"}) for desc in descs]
    symbols = {k: load(fixtures / doc[k]) for k in ("symbol", "r_symbol", "operator") if k in doc}
    return doc, omega, us, symbols


def _rows(verdict, fitted, cases):
    """A check's outcome with every float as its exact bits."""
    return verdict, float(fitted).hex(), [tuple(float(v).hex() for v in c[:3]) + (c[3],) for c in cases]


def _report_rows(rep):
    return _rows(rep.verdict, rep.fitted_constant, [(c.lhs, c.rhs, c.margin, c.flagged) for c in rep.cases])


def _earlier_transfer_fit(pairs):
    """The dominated transfer's fit as it was written before the shared one, on (lhs, rhs_core) pairs."""
    worst_ratio = 0.0
    for lhs, rhs_core in pairs:
        if rhs_core > 0:
            worst_ratio = max(worst_ratio, lhs / rhs_core)
    verdict, cases = "pass", []
    for lhs, rhs_core in pairs:
        rhs = worst_ratio * rhs_core
        margin = rhs - lhs
        if margin < -MARGIN_REL_TOL * max(rhs, 1.0):
            verdict = "fail"
        cases.append((lhs, rhs, margin, False))
    return _rows(verdict, worst_ratio, cases)


def _earlier_domination_fit(triples, total):
    """The domination fit as it was written before the shared one, on (lhs, rhs, flagged) per l."""
    ratios, verdict = [], "pass"
    for l, (lhs, rhs, flagged) in enumerate(triples):
        if not flagged and l >= 1:
            if rhs > 0:
                ratios.append((lhs / rhs) ** (1.0 / l))
            elif lhs > 0:
                verdict = "fail"
    fitted = max(ratios, default=0.0 if total == 0.0 else 1.0)
    if total == 0.0:
        fitted = 0.0
    cases = []
    for l, (lhs, raw, flagged) in enumerate(triples):
        rhs = fitted**l * raw if l >= 1 else raw
        margin = rhs - lhs
        if not flagged and margin < -MARGIN_REL_TOL * max(rhs, 1.0):
            verdict = "fail"
        cases.append((lhs, rhs, margin, flagged))
    return _rows(verdict, fitted, cases)


def _earlier_iterate_fit(q, d, fixtures, omega, kmax, deltas):
    """The iterate bound's sums and fit as they were written before the shared one."""
    m = q.order
    alphas = multi_indices_up_to(q.dimension, kmax * m * d.nu)
    dm, gamma = d.value * m, d.gamma(m)
    ratios_statement, ratios_proof, case_data = [], [], []
    for u in fixtures:
        qsweep = estimates.iterate_norms(q, u, kmax, omega, 0.0)
        dsweep = _derivative_sweep(u, alphas, omega, deltas)
        for k in range(kmax + 1):
            for alpha in alphas:
                if sum(alpha) > k * m * d.nu:
                    continue
                d_flag, d_norms = dsweep[alpha]
                for dl, lhs in zip(deltas, d_norms):
                    flagged = d_flag or any(qsweep.flagged[i] for i in range(k + 1))
                    s_statement = s_proof = 0.0
                    for i in range(k + 1):
                        binom, qn = math.comb(k, i), qsweep.norms[i]
                        s_statement += binom * (k / dl) ** ((k - i) * dm) * qn
                        s_proof += binom * ((k + 1) / dl) ** ((k - i) * gamma) * qn
                    case_data.append((k, lhs, s_proof, flagged))
                    if flagged or k == 0:
                        continue
                    for s, ratios in ((s_proof, ratios_proof), (s_statement, ratios_statement)):
                        if s > 0:
                            ratios.append((lhs / s) ** (1.0 / k))
                        elif lhs > 0:
                            ratios.append(math.inf)
    fitted_proof = max(ratios_proof, default=0.0)
    fitted_statement = max(ratios_statement, default=0.0)
    verdict = "pass"
    if math.isinf(fitted_proof) or math.isinf(fitted_statement):
        verdict = "fail"
        fitted_proof = min(fitted_proof, 1e300)
    cases = []
    for k, lhs, s_proof, flagged in case_data:
        rhs = min(fitted_proof**k, 1e300) * s_proof
        margin = rhs - lhs
        if not flagged and margin < -MARGIN_REL_TOL * max(rhs, 1.0):
            verdict = "fail"
        cases.append((lhs, rhs, margin, flagged))
    return _rows(verdict, fitted_proof, cases), float(fitted_statement).hex()


def test_transfer_fit_matches_the_earlier_loop_bit_for_bit():
    doc, omega, us, sym = _packaged("p1")
    rep = verify_dominated_transfer(
        sym["symbol"], sym["r_symbol"], RationalExponent.parse(doc["d"]), us, omega, doc["t"]
    )
    assert rep.verdict == "pass" and len(rep.cases) == 3
    assert _report_rows(rep) == _earlier_transfer_fit([(c.lhs, c.params["rhs_core"]) for c in rep.cases])


def test_domination_fit_matches_the_earlier_loop_bit_for_bit():
    doc, region, (u,), sym = _packaged("domination")
    rep = verify_domination(sym["operator"], doc["x0"], u, doc["lmax"], region, doc["delta"])
    assert rep.verdict == "pass" and rep.fitted_constant != 1.0
    triples = [(c.lhs, c.params["rhs_core"], c.flagged) for c in rep.cases]
    assert _report_rows(rep) == _earlier_domination_fit(triples, u.l2_norm())


def _vanishing_iterates(monkeypatch, first=0, operator=None):
    """Make iterate_norms report zero norms from l = first on, for one operator or for every one."""
    real = estimates.iterate_norms

    def patched(op, u, lmax, region, delta=0.0):
        sweep = real(op, u, lmax, region, delta)
        if operator is None or op is operator:
            sweep.norms = sweep.norms[:first] + [0.0] * (lmax + 1 - first)
        return sweep

    monkeypatch.setattr(estimates, "iterate_norms", patched)


@pytest.mark.parametrize("vanishing", [False, True])
def test_iterate_fit_matches_the_earlier_loop_bit_for_bit(monkeypatch, vanishing):
    doc, omega, us, sym = _packaged("prop31")
    q, d = sym["symbol"], RationalExponent.parse(doc["d"])
    kmax = doc["kmax"]
    if vanishing:
        # the failing case: every right side vanishes; at k = 1 the earlier code still ran
        _vanishing_iterates(monkeypatch)
        kmax = 1
    rep = verify_iterate_bound(q, d, us, omega, kmax, doc["deltas"])
    earlier, statement = _earlier_iterate_fit(q, d, us, omega, kmax, doc["deltas"])
    assert _report_rows(rep) == earlier
    assert float(rep.extras["fitted_constant_statement_variant"]).hex() == statement
    assert rep.verdict == ("fail" if vanishing else "pass")


def test_iterate_bound_fails_at_the_cap_on_a_vanishing_right_side(monkeypatch, heat_symbol, small_box):
    # a vanishing right side under a nonzero left fits no constant; at kmax >= 2 the
    # earlier code raised OverflowError on 1e300**k
    _vanishing_iterates(monkeypatch)
    u = gaussian_bump(GridSpec(small_box, 128), 0.05)
    rep = verify_iterate_bound(heat_symbol, RationalExponent(2, 1), u, small_box, 2, [0.1])
    assert any(c.params["k"] == 2 and not c.flagged for c in rep.cases)
    assert rep.verdict == "fail"
    assert rep.fitted_constant == 1e300
    assert math.isinf(rep.extras["fitted_constant_statement_variant"])
    assert all(c.rhs == 0.0 and c.margin == -c.lhs for c in rep.cases)


def test_domination_fails_at_the_cap_on_a_vanishing_variable_iterate(monkeypatch, drift_operator):
    # the earlier code failed too, but reported the largest of the other ratios as the constant
    region, u = domination_fixture(64)
    _vanishing_iterates(monkeypatch, first=2, operator=drift_operator)
    rep = verify_domination(drift_operator, (0.0, 0.0), u, 3, region)
    assert rep.verdict == "fail"
    assert rep.fitted_constant == 1e300
    assert [c.rhs for c in rep.cases[2:]] == [0.0, 0.0]
    assert rep.cases[1].rhs == 1e300 * rep.cases[1].params["rhs_core"]


def test_iterate_bound_counts_terms_past_the_float_range_as_inf():
    # 6000**120 leaves the float range: such a right side is inf, binds no fit, and no NaN appears
    q = SymbolPolynomial(1, {(2,): 1.0, (0,): 1.0})
    omega = BoxDomain((-0.3,), (0.3,))
    u = gaussian_bump(GridSpec(omega, 512), 0.05)
    rep = verify_iterate_bound(q, RationalExponent(1, 1), u, omega, 60, [0.01])
    infinite = [c for c in rep.cases if c.rhs == math.inf]
    assert infinite and all(c.params["k"] >= 2 for c in infinite)
    assert math.isfinite(rep.fitted_constant)
    assert not any(math.isnan(v) for c in rep.cases for v in (c.lhs, c.rhs, c.margin))
