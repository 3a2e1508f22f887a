import json
import math
from importlib import resources

import pytest

from hypoel import (
    BoxDomain,
    GridSpec,
    PreconditionError,
    RationalExponent,
    SymbolPolynomial,
    VariableOperator,
    derivative_norms,
    fit_roumieu_space,
    fit_roumieu_vector,
    gaussian_bump,
    gevrey,
    plane_wave,
    restricted_l2,
    sample,
    verify_dominated_transfer,
    verify_domination,
    verify_growth_chain,
    verify_iterate_bound,
    zero_function,
)
from hypoel.grids import cell_frequency
from hypoel.sequences import TableSequence, log_factorial
from hypoel.symbols import load


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
    assert RationalExponent.parse("3/2") == RationalExponent(3, 2)
    assert RationalExponent.parse("2") == RationalExponent(2, 1)
    assert RationalExponent.parse(1.5) == RationalExponent(3, 2)


def test_rational_exponent_below_one_rejected():
    with pytest.raises(ValueError):
        RationalExponent(1, 2)


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
    rep = verify_dominated_transfer(
        laplacian, laplacian, RationalExponent(1, 1), u, big, 0.25, enforce_diameter=False
    )
    assert rep.verdict == "pass"


# -- iterate bound -----------------------------------------------------------------------


def test_iterate_bound_k0_reduces_to_restriction(heat_symbol, small_box):
    spec = GridSpec(small_box, 64)
    u = gaussian_bump(spec, 0.1)
    rep = verify_iterate_bound(
        heat_symbol, RationalExponent(2, 1), u, small_box, 0, [0.05, 0.1], check_exponent=False
    )
    assert rep.verdict == "pass"
    assert all(c.margin >= 0 for c in rep.cases)
    assert rep.fitted_constant == 0.0


def test_iterate_bound_zero_fixture(heat_symbol, small_box):
    spec = GridSpec(small_box, 64)
    rep = verify_iterate_bound(
        heat_symbol, RationalExponent(2, 1), zero_function(spec), small_box, 2, [0.1],
        check_exponent=False,
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


def test_iterate_bound_rejects_wrong_exponent(heat_symbol, small_box):
    spec = GridSpec(small_box, 64)
    u = gaussian_bump(spec, 0.1)
    with pytest.raises(PreconditionError) as err:
        verify_iterate_bound(heat_symbol, RationalExponent(1, 1), u, small_box, 2, [0.1])
    assert err.value.name == "exponent-consistency"


# -- growth fits ---------------------------------------------------------------------------


def test_vector_fit_zero_fixture_sentinel(laplacian, wide_box):
    spec = GridSpec(wide_box, 64)
    fit = fit_roumieu_vector(zero_function(spec), laplacian, gevrey(1), wide_box, 0.05, 4)
    assert fit.constant == 0.0


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
    assert fit.residual_tail_slope() <= 1e-9


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
    assert rep.vector_fit.residual_tail_slope() <= 1e-9
    assert rep.space_fit.residual_tail_slope() <= 1e-9


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
        verify_growth_chain(u, laplacian, bad, RationalExponent(1, 1), wide_box, 0.05, 4, 8, pmax=60)
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
