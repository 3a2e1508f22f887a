import math
import warnings
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoel import (
    HypoelError,
    ParseError,
    check_basic,
    fit_inclusion,
    fit_power_bound,
    gevrey,
    load_table,
    power_sequence,
)
from hypoel.sequences import GevreySequence, RoumieuSequence, TableSequence, log_factorial


def test_gevrey_values_order_one():
    m = gevrey(1)
    vals = [round(math.exp(m.log_m(p))) for p in range(5)]
    assert vals == [1, 1, 2, 6, 24]


def test_gevrey_order_two_cube():
    assert math.exp(gevrey(2).log_m(3)) == pytest.approx(36.0, rel=1e-12)


def test_gevrey_normalization():
    assert gevrey(1).log_m(0) == 0.0


def test_gevrey_rejects_small_order():
    with pytest.raises(ValueError):
        gevrey(0.5)


def test_table_requires_unit_start():
    with pytest.raises(ValueError):
        TableSequence([2.0, 3.0])
    with pytest.raises(ValueError):
        TableSequence([1.0, -1.0])


# -- check_basic -----------------------------------------------------------------


@pytest.mark.parametrize("s", [1, 2, 3])
def test_gevrey_passes_basic_conditions(s):
    rep = check_basic(gevrey(s), 60)
    assert rep.h1.passed
    assert rep.root_monotone.passed
    assert rep.h3_left.passed
    assert rep.h3_right_h <= 2**s + 1e-6


def test_fitted_h_is_max_binomial_root():
    # for factorials the two-sided stability ratio is exactly binom(p, j)
    rep = check_basic(gevrey(1), 60)
    expected = max(
        math.exp((log_factorial(p) - log_factorial(j) - log_factorial(p - j)) / p)
        for p in range(1, 61)
        for j in range(p + 1)
    )
    assert rep.h3_right_h == pytest.approx(expected, rel=1e-12)


def _stability_by_loop(m, pmax):
    """The (p, j) walk check_basic made before it used one table: (first h3_left failure, H)."""
    logs = [m.log_m(p) for p in range(pmax + 1)]
    first, worst_h = None, 0.0
    for p in range(1, pmax + 1):
        for j in range(p + 1):
            binom = log_factorial(p) - log_factorial(j) - log_factorial(p - j)
            if binom + logs[p - j] + logs[j] > logs[p] + 1e-9 and first is None:
                first = (p, j)
            worst_h = max(worst_h, (logs[p] - logs[p - j] - logs[j]) / p)
    return first, math.exp(worst_h)


def _random_table(seed, size):
    """(p!)^s with s in [1, 2], pushed down by a random amount per p: fails stability at varied (p, j)."""
    rng = np.random.default_rng(seed)
    p = np.arange(1, size + 1)
    logs = rng.uniform(1.0, 2.0) * np.array([log_factorial(k) for k in p]) - rng.exponential(0.05, size) * p
    return TableSequence([1.0, *np.exp(logs)])


@pytest.mark.parametrize(
    "m, pmax",
    [(gevrey(s), 200) for s in (1, 1.7, 2, 3.3)]
    + [(load_table(files("hypoel") / "fixtures" / "factorial_table.txt"), 20)]
    + [(_random_table(seed, 60), 60) for seed in range(5)],
)
def test_stability_table_matches_the_pair_loop_bit_for_bit(m, pmax):
    rep = check_basic(m, pmax)
    first, h = _stability_by_loop(m, pmax)
    assert rep.h3_left.first_failure == first
    assert rep.h3_left.passed == (first is None)
    assert rep.h3_right_h == h


def test_constant_table_fails_stability_left():
    rep = check_basic(TableSequence([1.0] * 61), 60)
    assert not rep.h3_left.passed
    assert rep.h3_left.first_failure == (2, 1)


def test_check_basic_requires_range():
    with pytest.raises(HypoelError):
        check_basic(TableSequence([1.0] * 10), 60)
    with pytest.raises(ValueError):
        check_basic(gevrey(1), 3)


# -- fit_power_bound ---------------------------------------------------------------


def test_power_bound_factorials_doubling():
    b = fit_power_bound(gevrey(1), 2, 1, 60)
    assert 3.4 <= b <= 4.0


def test_power_bound_identity_exponent():
    assert fit_power_bound(gevrey(1), 1, 1, 60) == pytest.approx(1.0, abs=1e-12)


def test_power_bound_scales_with_gevrey_order():
    b1 = fit_power_bound(gevrey(1), 2, 1, 60)
    b2 = fit_power_bound(gevrey(2), 2, 1, 60)
    assert b2 == pytest.approx(b1**2, rel=1e-9)


def test_power_bound_rational_exponent_tests_multiples():
    # m = 3/2: only even p are tested; sanity: finite and >= 1
    b = fit_power_bound(gevrey(1), 3, 2, 60)
    assert b >= 1.0 and math.isfinite(b)


def test_power_bound_rejects_large_denominator():
    with pytest.raises(HypoelError):
        fit_power_bound(gevrey(1), 61, 60, 30)


def test_power_bound_rejects_m_below_one():
    with pytest.raises(ValueError):
        fit_power_bound(gevrey(1), 1, 2, 60)


def _factorial_table_with_nan_at(p_nan: int) -> TableSequence:
    return TableSequence([math.nan if p == p_nan else float(math.factorial(p)) for p in range(171)])


def test_power_bound_names_a_nan_log_it_reads():
    # p = 100 is read as p*m for p = 50; max() over the ratios would drop its NaN and fit the clean table's B
    with pytest.raises(HypoelError, match="at p=100 is nan"):
        fit_power_bound(_factorial_table_with_nan_at(100), 2, 1, 60)


class _CountingGevrey(GevreySequence):
    def __init__(self, s: float):
        super().__init__(s)
        self.reads = 0

    def log_m(self, p: int) -> float:
        self.reads += 1
        return super().log_m(p)


def test_power_bound_reads_two_logs_per_tested_p():
    # the fit of seq-check --power-m 1000 --pmax 1000: log M_p and log M_(1000 p), not every index up to 10^6
    m = _CountingGevrey(1.0)
    fit_power_bound(m, 1000, 1, 1000)
    assert m.reads == 2000


# -- fit_inclusion -------------------------------------------------------------------


def test_inclusion_factorial_in_square():
    fit = fit_inclusion(gevrey(1), gevrey(2))
    assert fit.holds
    assert fit.L == pytest.approx(1.0)
    assert fit.C == pytest.approx(1.0)


def test_inclusion_square_in_factorial_diverges():
    fit = fit_inclusion(gevrey(2), gevrey(1))
    assert not fit.holds
    assert fit.witness_p is not None


def test_inclusion_reflexive():
    fit = fit_inclusion(gevrey(2), gevrey(2))
    assert fit.holds and fit.L == pytest.approx(1.0) and fit.C == pytest.approx(1.0)


def test_inclusion_monotone_in_power():
    # if M in N holds and N_p >= 1, then M in N^d holds for d >= 1
    for d in (1.0, 1.5, 2.0):
        assert fit_inclusion(gevrey(1), power_sequence(gevrey(2), d)).holds


ORDERS = (1.0, 1.01, 1.5, 2.0)


@pytest.mark.parametrize("s", ORDERS)
@pytest.mark.parametrize("t", ORDERS)
def test_gevrey_inclusion_holds_exactly_when_s_at_most_t(s, t):
    fit = fit_inclusion(gevrey(s), gevrey(t), 60)
    assert fit.holds == (s <= t)
    assert fit.tail_slope == pytest.approx(s - t, abs=1e-9)  # the increments (s - t) log p
    if fit.holds:
        assert fit.L == 1.0 and fit.C == 1.0


def _factorials_times(a):
    return TableSequence([a**p * math.factorial(p) for p in range(61)])


def test_inclusion_holds_up_to_a_geometric_factor():
    fit = fit_inclusion(_factorials_times(3.0), gevrey(1), 60)
    assert fit.holds and abs(fit.L - 3.0) < 1e-9 and abs(fit.C - 1.0) < 1e-9
    fit = fit_inclusion(gevrey(1), _factorials_times(0.5), 60)
    assert fit.holds and abs(fit.L - 2.0) < 1e-9 and abs(fit.C - 1.0) < 1e-9


class _Geometric(RoumieuSequence):
    """a^p M_p."""

    def __init__(self, base, a):
        self.base, self.log_a = base, math.log(a)

    def log_m(self, p):
        return self.base.log_m(p) + p * self.log_a


# (M, N, whether the largest tail increment of log(M_p/N_p) is log L itself, not below the floor L >= 1)
GEOMETRIC_PAIRS = [
    (gevrey(1), gevrey(1), True),
    (gevrey(1.5), gevrey(1.5), True),
    (_factorials_times(3.0), gevrey(1), True),
    (gevrey(1), _factorials_times(0.5), True),
    (gevrey(1), gevrey(2), False),
    (gevrey(2), gevrey(1), False),
    (gevrey(1.01), gevrey(1), False),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GEOMETRIC_PAIRS), st.floats(0.1, 10.0), st.floats(0.1, 10.0))
def test_inclusion_verdict_ignores_geometric_factors(pair, a, b):
    m, n, tight = pair
    fit = fit_inclusion(m, n, 60)
    scaled = fit_inclusion(_Geometric(m, a), _Geometric(n, b), 60)
    assert scaled.holds == fit.holds
    if tight:
        assert scaled.L == pytest.approx(max(1.0, fit.L * a / b), rel=1e-9)


@pytest.mark.parametrize(
    "m, p, power_bound_reads_p",
    [
        # "1e400" in a table file; M_(2p) <= B^p (M_p)^2 over p <= 3 reads p = 1, 2, 3, 4, 6
        pytest.param(TableSequence([1.0, 1.0, 2.0, 6.0, 24.0, math.inf, 720.0]), 5, False, id="m0-5"),
        # log M_2 = 1.4e308 is finite, twice it is not
        pytest.param(power_sequence(gevrey(2), 1e308), 2, True, id="m1-2"),
        pytest.param(gevrey(1e307), 2, True, id="m2-2"),
    ],
)
def test_logs_not_finite_or_past_the_limit_are_rejected_naming_p(m, p, power_bound_reads_p):
    checks = [
        lambda: check_basic(m, 6),
        lambda: fit_inclusion(m, gevrey(1), 6),
        lambda: fit_inclusion(gevrey(1), m, 6),
    ]
    if power_bound_reads_p:
        checks.append(lambda: fit_power_bound(m, 2, 1, 6))
    for check in checks:
        with pytest.raises(HypoelError, match=f"at p={p} "):
            check()


def test_log_limit_admits_the_order_1e300_to_p_1000_without_a_warning():
    m = gevrey(1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_basic(m, 1000).h3_right_h == math.inf
        assert not fit_inclusion(m, gevrey(1), 1000).holds
        assert fit_inclusion(gevrey(1), m, 1000).holds


# -- power_sequence -------------------------------------------------------------------


def test_power_of_gevrey_is_gevrey():
    ps = power_sequence(gevrey(1.5), 2.0)
    g3 = gevrey(3.0)
    for p in range(0, 40, 7):
        assert ps.log_m(p) == pytest.approx(g3.log_m(p), rel=1e-12, abs=1e-12)


def test_power_one_is_identity_evaluator():
    m = gevrey(2)
    ps = power_sequence(m, 1.0)
    for p in (0, 5, 17):
        assert ps.log_m(p) == m.log_m(p)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(1.0, 4.0, allow_nan=False),
    st.floats(0.25, 3.0, allow_nan=False),
    st.floats(0.25, 3.0, allow_nan=False),
)
def test_power_composition(s, d1, d2):
    m = gevrey(s)
    lhs = power_sequence(m, d1 * d2)
    rhs = power_sequence(power_sequence(m, d2), d1)
    for p in (1, 7, 23):
        assert lhs.log_m(p) == pytest.approx(rhs.log_m(p), rel=1e-12)


def test_power_rejects_nonpositive():
    with pytest.raises(ValueError):
        power_sequence(gevrey(1), 0.0)


def test_fitted_constants_past_the_float_range_read_inf():
    # each fitted log constant here is past log(DBL_MAX) ~ 709.8; its exp is inf, not an OverflowError
    assert fit_power_bound(gevrey(1000), 2, 1, 60) == math.inf
    assert check_basic(gevrey(1e300), 60).h3_right_h == math.inf
    # M_p = p! 1e-310 from p = 1 on: the inclusion constant of p! in M, max p!/M_p, is about e^713.8
    tiny = TableSequence([1.0] + [math.factorial(p) * 1e-310 for p in range(1, 21)])
    inc = fit_inclusion(gevrey(1), tiny, 20)
    assert inc.holds and inc.C == math.inf and math.isfinite(inc.L)


# -- root monotonicity consequences ---------------------------------------------------------


@pytest.mark.parametrize("s", [1.0, 2.0, 2.5])
def test_root_monotone_implies_interpolation_bound(s):
    # M_h <= (M_p)^(h/p) for h <= p, in log domain
    m = gevrey(s)
    logs = [m.log_m(p) for p in range(61)]
    for p in range(1, 61):
        for h in range(p + 1):
            assert p * logs[h] <= h * logs[p] + 1e-9


def test_log_domain_handles_large_pmax():
    m = gevrey(5)
    rep = check_basic(m, 500)
    assert rep.h1.passed and math.isfinite(rep.h3_right_h)
    assert fit_inclusion(gevrey(1), m, 500).holds


# -- table loading ------------------------------------------------------------------------


def test_load_table_round_trip(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("# comment\n0 1.0\n1 1.0\n2 2.0\n3 6.0\n")
    seq = load_table(path)
    assert seq.max_index() == 3
    assert math.exp(seq.log_m(3)) == pytest.approx(6.0)


def test_load_table_bad_index_order(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("0 1.0\n2 2.0\n")
    with pytest.raises(ParseError):
        load_table(path)


def test_load_table_bad_value(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("0 1.0\n1 abc\n")
    with pytest.raises(ParseError):
        load_table(path)
