import math

import numpy as np
import pytest

from hypoel import (
    OnePlusNorm,
    PairSampleConfig,
    PowerWeight,
    PreconditionError,
    StrengthWeight,
    SymbolPolynomial,
    fit_temperate,
    h_delta,
    verify_ball_sup_sandwich,
)
from hypoel import symbols, weights
from hypoel.weights import C_GRID, FIT_RESIDUAL_TOL, WeightFunction, _residuals, _unit_ball_template, sample_pairs


def constant_weight(n, c):
    """The degree-0 weight h = c: the strength function of the constant symbol c."""
    return StrengthWeight(SymbolPolynomial.constant(n, c))


@pytest.fixture
def one_plus_norm():
    return OnePlusNorm(2)


@pytest.fixture
def strength_weight(laplacian):
    return StrengthWeight(laplacian)


# -- fit_temperate -----------------------------------------------------------------


def test_constant_weight_fit():
    fit = fit_temperate(constant_weight(2, 1.0))
    assert fit.success
    assert fit.n_exp == 0.0
    assert fit.c == 0.0


def test_one_plus_norm_fit(one_plus_norm):
    fit = fit_temperate(one_plus_norm)
    assert fit.success
    assert (fit.c, fit.n_exp) == (1.0, 1.0)
    # triangle inequality oracle: the fitted pair satisfies every sample
    xi, eta = sample_pairs(2, PairSampleConfig())
    lhs = 1.0 + np.linalg.norm(xi + eta, axis=1)
    rhs = (1.0 + np.linalg.norm(eta, axis=1)) * (1.0 + np.linalg.norm(xi, axis=1))
    assert np.all(lhs <= rhs * (1 + 1e-12))


def test_strength_weight_fit(strength_weight, laplacian):
    fit = fit_temperate(strength_weight)
    assert fit.success
    assert fit.n_exp <= 2 * laplacian.order


def test_power_weight_satisfies_scaled_constants(one_plus_norm):
    base_fit = fit_temperate(one_plus_norm)
    xi, eta = sample_pairs(2, PairSampleConfig())
    for j in (2, 3):
        powered = PowerWeight(one_plus_norm, j)
        res = _residuals(powered, xi, eta)(base_fit.c, j * base_fit.n_exp)
        assert float(res.max()) <= 1e-9
        assert fit_temperate(powered).success


class ExpNorm(WeightFunction):
    """exp(|xi|), which no (C, N) makes temperate."""

    def __init__(self, dimension: int):
        self.dimension = dimension
        self.degree = 1.0

    def __call__(self, xi):
        return np.exp(np.linalg.norm(np.asarray(xi, dtype=float), axis=-1))


def _fit_by_reevaluation(h, cfg=None):
    """fit_temperate as it was first written: h evaluated on the pairs again for every (N, C)."""
    cfg = cfg or PairSampleConfig()
    xi, eta = sample_pairs(h.dimension, cfg)
    n_grid = np.arange(0.0, 2.0 * h.degree + 0.25, 0.5) if h.degree > 0 else np.array([0.0])
    worst = None
    for n_exp in n_grid:
        for c in C_GRID:
            log_h_shift = np.log(h(xi + eta))
            log_h = np.log(h(xi))
            res = log_h_shift - float(n_exp) * np.log1p(c * np.linalg.norm(eta, axis=-1)) - log_h
            peak = float(res.max())
            if worst is None or peak < worst[0]:
                i = int(res.argmax())
                worst = (peak, {"xi": xi[i].tolist(), "eta": eta[i].tolist(), "residual": peak})
            if peak <= FIT_RESIDUAL_TOL:
                return True, float(c), float(n_exp), peak, None
    return False, None, None, worst[0], worst[1]


def test_fit_matches_the_per_candidate_reevaluation_bit_for_bit(laplacian):
    cases = [constant_weight(2, 2.0), OnePlusNorm(1), OnePlusNorm(3), StrengthWeight(laplacian),
             PowerWeight(StrengthWeight(SymbolPolynomial(1, {(3,): 1.0, (1,): 2.0})), 2), ExpNorm(2)]
    for h in cases:
        for cfg in (PairSampleConfig(), PairSampleConfig(seed=5)):
            fit = fit_temperate(h, cfg)
            got = (fit.success, fit.c, fit.n_exp, fit.residual, fit.worst_pair)
            assert repr(got) == repr(_fit_by_reevaluation(h, cfg))
    assert not fit_temperate(ExpNorm(2)).success


# -- h_delta ------------------------------------------------------------------------


def _h_delta_by_hand(h, delta, pts):
    """h_delta's first loop: powers searched with their base's scores (then `ascent_score`)."""
    score = h.base if isinstance(h, PowerWeight) else h
    offsets = _unit_ball_template(h.dimension) * delta
    scores = score(pts[:, None, :] + offsets[None, :, :])
    best_idx = np.argmax(scores, axis=1)
    best_pts = pts + offsets[best_idx]
    best_score = scores[np.arange(len(pts)), best_idx]
    step = np.full(len(pts), 0.25 * delta)
    for _ in range(32):
        grad = h.gradient(best_pts)
        gn = np.linalg.norm(grad, axis=1, keepdims=True)
        gn = np.where(gn == 0, 1.0, gn)
        cand = best_pts + step[:, None] * grad / gn
        rel = cand - pts
        dist = np.linalg.norm(rel, axis=1, keepdims=True)
        cand = np.where(dist > delta, pts + rel * (delta / np.maximum(dist, 1e-300)), cand)
        s_cand = score(cand)
        better = s_cand > best_score
        best_pts = np.where(better[:, None], cand, best_pts)
        best_score = np.where(better, s_cand, best_score)
        step = np.where(better, step, step * 0.5)
    return h(best_pts)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_h_delta_matches_its_first_loop_bit_for_bit(n):
    rng = np.random.default_rng(n)
    strengths = [
        StrengthWeight(SymbolPolynomial(n, {(2,) + (0,) * (n - 1): 1.0, (0,) * (n - 1) + (1,): 1j})),
        StrengthWeight(SymbolPolynomial(n, {(1,) * n: 2.0, (0,) * n: -1.5, (3,) + (0,) * (n - 1): 0.5})),
    ]
    cases = [OnePlusNorm(n), constant_weight(n, 2.5), *strengths, PowerWeight(strengths[0], 3)]
    pts = rng.standard_normal((30, n)) * 4.0
    for h in cases:
        for delta in (0.1, 0.7, 2.0):
            assert h_delta(h, delta, pts).tobytes() == _h_delta_by_hand(h, delta, pts).tobytes()
            assert h_delta(h, delta, pts[3]) == _h_delta_by_hand(h, delta, pts[3:4])[0]


def test_sandwich_searches_once(monkeypatch, strength_weight):
    calls, search = [], weights.ascend

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(weights, "ascend", counted)
    rep = verify_ball_sup_sandwich(strength_weight, delta=0.7, j=4)
    assert len(calls) == 1
    assert rep.passed and rep.power_identity_residual == 0.0


def test_h_delta_evaluates_each_derivative_once_per_point_and_step(monkeypatch):
    h = StrengthWeight(SymbolPolynomial(2, {(2, 0): 1.0, (1, 1): 0.5, (0, 2): 2.0, (0, 1): 1j, (0, 0): 1.0}))
    derivatives = [dq for _, dq in h.symbol.nonzero_derivatives]
    points = dict.fromkeys(map(id, derivatives), 0)
    family_calls, family_polys, evaluate = [], [], symbols._evaluate

    def counted(polys, xi):
        polys = list(polys)
        if polys == h._family:
            family_calls.append(len(xi))
            family_polys.append(polys)
        for p in polys:
            if id(p) in points:
                points[id(p)] += len(xi.reshape(-1, 2))
        return evaluate(polys, xi)

    monkeypatch.setattr(symbols, "_evaluate", counted)
    monkeypatch.setattr(weights, "_evaluate", counted)
    pts = np.random.default_rng(4).standard_normal((10, 2)) * 3.0
    h_delta(h, 0.5, pts)
    # one value-and-gradient evaluation for the starts and one per ascent step
    assert family_calls == [10] * 33
    # d_k d^alpha Q = d^(alpha + e_k) Q: the 6 nonzero gradient members are derivatives, evaluated once
    # with them; 6 derivatives and the 6 zero gradient members are 12 polynomials, not 18
    for polys in family_polys:
        assert len(polys) == 12 and [p for p in polys if not p.is_zero] == derivatives
    # besides them only the ball samples; nothing is evaluated again, the maximizers' values included
    assert set(points.values()) == {10 * (len(_unit_ball_template(2)) + 33)}


@pytest.mark.parametrize(
    "n, terms",
    [
        (2, {(2, 0): 1.0, (1, 1): 0.5, (0, 2): 2.0, (0, 1): 1j, (0, 0): 1.0}),
        (2, {(6, 0): 0.1, (0, 3): 0.3, (1, 0): 1.0}),  # 5 * (6 * 0.1) != 30 * 0.1: a member that is not shared
        (3, {(2, 1, 0): -0.7 + 0.2j, (0, 0, 4): 1 / 3, (1, 1, 1): 2.5, (0, 0, 0): -1j}),
    ],
)
def test_strength_gradient_is_that_of_every_member_evaluated_alone(n, terms):
    h = StrengthWeight(SymbolPolynomial(n, terms))
    # points past the float range, where a derivative is not finite and the gradient is NaN, included
    xi = np.concatenate([np.random.default_rng(2).standard_normal((40, n)) * 5.0, np.full((2, n), 1e160)])
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.zeros(xi.shape)
        for _, dq in h.symbol.nonzero_derivatives:
            for k, e in enumerate(np.eye(n, dtype=int)):
                want[:, k] += np.real(np.conj(dq(xi)) * dq.derive(tuple(e))(xi))
        want /= np.maximum(h.symbol.strength(xi), 1e-300)[:, None]
        got = h.gradient(xi)
    assert np.isnan(got[-1]).all() and got.tobytes() == want.tobytes()


def test_every_weight_has_a_gradient():
    assert constant_weight(3, 2.0).gradient(np.ones((4, 3))).tolist() == np.zeros((4, 3)).tolist()
    with pytest.raises(NotImplementedError):
        ExpNorm(2).gradient(np.ones((1, 2)))


def _axes_by_loop(n, scale):
    """e_0, -e_0, e_1, ... times scale, one point at a time, as the samples were first built."""
    pts = []
    for j in range(n):
        for sign in (1.0, -1.0):
            e = np.zeros(n)
            e[j] = sign * scale
            pts.append(e)
    return pts


@pytest.mark.parametrize("n", range(1, 7))
def test_structured_samples_match_their_loops_bit_for_bit(n):
    radius = 20.0
    loop = [np.zeros(n)]
    for scale in (radius * 1e-2, radius * 1e-1, radius):
        loop += _axes_by_loop(n, scale) + ([np.full(n, scale / math.sqrt(n))] if n > 1 else [])
    assert weights._structured_points(n, radius).tobytes() == np.array(loop).tobytes()
    ball = np.array([np.zeros(n), *_axes_by_loop(n, 1.0)])
    assert _unit_ball_template(n)[: 2 * n + 1].tobytes() == ball.tobytes()


def test_pair_sample_sets_only_its_seed():
    cfg = PairSampleConfig(seed=7)
    assert (cfg.xi_radius, cfg.eta_radius, cfg.pairs, cfg.seed) == (100.0, 10.0, 2000, 7)
    with pytest.raises(TypeError):
        PairSampleConfig(pairs=300)


def test_ball_sup_of_constant():
    w = constant_weight(2, 3.5)
    for delta in (0.1, 1.0, 7.0):
        assert h_delta(w, delta, np.zeros(2)) == pytest.approx(3.5, rel=1e-15)


def test_ball_sup_one_plus_norm_closed_form(one_plus_norm):
    # sup over |eta| <= delta of 1 + |xi + eta| = 1 + |xi| + delta;
    # the local ascent recovers it to ~1e-8 and never overshoots
    for xi in (np.zeros(2), np.array([2.0, -1.0])):
        for delta in (0.1, 0.5, 1.0):
            got = h_delta(one_plus_norm, delta, xi)
            exact = 1.0 + np.linalg.norm(xi) + delta
            assert got == pytest.approx(exact, rel=1e-7)
            assert got <= exact * (1 + 1e-12)


def test_ball_sup_strength_against_dense_oracle():
    q = SymbolPolynomial(1, {(2,): 1.0})
    w = StrengthWeight(q)
    # 1d ball is an interval: dense oracle with 100k points
    ts = np.linspace(-1.0, 1.0, 100_001)[:, None]
    oracle = float(w(ts).max())
    got = h_delta(w, 1.0, np.zeros(1))
    assert got == pytest.approx(oracle, rel=1e-3)


def test_ball_sup_never_below_center(strength_weight):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-5, 5, size=(20, 2))
    vals = strength_weight(pts)
    sups = h_delta(strength_weight, 0.3, pts)
    assert np.all(sups >= vals)


def test_ball_sup_monotone_in_delta(one_plus_norm, strength_weight):
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [-3.0, 0.5]])
    for w in (constant_weight(2, 2.0), one_plus_norm, strength_weight):
        prev = None
        for delta in (0.1, 0.5, 1.0, 2.0):
            cur = h_delta(w, delta, pts)
            if prev is not None:
                assert np.all(cur >= prev * (1 - 1e-9))
            prev = cur


def test_ball_sup_rejects_bad_delta(one_plus_norm):
    with pytest.raises(ValueError):
        h_delta(one_plus_norm, 0.0, np.zeros(2))


# -- sandwich verification -------------------------------------------------------------


def test_sandwich_constant_weight_exact():
    rep = verify_ball_sup_sandwich(constant_weight(2, 2.0), delta=0.5, j=3)
    assert rep.passed
    assert rep.sandwich_lower_margin == pytest.approx(0.0, abs=1e-12)
    assert rep.power_identity_residual == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("delta", [0.1, 1.0])
@pytest.mark.parametrize("j", [2, 3])
def test_sandwich_one_plus_norm(one_plus_norm, delta, j):
    rep = verify_ball_sup_sandwich(one_plus_norm, delta=delta, j=j)
    assert rep.passed
    assert (rep.fit.c, rep.fit.n_exp) == (1.0, 1.0)
    assert rep.sandwich_lower_margin >= -1e-12
    assert rep.sandwich_upper_margin >= -1e-12
    assert rep.power_identity_residual <= 1e-9


def test_sandwich_strength_weight(strength_weight):
    rep = verify_ball_sup_sandwich(strength_weight, delta=1.0, j=3)
    assert rep.passed
    assert rep.power_identity_residual <= 1e-6


def test_sandwich_requires_successful_fit(one_plus_norm):
    from hypoel import TemperateFit

    failed = TemperateFit(success=False)
    with pytest.raises(PreconditionError):
        verify_ball_sup_sandwich(one_plus_norm, delta=0.1, fit=failed)


# -- power weights -----------------------------------------------------------------------


def test_power_weight_evaluates_exact_power(strength_weight):
    pw = PowerWeight(strength_weight, 3)
    pts = np.array([[0.5, -1.0], [2.0, 2.0]])
    assert np.allclose(pw(pts), strength_weight(pts) ** 3, rtol=0, atol=0)


def test_power_weight_shared_sample_identity(strength_weight):
    pts = np.array([[0.0, 0.0], [1.5, -0.5]])
    base = h_delta(strength_weight, 0.7, pts)
    powered = h_delta(PowerWeight(strength_weight, 4), 0.7, pts)
    assert np.allclose(powered, base**4, rtol=1e-12)


def test_weight_dimension_checked(one_plus_norm):
    from hypoel import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        h_delta(one_plus_norm, 0.5, np.zeros(3))
