"""Temperate weight functions and their ball-supremum regularization.

A weight h is temperate when h(xi + eta) <= (1 + C|eta|)^N h(xi) for some
constants (C, N).  The constants are fitted on a seeded sample of pairs over
small discrete grids: the definition only requires existence, so half-integer
N and a geometric C ladder are enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, HypoelError, PreconditionError
from .fitting import ascend, signed_axes
from .symbols import SymbolPolynomial, _evaluate, _points, _root_sum_squares

#: C candidates for the temperate fit
C_GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

FIT_RESIDUAL_TOL = 1e-9


class WeightFunction:
    """Positive weight on R^n; evaluates on arrays of shape (..., n)."""

    dimension: int
    #: polynomial-like growth degree, used to bound the N search grid
    degree: float

    def __call__(self, xi) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, xi) -> np.ndarray:
        """Gradient for local ascent."""
        raise NotImplementedError

    def _value_and_gradient(self, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """h and its gradient at the points xi, for the ascent; a weight that shares their work overrides it."""
        return self(xi), self.gradient(xi)


class OnePlusNorm(WeightFunction):
    def __init__(self, dimension: int):
        self.dimension = dimension
        self.degree = 1.0

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        return 1.0 + np.linalg.norm(xi, axis=-1)

    def gradient(self, xi):
        xi = np.asarray(xi, dtype=float)
        norms = np.linalg.norm(xi, axis=-1, keepdims=True)
        safe = np.where(norms == 0, 1.0, norms)
        return xi / safe


class StrengthWeight(WeightFunction):
    """The Hormander strength function of a nonzero symbol."""

    def __init__(self, symbol: SymbolPolynomial):
        if symbol.is_zero:
            raise HypoelError("strength weight requires a nonzero symbol")
        self.symbol = symbol
        self.dimension = symbol.dimension
        self.degree = float(symbol.order)
        derivatives = [dq for _, dq in symbol.nonzero_derivatives]
        axes = [tuple(1 if j == k else 0 for j in range(self.dimension)) for k in range(self.dimension)]
        # one family, evaluated at once: the derivatives, then the gradient members not among them (d_k d^alpha Q
        # = d^(alpha+e_k) Q; zeros stay, giving NaN where a derivative is not finite); _slots[i*n+k] finds d_k of i
        members = [dq.derive(e) for dq in derivatives for e in axes]
        index = {dq: i for i, dq in enumerate(derivatives)}
        family = derivatives + [g for g in members if g not in index]
        extra = iter(range(len(derivatives), len(family)))
        self._slots = [index[g] if g in index else next(extra) for g in members]
        self._family = [g.terms for g in family]

    def __call__(self, xi):
        return self.symbol.strength(xi)

    def gradient(self, xi):
        return self._value_and_gradient(_points(xi, self.dimension))[1]

    def _value_and_gradient(self, xi):
        n, count = self.dimension, len(self.symbol.nonzero_derivatives)
        values = list(_evaluate(self._family, xi))
        strength = _root_sum_squares(values[:count], xi.shape[:-1])
        grad = np.zeros(xi.shape)
        for i, vals in enumerate(values[:count]):
            for k in range(n):
                grad[..., k] += np.real(np.conj(vals) * values[self._slots[i * n + k]])
        return strength, grad / np.maximum(strength, 1e-300)[..., None]


# -- temperate fit --------------------------------------------------------------


@dataclass(frozen=True)
class PairSampleConfig:
    """The seed of the temperate fit's pair sample; its radii and size are fixed."""

    xi_radius = 100.0
    eta_radius = 10.0
    pairs = 2000
    seed: int = 0


def _structured_points(n: int, radius: float) -> np.ndarray:
    pts = [np.zeros((1, n))]
    for scale in (radius * 1e-2, radius * 1e-1, radius):
        pts += [signed_axes(n) * scale, np.full((int(n > 1), n), scale / math.sqrt(n))]
    return np.concatenate(pts)


def sample_pairs(n: int, cfg: PairSampleConfig) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic grid+random mix of (xi, eta) pairs."""
    rng = np.random.default_rng(cfg.seed)
    xi_struct = _structured_points(n, cfg.xi_radius)
    eta_struct = _structured_points(n, cfg.eta_radius)
    xis = [np.repeat(xi_struct, len(eta_struct), axis=0)]
    etas = [np.tile(eta_struct, (len(xi_struct), 1))]
    remaining = max(0, cfg.pairs - len(xis[0]))
    if remaining:
        u = rng.random((remaining, 1))
        xi_dir = rng.standard_normal((remaining, n))
        xi_dir /= np.maximum(np.linalg.norm(xi_dir, axis=1, keepdims=True), 1e-12)
        eta_dir = rng.standard_normal((remaining, n))
        eta_dir /= np.maximum(np.linalg.norm(eta_dir, axis=1, keepdims=True), 1e-12)
        xis.append(xi_dir * (u ** (1.0 / n)) * cfg.xi_radius)
        etas.append(eta_dir * (rng.random((remaining, 1)) ** (1.0 / n)) * cfg.eta_radius)
    return np.concatenate(xis), np.concatenate(etas)


@dataclass
class TemperateFit:
    success: bool
    c: float | None = None
    n_exp: float | None = None
    residual: float = math.inf
    worst_pair: dict | None = None


def _residuals(h: WeightFunction, xi: np.ndarray, eta: np.ndarray):
    """(C, N) -> the temperate residuals on the given pairs, with h evaluated on them once."""
    log_h_shift = np.log(h(xi + eta))
    log_h = np.log(h(xi))
    eta_norm = np.linalg.norm(eta, axis=-1)
    return lambda c, n_exp: log_h_shift - n_exp * np.log1p(c * eta_norm) - log_h


def fit_temperate(h: WeightFunction, cfg: PairSampleConfig | None = None) -> TemperateFit:
    """Smallest (N, C) on discrete grids satisfying the temperate inequality on samples.

    N ranges over half-integers up to twice the weight's growth degree, C
    over a small geometric ladder; the first pair with max residual below
    FIT_RESIDUAL_TOL wins.
    """
    cfg = cfg or PairSampleConfig()
    xi, eta = sample_pairs(h.dimension, cfg)
    n_grid = np.arange(0.0, 2.0 * h.degree + 0.25, 0.5) if h.degree > 0 else np.array([0.0])
    residuals = _residuals(h, xi, eta)
    worst = None
    for n_exp in n_grid:
        for c in C_GRID:
            res = residuals(c, float(n_exp))
            peak = float(res.max())
            if worst is None or peak < worst[0]:
                i = int(res.argmax())
                worst = (peak, {"xi": xi[i].tolist(), "eta": eta[i].tolist(), "residual": peak})
            if peak <= FIT_RESIDUAL_TOL:
                return TemperateFit(success=True, c=float(c), n_exp=float(n_exp), residual=peak)
    return TemperateFit(success=False, residual=worst[0], worst_pair=worst[1])


# -- ball supremum ---------------------------------------------------------------


def _unit_ball_template(n: int) -> np.ndarray:
    """The center, the 2n axis points and 2(256 - n) seeded sign-symmetric points in the closed unit ball."""
    pts = np.concatenate([np.zeros((1, n)), signed_axes(n)])
    rng = np.random.default_rng(0)
    half = max(0, (512 - len(pts) + 1) // 2)
    dirs = rng.standard_normal((half, n))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    radii = rng.random((half, 1)) ** (1.0 / n)
    cloud = dirs * radii
    return np.concatenate([pts, cloud, -cloud])


def _ball_maximizers(h: WeightFunction, delta: float, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where h is largest in the closed ball of radius delta around each of pts, as far as the search finds, and h there.

    The best of fixed quasi-uniform ball samples, the center among them,
    refined by 32 steps of local ascent along the weight's gradient.
    """
    if not 0 < delta < math.inf:  # NaN fails too
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    if pts.shape[-1] != h.dimension:
        raise DimensionMismatch(f"points have dimension {pts.shape[-1]}, expected {h.dimension}")
    offsets = _unit_ball_template(h.dimension) * delta
    best = pts + offsets[np.argmax(h(pts[:, None, :] + offsets[None, :, :]), axis=1)]

    def to_ball(cand):
        rel = cand - pts
        dist = np.linalg.norm(rel, axis=1, keepdims=True)
        return np.where(dist > delta, pts + rel * (delta / np.maximum(dist, 1e-300)), cand)

    return ascend(h._value_and_gradient, lambda x, grad: grad, to_ball, best, 0.25 * delta, 32)


def h_delta(h: WeightFunction, delta: float, xi) -> float | np.ndarray:
    """Approximate sup of h over the closed ball of radius delta around xi.

    h at the best of fixed quasi-uniform ball samples, refined by local
    ascent; always >= h(xi) since the center is one of the samples.
    """
    xi = np.asarray(xi, dtype=float)
    best = _ball_maximizers(h, delta, np.atleast_2d(xi))[1]
    if xi.ndim == 1:
        return float(best[0])
    return best


@dataclass
class LemmaReport:
    passed: bool
    sandwich_lower_margin: float
    sandwich_upper_margin: float
    power_identity_residual: float
    fit: TemperateFit
    delta: float
    j: int


def verify_ball_sup_sandwich(
    h: WeightFunction,
    delta: float,
    j: int = 2,
    fit: TemperateFit | None = None,
) -> LemmaReport:
    """Check h <= h_delta <= h (1 + C delta)^N and the shared-sample power identity.

    Both are checked to a relative 1e-6 on fixed points: structured ones of
    radius up to 20 and 64 seeded gaussian ones.  One search finds the
    maximizers of h, which are those of h^j too; h and h^j are evaluated on
    them, so the power identity (h^j)_delta = (h_delta)^j is an arithmetic
    identity rather than an approximation claim.
    """
    if not 1 <= j < math.inf:  # NaN fails too
        raise ValueError(f"power j must be finite and >= 1, got {j}")
    fit = fit or fit_temperate(h)
    if not fit.success:
        raise PreconditionError("temperate-fit", "no (C, N) on the search grid satisfies the samples")
    rand = np.random.default_rng(0).standard_normal((64, h.dimension)) * 5.0
    xi_points = np.concatenate([_structured_points(h.dimension, 20.0), rand])

    h_vals = h(xi_points)
    maximizers, sup_vals = _ball_maximizers(h, delta, xi_points)
    upper = h_vals * (1.0 + fit.c * delta) ** fit.n_exp
    lower_margin = float(((sup_vals - h_vals) / h_vals).min())
    upper_margin = float(((upper - sup_vals) / upper).min())

    sup_powered = h(maximizers) ** j
    residual = float(np.max(np.abs(sup_powered - sup_vals**j) / np.abs(sup_vals**j)))

    passed = lower_margin >= -1e-6 and upper_margin >= -1e-6 and residual <= 1e-6
    return LemmaReport(
        passed=passed,
        sandwich_lower_margin=lower_margin,
        sandwich_upper_margin=upper_margin,
        power_identity_residual=residual,
        fit=fit,
        delta=delta,
        j=j,
    )
