"""Temperate weight functions and their ball-supremum regularization.

A weight h is temperate when h(xi + eta) <= (1 + C|eta|)^N h(xi) for some
constants (C, N).  The constants are fitted on a seeded sample of pairs over
small discrete grids: the definition only requires existence, so half-integer
N and a geometric C ladder are enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, HypoelError, PreconditionError
from .symbols import SymbolPolynomial

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

    def gradient(self, xi) -> np.ndarray | None:
        """Gradient for local ascent, or None when not available."""
        return None

    def ascent_score(self, xi) -> np.ndarray:
        """Monotone surrogate driving ball-sup maximizer searches.

        Powers delegate to their base so that the maximizer search of h^j
        makes bit-identical decisions to that of h on shared samples.
        """
        return self(xi)

    def describe(self) -> dict:
        raise NotImplementedError


class ConstantWeight(WeightFunction):
    def __init__(self, dimension: int, value: float):
        if value <= 0:
            raise ValueError("constant weight must be positive")
        self.dimension = dimension
        self.value = float(value)
        self.degree = 0.0

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        return np.full(xi.shape[:-1], self.value)

    def describe(self):
        return {"form": "constant", "value": self.value, "dimension": self.dimension}


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

    def describe(self):
        return {"form": "one_plus_norm", "dimension": self.dimension}


class StrengthWeight(WeightFunction):
    """The Hormander strength function of a nonzero symbol."""

    def __init__(self, symbol: SymbolPolynomial):
        if symbol.is_zero:
            raise HypoelError("strength weight requires a nonzero symbol")
        self.symbol = symbol
        self.dimension = symbol.dimension
        self.degree = float(symbol.order)
        self._grads = [
            [dq.derive(tuple(1 if j == k else 0 for j in range(self.dimension))) for k in range(self.dimension)]
            for _, dq in symbol.nonzero_derivatives
        ]

    def __call__(self, xi):
        return self.symbol.strength(xi)

    def gradient(self, xi):
        xi = np.asarray(xi, dtype=float)
        h = np.maximum(self(xi), 1e-300)
        grad = np.zeros(xi.shape)
        for (_, dq), dgrads in zip(self.symbol.nonzero_derivatives, self._grads):
            vals = dq(xi)
            for k in range(self.dimension):
                grad[..., k] += np.real(np.conj(vals) * dgrads[k](xi))
        return grad / h[..., None]

    def describe(self):
        return {"form": "strength", "symbol": self.symbol.to_dict(), "dimension": self.dimension}


class PowerWeight(WeightFunction):
    """Integer power h^j of a base weight."""

    def __init__(self, base: WeightFunction, j: int):
        if j < 1:
            raise ValueError("power must be a positive integer")
        self.base = base
        self.j = int(j)
        self.dimension = base.dimension
        self.degree = base.degree * self.j

    def __call__(self, xi):
        return self.base(xi) ** self.j

    def gradient(self, xi):
        # ascent directions of h^j and h coincide
        return self.base.gradient(xi)

    def ascent_score(self, xi):
        return self.base.ascent_score(xi)

    def describe(self):
        return {"form": "power", "j": self.j, "base": self.base.describe()}


def weight_from_dict(doc: dict) -> WeightFunction:
    form = doc.get("form")
    if form == "constant":
        return ConstantWeight(int(doc["dimension"]), float(doc["value"]))
    if form == "one_plus_norm":
        return OnePlusNorm(int(doc["dimension"]))
    if form == "strength":
        return StrengthWeight(SymbolPolynomial.from_dict(doc["symbol"]))
    if form == "power":
        return PowerWeight(weight_from_dict(doc["base"]), int(doc["j"]))
    raise HypoelError(f"unknown weight form {form!r}")


# -- temperate fit --------------------------------------------------------------


@dataclass(frozen=True)
class PairSampleConfig:
    xi_radius: float = 100.0
    eta_radius: float = 10.0
    pairs: int = 2000
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "xi_radius": self.xi_radius,
            "eta_radius": self.eta_radius,
            "pairs": self.pairs,
            "seed": self.seed,
        }


def _structured_points(n: int, radius: float) -> np.ndarray:
    pts = [np.zeros(n)]
    for scale in (radius * 1e-2, radius * 1e-1, radius):
        for j in range(n):
            for sign in (1.0, -1.0):
                e = np.zeros(n)
                e[j] = sign * scale
                pts.append(e)
        if n > 1:
            pts.append(np.full(n, scale / math.sqrt(n)))
    return np.array(pts)


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
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "success": self.success,
            "C": self.c,
            "N": self.n_exp,
            "residual": self.residual,
            "worst_pair": self.worst_pair,
            "config": self.config,
        }


def temperate_residual(h: WeightFunction, c: float, n_exp: float, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """log h(xi+eta) - N log(1 + C|eta|) - log h(xi) on the given pairs."""
    log_h_shift = np.log(h(xi + eta))
    log_h = np.log(h(xi))
    eta_norm = np.linalg.norm(eta, axis=-1)
    return log_h_shift - n_exp * np.log1p(c * eta_norm) - log_h


def fit_temperate(h: WeightFunction, cfg: PairSampleConfig | None = None) -> TemperateFit:
    """Smallest (N, C) on discrete grids satisfying the temperate inequality on samples.

    N ranges over half-integers up to twice the weight's growth degree, C
    over a small geometric ladder; the first pair with max residual below
    FIT_RESIDUAL_TOL wins.
    """
    cfg = cfg or PairSampleConfig()
    xi, eta = sample_pairs(h.dimension, cfg)
    n_grid = np.arange(0.0, 2.0 * h.degree + 0.25, 0.5) if h.degree > 0 else np.array([0.0])
    worst = None
    for n_exp in n_grid:
        for c in C_GRID:
            res = temperate_residual(h, c, float(n_exp), xi, eta)
            peak = float(res.max())
            if worst is None or peak < worst[0]:
                i = int(res.argmax())
                worst = (peak, {"xi": xi[i].tolist(), "eta": eta[i].tolist(), "residual": peak})
            if peak <= FIT_RESIDUAL_TOL:
                return TemperateFit(
                    success=True, c=float(c), n_exp=float(n_exp), residual=peak, config=cfg.to_dict()
                )
    return TemperateFit(
        success=False, residual=worst[0], worst_pair=worst[1], config=cfg.to_dict()
    )


# -- ball supremum ---------------------------------------------------------------


@dataclass(frozen=True)
class BallSampleConfig:
    points: int = 512
    ascent_steps: int = 32
    seed: int = 0

    def to_dict(self) -> dict:
        return {"points": self.points, "ascent_steps": self.ascent_steps, "seed": self.seed}


def _unit_ball_template(n: int, cfg: BallSampleConfig) -> np.ndarray:
    """Sign-symmetric quasi-uniform points in the closed unit ball, plus center and axes."""
    pts = [np.zeros(n)]
    for j in range(n):
        for sign in (1.0, -1.0):
            e = np.zeros(n)
            e[j] = sign
            pts.append(e)
    rng = np.random.default_rng(cfg.seed)
    half = max(0, (cfg.points - len(pts) + 1) // 2)
    dirs = rng.standard_normal((half, n))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    radii = rng.random((half, 1)) ** (1.0 / n)
    cloud = dirs * radii
    return np.concatenate([np.array(pts), cloud, -cloud])


def h_delta(
    h: WeightFunction,
    delta: float,
    xi,
    cfg: BallSampleConfig | None = None,
) -> float | np.ndarray:
    """Approximate sup of h over the closed ball of radius delta around xi.

    Fixed quasi-uniform ball samples, refined by deterministic local ascent
    when the weight exposes a gradient.  Always >= h(xi) since the center is
    one of the samples.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    cfg = cfg or BallSampleConfig()
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 1
    pts = np.atleast_2d(xi)
    if pts.shape[-1] != h.dimension:
        raise DimensionMismatch(f"points have dimension {pts.shape[-1]}, expected {h.dimension}")
    offsets = _unit_ball_template(h.dimension, cfg) * delta
    scores = h.ascent_score(pts[:, None, :] + offsets[None, :, :])
    best_idx = np.argmax(scores, axis=1)
    best_pts = pts + offsets[best_idx]
    best_score = scores[np.arange(len(pts)), best_idx]

    if h.gradient(pts[:1]) is not None:
        step = np.full(len(pts), 0.25 * delta)
        for _ in range(cfg.ascent_steps):
            grad = h.gradient(best_pts)
            gn = np.linalg.norm(grad, axis=1, keepdims=True)
            gn = np.where(gn == 0, 1.0, gn)
            cand = best_pts + step[:, None] * grad / gn
            # project back into the closed ball around xi
            rel = cand - pts
            dist = np.linalg.norm(rel, axis=1, keepdims=True)
            too_far = dist > delta
            cand = np.where(too_far, pts + rel * (delta / np.maximum(dist, 1e-300)), cand)
            s_cand = h.ascent_score(cand)
            better = s_cand > best_score
            best_pts = np.where(better[:, None], cand, best_pts)
            best_score = np.where(better, s_cand, best_score)
            step = np.where(better, step, step * 0.5)

    best = h(best_pts)
    if scalar:
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

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "sandwich_lower_margin": self.sandwich_lower_margin,
            "sandwich_upper_margin": self.sandwich_upper_margin,
            "power_identity_residual": self.power_identity_residual,
            "fit": self.fit.to_dict(),
            "delta": self.delta,
            "j": self.j,
        }


def verify_ball_sup_sandwich(
    h: WeightFunction,
    delta: float,
    j: int = 2,
    fit: TemperateFit | None = None,
    pair_cfg: PairSampleConfig | None = None,
    ball_cfg: BallSampleConfig | None = None,
    xi_points: np.ndarray | None = None,
    rel_tol: float = 1e-6,
) -> LemmaReport:
    """Check h <= h_delta <= h (1 + C delta)^N and the shared-sample power identity.

    The power identity (h^j)_delta = (h_delta)^j is evaluated on the same
    ball sample set on both sides, so it is an arithmetic identity rather
    than an approximation claim.
    """
    if j < 1:
        raise ValueError("power j must be >= 1")
    fit = fit or fit_temperate(h, pair_cfg)
    if not fit.success:
        raise PreconditionError("temperate-fit", "no (C, N) on the search grid satisfies the samples")
    ball_cfg = ball_cfg or BallSampleConfig()
    if xi_points is None:
        rng = np.random.default_rng(ball_cfg.seed)
        structured = _structured_points(h.dimension, 20.0)
        rand = rng.standard_normal((64, h.dimension)) * 5.0
        xi_points = np.concatenate([structured, rand])

    h_vals = h(xi_points)
    sup_vals = h_delta(h, delta, xi_points, ball_cfg)
    upper = h_vals * (1.0 + fit.c * delta) ** fit.n_exp
    lower_margin = float(((sup_vals - h_vals) / h_vals).min())
    upper_margin = float(((upper - sup_vals) / upper).min())

    powered = PowerWeight(h, j)
    sup_powered = h_delta(powered, delta, xi_points, ball_cfg)
    residual = float(np.max(np.abs(sup_powered - sup_vals**j) / np.abs(sup_vals**j)))

    passed = lower_margin >= -rel_tol and upper_margin >= -rel_tol and residual <= rel_tol
    return LemmaReport(
        passed=passed,
        sandwich_lower_margin=lower_margin,
        sandwich_upper_margin=upper_margin,
        power_identity_residual=residual,
        fit=fit,
        delta=delta,
        j=j,
    )
