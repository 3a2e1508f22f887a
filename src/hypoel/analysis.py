"""Ray-sampling analysis of symbols: hypoellipticity, minimal exponent, strength.

The frequency limit in the symbol characterization of hypoellipticity is
replaced by tail-slope regression of log-ratios along geometric ray grids.
A ray whose ratio grows at a polynomial rate shows up as a positive slope;
bounded ratios saturate with slope ~ 0 and a certifiably small tail increase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .errors import HypoelError
from .fitting import least_squares_slope
from .symbols import MultiIndex, SymbolPolynomial, VariableOperator

#: per-ray tail slopes above this count as divergence
SLOPE_TOL = 0.05

#: total tail increase of a log-ratio below this certifies boundedness on the ray
BOUNDED_GROWTH_TOL = 0.1

#: exponent boosts used when testing that a non-decaying ratio really diverges
EPS_TEST_LIST = (0.1, 0.2, 0.5)

#: fraction of ambiguous rays above which a verdict becomes "inconclusive"
AMBIGUOUS_RAY_FRACTION = 0.05


@dataclass(frozen=True)
class RayConfig:
    """Sampling scheme for ray sweeps toward frequency infinity."""

    directions: int = 256
    r0: float = 1.0
    rho: float = 2.0
    radii: int = 40
    include_characteristic_search: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.radii < 8:
            raise ValueError("need at least 8 radii (J >= 8)")
        if self.rho <= 1:
            raise ValueError("radial growth factor must be > 1")

    def validate_for_dimension(self, n: int) -> None:
        if self.directions < 2 * n:
            raise ValueError(f"need at least {2 * n} directions for dimension {n}")

    def radius_grid(self) -> np.ndarray:
        return self.r0 * self.rho ** np.arange(self.radii + 1, dtype=float)

    def to_dict(self) -> dict:
        return {
            "directions": self.directions,
            "r0": self.r0,
            "rho": self.rho,
            "radii": self.radii,
            "include_characteristic_search": self.include_characteristic_search,
            "seed": self.seed,
        }


def unit_directions(n: int, count: int, seed: int = 0) -> np.ndarray:
    """Quasi-uniform unit directions plus all coordinate axes and sign diagonals."""
    base: list[np.ndarray] = []
    if n == 1:
        base.append(np.array([1.0]))
        base.append(np.array([-1.0]))
    elif n == 2:
        angles = 2 * np.pi * (np.arange(count) + 0.5) / count
        base.extend(np.stack([np.cos(angles), np.sin(angles)], axis=1))
    elif n == 3:
        # Fibonacci sphere
        golden = (1 + math.sqrt(5)) / 2
        i = np.arange(count, dtype=float)
        z = 1 - 2 * (i + 0.5) / count
        r = np.sqrt(np.maximum(0.0, 1 - z * z))
        phi = 2 * np.pi * i / golden
        base.extend(np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1))
    else:
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((count, n))
        norms = np.linalg.norm(pts, axis=1)
        base.extend(pts[norms > 1e-12] / norms[norms > 1e-12, None])

    for j in range(n):
        for sign in (1.0, -1.0):
            e = np.zeros(n)
            e[j] = sign
            base.append(e)
    if n > 1:
        for signs in np.ndindex(*(2,) * n):
            d = np.array([1.0 if s == 0 else -1.0 for s in signs]) / math.sqrt(n)
            base.append(d)

    seen: set[tuple] = set()
    out: list[np.ndarray] = []
    for d in base:
        key = tuple(np.round(d, 12))
        if key not in seen:
            seen.add(key)
            out.append(d)
    return np.array(out)


def _characteristic_refinement(q: SymbolPolynomial, dirs: np.ndarray) -> np.ndarray:
    """Extra directions found by descending |principal part|^2 on the sphere."""
    pm = q.principal_part()
    if pm.is_zero or q.order == 0:
        return np.zeros((0, q.dimension))
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
    # snap components that converged to machine-level zeros
    pts[np.abs(pts) < 1e-10] = 0.0
    norms = np.linalg.norm(pts, axis=1)
    return pts[norms > 0] / norms[norms > 0, None]


@dataclass
class RaySample:
    beta: MultiIndex
    direction: np.ndarray
    radius: float
    ratio: float
    slope: float

    def to_dict(self) -> dict:
        return {
            "beta": list(self.beta),
            "direction": [float(v) for v in self.direction],
            "radius": self.radius,
            "ratio": self.ratio,
            "slope": self.slope,
        }


@dataclass
class HypoReport:
    verdict: str
    d_estimate: float | None = None
    d_snapped: tuple[int, int] | None = None
    fitted_c: float | None = None
    witness: RaySample | None = None
    per_beta_slopes: list[dict] = field(default_factory=list)
    slope_threshold: float = SLOPE_TOL
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "d_estimate": self.d_estimate,
            "d_snapped": list(self.d_snapped) if self.d_snapped else None,
            "fitted_c": self.fitted_c,
            "witness": self.witness.to_dict() if self.witness else None,
            "per_beta_slopes": self.per_beta_slopes,
            "slope_threshold": self.slope_threshold,
            "config": self.config,
        }


@dataclass
class StrengthReport:
    verdict: str
    ratio_bounds: tuple[float, float] | None = None
    witness: dict | None = None
    seed: int = 0
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "ratio_bounds": list(self.ratio_bounds) if self.ratio_bounds else None,
            "witness": self.witness,
            "seed": self.seed,
            "config": self.config,
        }


def snap_rational(value: float, max_denominator: int = 12, rel_tol: float = 0.02) -> tuple[int, int] | None:
    """Nearest fraction with bounded denominator, via Stern-Brocot descent.

    Returns (numerator, denominator) when within `rel_tol` relatively, else None.
    """
    if value <= 0:
        return None
    lo_n, lo_d = 0, 1
    hi_n, hi_d = 1, 0
    best = (round(value), 1)
    best_err = abs(value - round(value))
    for _ in range(10 * max_denominator):
        med_n, med_d = lo_n + hi_n, lo_d + hi_d
        if med_d > max_denominator:
            break
        med = med_n / med_d
        if abs(value - med) < best_err:
            best, best_err = (med_n, med_d), abs(value - med)
        if med < value:
            lo_n, lo_d = med_n, med_d
        elif med > value:
            hi_n, hi_d = med_n, med_d
        else:
            break
    frac = Fraction(*best)
    if abs(frac - value) <= rel_tol * abs(value):
        return frac.numerator, frac.denominator
    return None


#: radii are kept while a bound on every ray value stays below exp(LOG_RANGE); floats end near exp(709)
LOG_RANGE = 690.0


def _ray_grid(n: int, cfg: RayConfig, refine_for: SymbolPolynomial | None = None):
    """Directions, how many base ones lead them, the radii, and the points, shaped (rays, radii, n).

    With `refine_for`, directions found by its characteristic search follow the base ones.
    """
    cfg.validate_for_dimension(n)
    dirs = unit_directions(n, cfg.directions, cfg.seed)
    num_base = len(dirs)
    if refine_for is not None and cfg.include_characteristic_search:
        dirs = np.concatenate([dirs, _characteristic_refinement(refine_for, dirs)], axis=0)
    radii = cfg.radius_grid()
    return dirs, num_base, radii, dirs[:, None, :] * radii[None, :, None]


@dataclass
class _RayTable:
    """The rays of one symbol, sampled and evaluated once for every sweep over them."""

    cfg: RayConfig
    dirs: np.ndarray
    base: np.ndarray  # True on the base directions, which precede the refined ones
    radii: np.ndarray
    xi: np.ndarray
    denom: np.ndarray  # 1 + |Q|
    derivatives: tuple[tuple[MultiIndex, SymbolPolynomial], ...]  # the nonzero ones, beta = 0 first


def _log_size(q: SymbolPolynomial) -> float:
    """log sum |c_alpha|: on |xi| <= r, r >= 1, |Q| <= e^it r^m and every |Q^(beta)| <= m! e^it r^m."""
    total = sum(abs(c) for c in q.terms.values())
    return math.log(total) if total else -math.inf


def _capped(cfg: RayConfig, log_bounds, what: str) -> RayConfig:
    """cfg on the radii r where each log bound k log r + log_c, given as (k, log_c), is below LOG_RANGE."""
    log_r = np.log(cfg.radius_grid())
    kept = int(np.count_nonzero(np.all([k * log_r + log_c < LOG_RANGE for k, log_c in log_bounds], axis=0))) - 1
    if kept < 8:
        raise HypoelError(f"{what} leaves {max(kept, 0)} radii in floating-point range, need 8")
    return replace(cfg, radii=kept)


def _ray_table(q: SymbolPolynomial, cfg: RayConfig) -> _RayTable:
    """The table of q on cfg's rays, its radius grid cut where the values of q could overflow.

    For d >= 1, r^{|beta|/d} |Q^(beta)| is at most m! sum |c_alpha| r^m on |xi| <= r.
    """
    m = q.order
    cfg = _capped(cfg, [(m, math.lgamma(m + 1) + _log_size(q))], f"a symbol of order {m}")
    dirs, num_base, radii, xi = _ray_grid(q.dimension, cfg, q)
    return _RayTable(cfg, dirs, np.arange(len(dirs)) < num_base, radii, xi, 1.0 + np.abs(q(xi)), q.nonzero_derivatives)


def _sweep(table: _RayTable, derivatives, d: float = math.inf):
    """One derivative at a time: beta, ratios r^{|beta|/d} |Q^(beta)| / (1 + |Q|), row peaks, logs, slopes."""
    for beta, dq in derivatives:
        ratios = table.radii ** (sum(beta) / d) * np.abs(dq(table.xi)) / table.denom
        logs = np.log(np.maximum(ratios, 1e-300))
        yield beta, ratios, ratios.max(axis=1), logs, _tail_slopes(table.radii, logs)


def _tail_slopes(radii: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """Per-ray slopes of log ratios against log radius over the last half of the radii."""
    half = len(radii) // 2
    return least_squares_slope(np.log(radii[half:]), logs[..., half:])


def _first_max(values: np.ndarray, mask: np.ndarray | bool = True) -> int | None:
    """Index of the first largest value where mask holds; NaN and -inf never win."""
    masked = np.where(mask & ~np.isnan(values), values, -np.inf)
    i = int(np.argmax(masked))
    return i if masked[i] > -np.inf else None


def _is_monotone_tail(values: np.ndarray, count: int = 5) -> np.ndarray:
    tail = values[..., -count:]
    return np.all(np.diff(tail, axis=-1) >= -1e-12 * np.abs(tail[..., :-1]), axis=-1)


#: refined-ray violations must exceed this multiple of the base rays' typical peak
REFINED_GUARD_FACTOR = 10.0


def _refined_guard(ratios: np.ndarray, base: np.ndarray) -> float:
    """Magnitude a refined ray must reach before its divergence is trusted.

    Refined directions sit arbitrarily close to characteristic sets, where a
    finite radius window shows transition plateaus of bounded ratios; only
    ratios well above the base grid's typical per-ray peak count as evidence.
    """
    base_maxima = ratios[base].max(axis=1)
    base_maxima = base_maxima[base_maxima > 1e-250]
    if not len(base_maxima):
        return 0.0
    return REFINED_GUARD_FACTOR * float(np.median(base_maxima))


def _worst_slope(beta: MultiIndex, slopes: np.ndarray, dirs: np.ndarray, mask: np.ndarray) -> list[dict]:
    """The per-beta record of the steepest ray in mask: one entry, or none without one."""
    i = _first_max(slopes, mask)
    if i is None:
        return []
    return [{"beta": list(beta), "worst_slope": float(slopes[i]), "direction": [float(v) for v in dirs[i]]}]


def _steepest(current: RaySample | None, table: _RayTable, beta, ratios, peaks, slopes, growing):
    """Narrow growing rays to those with a monotone tail; return the steeper of current and them.

    Returns that sample (ties keep current) and the narrowed mask.  Refined
    rays below the guard show the transition plateau of a near-characteristic
    window and never give the sample.
    """
    growing[growing] = _is_monotone_tail(ratios[growing])
    plateau = ~table.base & (peaks < _refined_guard(ratios, table.base))
    i = _first_max(slopes, growing & ~plateau)
    if i is not None and (current is None or slopes[i] > current.slope):
        current = RaySample(beta, table.dirs[i], float(table.radii[-1]), float(ratios[i, -1]), float(slopes[i]))
    return current, growing


def _check_rays(table: _RayTable, d: float) -> HypoReport:
    """The symbol inequality at exponent d on every ray of the table.

    A ray whose ratios are NaN never gives the constant, a witness or a
    worst slope, and counts as an ambiguous base ray.
    """
    fitted_c = 0.0
    best_sample: RaySample | None = None
    worst_violation: RaySample | None = None
    per_beta: list[dict] = []
    ambiguous = 0
    total_rays = 0

    for beta, ratios, peaks, logs, slopes in _sweep(table, table.derivatives, d):
        i = _first_max(peaks, peaks > fitted_c)
        if i is not None:
            fitted_c = float(peaks[i])
            radius = float(table.radii[ratios[i].argmax()])
            best_sample = RaySample(beta, table.dirs[i], radius, fitted_c, 0.0)
        if sum(beta) == 0:
            continue
        active = ~(peaks < 1e-250)
        counted = active & table.base
        total_rays += int(np.count_nonzero(counted))
        per_beta += _worst_slope(beta, slopes, table.dirs, counted)
        rising = active & (slopes > SLOPE_TOL)
        worst_violation, rising = _steepest(worst_violation, table, beta, ratios, peaks, slopes, rising)
        growth = logs[:, -1] - logs[:, len(table.radii) // 2 :].min(axis=1)
        bounded = (slopes < -SLOPE_TOL) | ((np.abs(slopes) <= SLOPE_TOL) & (growth <= BOUNDED_GROWTH_TOL))
        ambiguous += int(np.count_nonzero(counted & ~rising & ~bounded))

    verdict = "hypoelliptic-consistent"
    if worst_violation is not None:
        verdict, best_sample = "violated", worst_violation
    elif total_rays and ambiguous / total_rays > AMBIGUOUS_RAY_FRACTION:
        verdict = "inconclusive"
    config = table.cfg.to_dict()
    return HypoReport(verdict, fitted_c=fitted_c, witness=best_sample, per_beta_slopes=per_beta, config=config)


def check_hypoelliptic(q: SymbolPolynomial, d: float, cfg: RayConfig | None = None) -> HypoReport:
    """Test the symbol inequality |xi|^{|beta|/d} |Q^(beta)| <= C (1 + |Q|) on ray grids.

    Consistent when every ray's weighted ratio has tail slope within tolerance
    and certifiably bounded tail growth; violated when some ray grows
    monotonically at a rate above tolerance; inconclusive when too many rays
    are ambiguous.
    """
    if q.is_zero:
        raise HypoelError("cannot test hypoellipticity of the zero symbol")
    if d < 1:
        raise ValueError("exponent d must be >= 1")
    return _check_rays(_ray_table(q, cfg or RayConfig()), d)


def estimate_d(q: SymbolPolynomial, cfg: RayConfig | None = None) -> HypoReport:
    """Estimate the minimal exponent d from per-ray decay slopes of derivative ratios.

    For each beta the ratio |Q^(beta)|/(1 + |Q|) decays along rays at rate
    -|beta|/d when the inequality is tight, so d is the max over (beta, ray)
    of -|beta|/slope on decaying rays.  Non-decaying rays whose boosted ratio
    |xi|^eps * ratio diverges for every tested eps mean no d works.  The
    check at the estimate runs on the same rays.
    """
    if q.is_zero:
        raise HypoelError("cannot estimate the exponent of the zero symbol")
    if q.order < 1:
        raise HypoelError("exponent estimation needs order >= 1")
    table = _ray_table(q, cfg or RayConfig())

    d_best = 0.0
    candidates = 0
    per_beta: list[dict] = []
    violation: RaySample | None = None

    for beta, ratios, peaks, _, slopes in _sweep(table, table.derivatives[1:]):
        active = ~(peaks < 1e-250)
        per_beta += _worst_slope(beta, slopes, table.dirs, active & table.base)
        decaying = active & (slopes < -SLOPE_TOL)
        # refined rays mix plateau and decay within the window and would
        # distort the fitted decay rate
        fitted = decaying & table.base
        if fitted.any():
            d_best = max(d_best, float(np.max(-sum(beta) / slopes[fitted])))
            candidates += int(np.count_nonzero(fitted))
        diverging = active & ~decaying
        for eps in EPS_TEST_LIST:
            diverging &= slopes + eps > SLOPE_TOL
        violation, _ = _steepest(violation, table, beta, ratios, peaks, slopes, diverging)

    config = table.cfg.to_dict()
    if violation is not None:
        return HypoReport(verdict="violated", witness=violation, per_beta_slopes=per_beta, config=config)
    if not candidates:
        return HypoReport(verdict="inconclusive", per_beta_slopes=per_beta, config=config)
    d_est = max(d_best, 1.0)
    check = _check_rays(table, d_est)
    verdict = "inconclusive" if check.verdict == "inconclusive" else "hypoelliptic-consistent"
    return HypoReport(verdict, d_est, snap_rational(d_est), check.fitted_c, check.witness, per_beta, config=config)


def equally_strong(
    p: SymbolPolynomial, q: SymbolPolynomial, cfg: RayConfig | None = None
) -> StrengthReport:
    """Compare Hormander strengths along ray grids.

    Equally strong means both strength ratios stay bounded on every ray;
    one-sided boundedness makes the unbounded side the stronger operator.
    """
    if p.dimension != q.dimension:
        raise HypoelError(f"dimension mismatch: {p.dimension} vs {q.dimension}")
    if p.is_zero or q.is_zero:
        raise HypoelError("strength comparison requires nonzero symbols")
    # the squared strength sums at most (m+1)^n squares of derivatives
    bounds = [
        (2 * s.order, 2 * (math.lgamma(s.order + 1) + _log_size(s)) + s.dimension * math.log(s.order + 1))
        for s in (p, q)
    ]
    cfg = _capped(cfg or RayConfig(), bounds, f"symbols of orders {p.order} and {q.order}")
    dirs, _, radii, xi = _ray_grid(p.dimension, cfg)
    t = p.strength(xi) / q.strength(xi)
    slopes = _tail_slopes(radii, np.log(t))
    fwd, bwd = _first_max(slopes), _first_max(-slopes)
    fwd_bounded = fwd is None or slopes[fwd] <= SLOPE_TOL
    bwd_bounded = bwd is None or -slopes[bwd] <= SLOPE_TOL
    bounds = (float(t.min()), float(t.max()))
    if fwd_bounded and bwd_bounded:
        verdict = "equally-strong"
        witness = None
    elif fwd_bounded:
        verdict = "P-weaker"
        witness = _ratio_witness(dirs[bwd], radii, 1.0 / t[bwd], -slopes[bwd])
    else:
        verdict = "Q-weaker" if bwd_bounded else "incomparable"
        witness = _ratio_witness(dirs[fwd], radii, t[fwd], slopes[fwd])
    return StrengthReport(
        verdict=verdict, ratio_bounds=bounds, witness=witness, seed=cfg.seed, config=cfg.to_dict()
    )


def _ratio_witness(direction: np.ndarray, radii: np.ndarray, row: np.ndarray, slope: float) -> dict:
    return {
        "direction": [float(v) for v in direction],
        "radius": float(radii[-1]),
        "ratio": float(row[-1]),
        "slope": float(slope),
    }


def freeze_sample_points(domain, per_axis: int = 3, corner_shrink: float = 1e-3) -> list[np.ndarray]:
    """Interior lattice points plus corners pulled inward, center always included."""
    n = domain.dimension
    axes = []
    for lo, hi in zip(domain.lo, domain.hi):
        fracs = (np.arange(per_axis) + 0.5) / per_axis
        axes.append(lo + fracs * (hi - lo))
    pts = [np.array(p) for p in np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)]
    center = np.array(domain.center)
    if not any(np.allclose(p, center) for p in pts):
        pts.append(center)
    for signs in np.ndindex(*(2,) * n):
        corner = np.array(
            [
                lo + corner_shrink * (hi - lo) if s == 0 else hi - corner_shrink * (hi - lo)
                for s, lo, hi in zip(signs, domain.lo, domain.hi)
            ]
        )
        pts.append(corner)
    return pts


def check_constant_strength(
    p: VariableOperator, cfg: RayConfig | None = None, points: int | None = None
) -> StrengthReport:
    """Freeze the operator on a lattice and compare every sample with the center.

    Constant strength holds when every frozen symbol is equally strong with
    the center-frozen one; a frozen symbol that vanishes identically is an
    immediate failure witness.
    """
    cfg = cfg or RayConfig()
    n = p.dimension
    per_axis = 3 if points is None else max(2, math.ceil(points ** (1.0 / n)))
    if points is not None and points < 2:
        raise ValueError("points must be >= 2")
    def report(verdict, ratio_bounds=None, witness=None):
        return StrengthReport(verdict, ratio_bounds, witness, seed=cfg.seed, config=cfg.to_dict())

    xs = [*freeze_sample_points(p.domain, per_axis), np.array(p.domain.center)]
    frozen = [(x, p.freeze(x)) for x in xs]
    for x, qx in frozen:
        if qx.is_zero:
            witness = {"x": [float(v) for v in x], "reason": "frozen symbol is identically zero"}
            return report("not-constant-strength", witness=witness)
    q_center = frozen.pop()[1]

    lo, hi = math.inf, -math.inf
    for x, qx in frozen:
        rep = equally_strong(qx, q_center, cfg)
        if rep.ratio_bounds:
            lo = min(lo, rep.ratio_bounds[0])
            hi = max(hi, rep.ratio_bounds[1])
        if rep.verdict != "equally-strong":
            witness = {"x": [float(v) for v in x], "pair_verdict": rep.verdict, "ray": rep.witness}
            return report("not-constant-strength", (lo, hi), witness)
    return report("constant-strength", (lo, hi))
