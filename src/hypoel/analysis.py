"""Ray-sampling analysis of symbols: hypoellipticity, minimal exponent, strength.

The frequency limit in the symbol characterization of hypoellipticity is
replaced by tail-slope regression of log-ratios along geometric ray grids.
A ray whose ratio grows at a polynomial rate shows up as a positive slope;
bounded ratios saturate with slope ~ 0 and a certifiably small tail increase.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, HypoelError, PreconditionError
from .fitting import ascend, signed_axes, tail_slope
from .symbols import MultiIndex, SymbolPolynomial, VariableOperator, _evaluate

#: per-ray tail slopes above this count as divergence
SLOPE_TOL = 0.05

#: total tail increase of a log-ratio below this certifies boundedness on the ray
BOUNDED_GROWTH_TOL = 0.1

#: exponent boost used when testing that a non-decaying ratio really diverges
EPS_BOOST = 0.1

#: fraction of ambiguous rays above which a verdict becomes "inconclusive"
AMBIGUOUS_RAY_FRACTION = 0.05

#: slopes, or logs of ratios, within this of the largest tie for a witness; the first wins
TIE_TOL = 1e-12

#: a ray whose largest ratio is below this has vanished: it sets no worst slope, witness or typical base peak
VANISHED_PEAK = 1e-250

#: most directions a ray table may have; each is one row of it
MAX_DIRECTIONS = 2**16


@dataclass(frozen=True)
class RayConfig:
    """Sampling scheme for ray sweeps toward frequency infinity, on the radii 1, 2, 4, ..., 2^radii."""

    directions: int = 256
    radii: int = 40

    def __post_init__(self):
        if self.radii < 8:
            raise ValueError("need at least 8 radii (J >= 8)")
        if self.radii > 1023:
            raise ValueError(f"at most 1023 radii, got {self.radii}: the radius 2^1024 overflows a float")
        if self.directions > MAX_DIRECTIONS:
            raise ValueError(f"at most {MAX_DIRECTIONS} directions, got {self.directions}: a ray table has one row per direction")

    def validate_for_dimension(self, n: int) -> None:
        if self.directions < 2 * n:
            raise ValueError(f"need at least {2 * n} directions for dimension {n}")

    def radius_grid(self) -> np.ndarray:
        return 2.0 ** np.arange(self.radii + 1)


def unit_directions(n: int, count: int) -> np.ndarray:
    """Unit directions, each row once, in first-seen order.

    For n <= 3, points of the region x_1 >= ... >= x_n >= 0 and its corners e_1,
    (e_1 + e_2)/sqrt(2), ... mapped by every signed permutation, the identity
    first: closed bit for bit under sign flips and coordinate swaps, and each
    ray's copy in the region leads its mirror images.  For n >= 4, the first
    `count` directions of one fixed gaussian draw, the axes and, up to
    MAX_DIRECTIONS of them, the sign diagonals.
    """
    signs = 1.0 - 2.0 * np.array(list(np.ndindex(*(2,) * n))) if 2**n <= MAX_DIRECTIONS else np.zeros((0, n))
    if n >= 4:
        pts = np.random.default_rng(0).standard_normal((count, n))
        norms = np.linalg.norm(pts, axis=1)
        rows = np.concatenate([pts[norms > 1e-12] / norms[norms > 1e-12, None], signed_axes(n), signs / math.sqrt(n)])
    else:
        pts = np.zeros((0, n))
        if n == 2:
            k = -(-count // 8)
            angles = np.pi / 4 * (np.arange(k) + 0.5) / k
            pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        elif n == 3:  # the region's points of the Fibonacci sphere
            i = np.arange(count, dtype=float)
            z = 1 - 2 * (i + 0.5) / count
            r, phi = np.sqrt(np.maximum(0.0, 1 - z * z)), 2 * np.pi * i / ((1 + math.sqrt(5)) / 2)
            pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
            pts = pts[(pts[:, 0] >= pts[:, 1]) & (pts[:, 1] >= pts[:, 2]) & (pts[:, 2] >= 0)]
        region = np.concatenate([pts, np.tril(np.ones((n, n))) / np.sqrt(np.arange(1.0, n + 1))[:, None]])
        rows = np.concatenate([region[:, list(p)] * s for p in itertools.permutations(range(n)) for s in signs])
    return _distinct_rows(rows + 0.0)  # + 0.0 turns -0.0 into 0.0


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """Each row once, in first-seen order: a stable sort on the columns ranks each row's first copy first."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    return rows[np.sort(order[np.concatenate([[True], (ranked[1:] != ranked[:-1]).any(axis=1)])])]


def _cover(dirs: np.ndarray) -> float:
    """How far a unit vector, or its negative, can be from the nearest of the unit directions dirs.

    0 in 1-D; half the widest angular gap between neighbouring directions in 2-D; inf, no bound, above.
    """
    if dirs.shape[1] > 2:
        return math.inf
    if dirs.shape[1] == 1:
        return 0.0
    angles = np.sort(np.arctan2(dirs[:, 1], dirs[:, 0]))
    return float(np.diff(angles, append=angles[0] + 2 * np.pi).max()) / 2


def _characteristic_refinement(q: SymbolPolynomial, dirs: np.ndarray) -> np.ndarray:
    """Extra directions found by descending |principal part|^2 on the sphere, as an ascent of -|P_m|^2."""
    pm = q.principal_part()
    if pm.is_zero or q.order == 0:
        return np.zeros((0, q.dimension))
    # dividing by a power of two keeps |pm|^2 in range and changes no comparison below
    coeffs = np.array(list(pm.terms.values()), dtype=complex).view(float)
    scaled = np.ldexp(coeffs, -math.frexp(np.abs(coeffs).max())[1]).view(complex)
    pm = SymbolPolynomial(q.dimension, dict(zip(pm.terms, scaled)))
    vals = np.abs(pm(dirs))
    vmax = float(vals.max())
    # |grad xi^alpha| <= |alpha| = m on the unit ball, so pm is m sum|c_alpha|-Lipschitz there, and |pm| is even;
    # when |pm| stays above twice the keep bound, with room for rounding, within _cover(dirs) of every direction,
    # no point of the sphere can pass the keep test below
    lipschitz = q.order * float(np.abs(scaled).sum())
    if vmax == 0.0 or vals.min() > 2e-6 * vmax + (_cover(dirs) + 1e-9) * lipschitz:
        return np.zeros((0, q.dimension))
    order = np.argsort(vals, kind="stable")
    starts = dirs[order[: min(32, len(dirs))]]
    family = [pm, *(pm.derive(tuple(1 if j == k else 0 for j in range(q.dimension))) for k in range(q.dimension))]

    def score(pts):
        values = np.stack(list(_evaluate(family, pts)), axis=1)  # P_m, then its gradient
        return -(np.abs(values[:, 0]) ** 2), values

    def descent(pts, values):
        return -2 * np.real(np.conj(values[:, :1]) * values[:, 1:])

    def to_sphere(cand):
        cn = np.linalg.norm(cand, axis=1)
        cn[cn == 0] = 1.0
        return cand / cn[:, None]

    pts, neg_f = ascend(score, descent, to_sphere, starts, 0.1, 40)
    keep = -neg_f < (1e-6 * vmax) ** 2
    pts = pts[keep]
    # snap components that converged to machine-level zeros
    pts[np.abs(pts) < 1e-10] = 0.0
    return to_sphere(pts)


@dataclass
class RaySample:
    beta: MultiIndex
    direction: np.ndarray
    radius: float
    ratio: float
    slope: float


@dataclass
class HypoReport:
    verdict: str
    d_estimate: float | None = None
    d_snapped: tuple[int, int] | None = None
    fitted_c: float | None = None
    witness: RaySample | None = None
    per_beta_slopes: list[dict] = field(default_factory=list)


@dataclass
class StrengthReport:
    verdict: str
    ratio_bounds: tuple[float, float] | None = None
    witness: dict | None = None


def snap_rational(value: float) -> tuple[int, int] | None:
    """Nearest fraction with denominator at most 12.

    Returns (numerator, denominator) when within 2% relatively, else None.
    """
    if value <= 0:
        return None
    frac = Fraction(value).limit_denominator(12)
    if abs(frac - value) <= 0.02 * abs(value):
        return frac.numerator, frac.denominator
    return None


def _ray_grid(n: int, cfg: RayConfig, refine_for: SymbolPolynomial | None = None):
    """Directions, how many base ones lead them, and the radii.

    With `refine_for`, directions found by its characteristic search follow the base ones.
    """
    cfg.validate_for_dimension(n)
    dirs = unit_directions(n, cfg.directions)
    num_base = len(dirs)
    if refine_for is not None:
        dirs = np.concatenate([dirs, _characteristic_refinement(refine_for, dirs)], axis=0)
    return dirs, num_base, cfg.radius_grid()


def _log_abs_on_rays(family: Sequence[SymbolPolynomial], dirs: np.ndarray, radii: np.ndarray) -> list[np.ndarray]:
    """log|P(r theta)| for each P of the family, from the homogeneous parts H_k of P on each direction.

    The nonzero parts of the whole family are summed by one `_evaluate` call.  Each ray is scaled by its own top
    nonzero degree k*, as r^k* sum_{k <= k*} H_k(theta) r^(k - k*), so no radius overflows; a row of -inf is a
    ray on which P vanishes identically.  A P of positive order is shaped (rays, radii), a constant (rays, 1),
    the same at every radius.
    """
    scaled = []
    for p in family:
        coeffs = np.array(list(p.terms.values()), dtype=complex)
        if not np.isfinite(coeffs).all():
            raise HypoelError("a derivative of the symbol has a coefficient beyond floating-point range")
        # dividing by a power of two is exact and keeps every sum below in range
        scale = math.frexp(np.abs(coeffs.view(float)).max(initial=0.0))[1]
        terms = dict(zip(p.terms, np.ldexp(coeffs.view(float), -scale).view(complex)))
        scaled.append((scale, {k: SymbolPolynomial(p.dimension, {a: c for a, c in terms.items() if sum(a) == k})
                               for k in dict.fromkeys(map(sum, terms))}))
    values = _evaluate([h for _, by_degree in scaled for h in by_degree.values()], dirs)
    out = []
    for p, (scale, by_degree) in zip(family, scaled):
        m = p.order
        parts = np.zeros((len(dirs), m + 1), dtype=complex)
        for k in by_degree:
            parts[:, k] = next(values)
        top = m - np.argmax(parts[:, ::-1] != 0, axis=1)
        # column j of the reversed parts holds H_{k*-j}, the coefficient of r^-j
        shift = top[:, None] - np.arange(m + 1)
        reversed_parts = np.where(shift >= 0, parts[np.arange(len(parts))[:, None], shift], 0)
        r = radii if m else radii[:1]
        logs = np.abs(reversed_parts @ r ** -np.arange(m + 1.0)[:, None])
        with np.errstate(divide="ignore"):
            np.log(logs, out=logs)
        logs += top[:, None] * np.log(r) + scale * math.log(2.0)
        out.append(logs)
    return out


def _exp(logs):
    """Ratios from their logs; inf past the floating-point range."""
    with np.errstate(over="ignore"):
        return np.exp(logs)


@dataclass
class _RayTable:
    """The rays of one symbol, sampled and evaluated once for every sweep over them."""

    dirs: np.ndarray
    base: np.ndarray  # True on the base directions, which precede the refined ones
    radii: np.ndarray
    log_denom: np.ndarray  # log(1 + |Q|)
    derivatives: tuple[tuple[MultiIndex, np.ndarray], ...]  # beta, log|Q^(beta)|; the nonzero ones, beta = 0 first


def _ray_table(q: SymbolPolynomial, cfg: RayConfig) -> _RayTable:
    """The table of q on cfg's rays, each nonzero derivative evaluated once."""
    dirs, num_base, radii = _ray_grid(q.dimension, cfg, q)
    betas, family = zip(*q.nonzero_derivatives)
    derivatives = tuple(zip(betas, _log_abs_on_rays(family, dirs, radii)))
    log_denom = np.logaddexp(0.0, derivatives[0][1])
    return _RayTable(dirs, np.arange(len(dirs)) < num_base, radii, log_denom, derivatives)


def _sweep(table: _RayTable, derivatives, d: float = math.inf):
    """One derivative at a time: beta, logs of r^{|beta|/d} |Q^(beta)| / (1 + |Q|), their row maxima, slopes."""
    log_r = np.log(table.radii)
    for beta, log_abs in derivatives:
        logs = sum(beta) / d * log_r + log_abs - table.log_denom
        yield beta, logs, logs.max(axis=1), tail_slope(log_r, logs, 2)


def _first_max(values: np.ndarray, mask: np.ndarray | bool = True, current: float = -math.inf) -> int | None:
    """Index of the first value within TIE_TOL of the largest where mask holds, if it exceeds current by more than TIE_TOL.

    The one tie rule of every witness, for log-domain values: slopes, or logs of ratios.  NaN and -inf never win.
    """
    masked = np.where(mask & ~np.isnan(values), values, -np.inf)
    i = int(np.argmax(masked >= masked.max(initial=-np.inf) - TIE_TOL))
    return i if masked[i] > current + TIE_TOL else None


def _is_monotone_tail(logs: np.ndarray) -> np.ndarray:
    """Rows whose last 5 ratios never fall by more than 1e-12 relatively.

    Each row's ratios are taken relative to its largest one, so none overflows.
    """
    tail = logs[..., -5:]
    tail = np.exp(tail - tail.max(axis=-1, keepdims=True))
    return np.all(np.diff(tail, axis=-1) >= -1e-12 * np.abs(tail[..., :-1]), axis=-1)


#: refined-ray violations must exceed this multiple of the base rays' typical peak
REFINED_GUARD_FACTOR = 10.0


def _refined_guard(peaks: np.ndarray, base: np.ndarray) -> float:
    """Magnitude a refined ray must reach before its divergence is trusted.

    Refined directions sit arbitrarily close to characteristic sets, where a
    finite radius window shows transition plateaus of bounded ratios; only
    ratios well above the base grid's typical per-ray peak count as evidence.
    """
    base_maxima = peaks[base & (peaks > VANISHED_PEAK)]
    if not len(base_maxima):
        return 0.0
    return REFINED_GUARD_FACTOR * float(np.median(base_maxima))


def _worst_slope(beta: MultiIndex, slopes: np.ndarray, dirs: np.ndarray, mask: np.ndarray) -> list[dict]:
    """The per-beta record of the steepest ray in mask: one entry, or none without one."""
    i = _first_max(slopes, mask)
    if i is None:
        return []
    return [{"beta": list(beta), "worst_slope": float(slopes[i]), "direction": [float(v) for v in dirs[i]]}]


def _steepest(current: RaySample | None, table: _RayTable, beta, logs, peaks, slopes, growing):
    """Narrow growing rays to those with a monotone tail; return the steeper of current and them.

    Returns that sample (ties within TIE_TOL keep current) and the narrowed mask.  Refined
    rays below the guard show the transition plateau of a near-characteristic
    window and never give the sample.
    """
    if not growing.any():
        return current, growing
    growing[growing] = _is_monotone_tail(logs[growing])
    plateau = ~table.base & (peaks < _refined_guard(peaks, table.base))
    i = _first_max(slopes, growing & ~plateau, -math.inf if current is None else current.slope)
    if i is not None:
        current = RaySample(beta, table.dirs[i], float(table.radii[-1]), float(_exp(logs[i, -1])), float(slopes[i]))
    return current, growing


def _check_rays(table: _RayTable, d: float) -> HypoReport:
    """The symbol inequality at exponent d on every ray of the table.

    A ray whose ratios are NaN never gives the constant, a witness or a
    worst slope, and counts as an ambiguous base ray.
    """
    if not d >= 1:  # NaN fails too
        raise ValueError(f"exponent d must be >= 1, got {d}")
    fitted_c, best_log = 0.0, -math.inf
    best_sample: RaySample | None = None
    worst_violation: RaySample | None = None
    per_beta: list[dict] = []
    ambiguous = 0
    total_rays = 0

    for beta, logs, top, slopes in _sweep(table, table.derivatives, d):
        peaks = _exp(top)
        fitted_c = float(np.max(peaks, initial=fitted_c, where=~np.isnan(peaks)))
        i = _first_max(top, current=best_log)
        if i is not None:
            best_log, j = top[i], _first_max(logs[i])
            best_sample = RaySample(beta, table.dirs[i], float(table.radii[j]), float(_exp(logs[i, j])), 0.0)
        if sum(beta) == 0:
            continue
        active = ~(peaks < VANISHED_PEAK)
        counted = active & table.base
        total_rays += int(np.count_nonzero(counted))
        per_beta += _worst_slope(beta, slopes, table.dirs, counted)
        rising = active & (slopes > SLOPE_TOL)
        worst_violation, rising = _steepest(worst_violation, table, beta, logs, peaks, slopes, rising)
        with np.errstate(invalid="ignore"):
            growth = logs[:, -1] - logs[:, len(table.radii) // 2 :].min(axis=1)
        bounded = (slopes < -SLOPE_TOL) | ((np.abs(slopes) <= SLOPE_TOL) & (growth <= BOUNDED_GROWTH_TOL))
        ambiguous += int(np.count_nonzero(counted & ~rising & ~bounded))

    verdict = "hypoelliptic-consistent"
    if worst_violation is not None:
        verdict, best_sample = "violated", worst_violation
    elif total_rays and ambiguous / total_rays > AMBIGUOUS_RAY_FRACTION:
        verdict = "inconclusive"
    return HypoReport(verdict, fitted_c=fitted_c, witness=best_sample, per_beta_slopes=per_beta)


def check_hypoelliptic(q: SymbolPolynomial, d: float, cfg: RayConfig | None = None) -> HypoReport:
    """Test the symbol inequality |xi|^{|beta|/d} |Q^(beta)| <= C (1 + |Q|) on ray grids.

    Consistent when every ray's weighted ratio has tail slope within tolerance
    and certifiably bounded tail growth; violated when some ray grows
    monotonically at a rate above tolerance; inconclusive when too many rays
    are ambiguous.
    """
    if q.is_zero:
        raise HypoelError("cannot test hypoellipticity of the zero symbol")
    return _check_rays(_ray_table(q, cfg or RayConfig()), d)


def estimate_d(q: SymbolPolynomial, cfg: RayConfig | None = None) -> HypoReport:
    """Estimate the minimal exponent d from per-ray decay slopes of derivative ratios.

    For each beta the ratio |Q^(beta)|/(1 + |Q|) decays along rays at rate
    -|beta|/d when the inequality is tight, so d is the max over (beta, ray)
    of -|beta|/slope on decaying rays.  Non-decaying rays whose ratio,
    boosted by |xi|^EPS_BOOST, has a tail slope above SLOPE_TOL mean no d
    works.  The check at the estimate runs on the same rays; a violation
    there is the verdict, with its witness.
    """
    return _estimate(q, cfg or RayConfig())[0]


def _estimate(q: SymbolPolynomial, cfg: RayConfig) -> tuple[HypoReport, _RayTable]:
    """estimate_d's report, and the ray table it came from, for a further check on the same rays."""
    if q.is_zero:
        raise HypoelError("cannot estimate the exponent of the zero symbol")
    if q.order < 1:
        raise HypoelError("exponent estimation needs order >= 1")
    table = _ray_table(q, cfg)

    d_best = 0.0
    candidates = 0
    per_beta: list[dict] = []
    violation: RaySample | None = None

    for beta, logs, top, slopes in _sweep(table, table.derivatives[1:]):
        peaks = _exp(top)
        active = ~(peaks < VANISHED_PEAK)
        per_beta += _worst_slope(beta, slopes, table.dirs, active & table.base)
        decaying = active & (slopes < -SLOPE_TOL)
        # refined rays mix plateau and decay within the window and would
        # distort the fitted decay rate
        fitted = decaying & table.base
        if fitted.any():
            d_best = max(d_best, float(np.max(-sum(beta) / slopes[fitted])))
            candidates += int(np.count_nonzero(fitted))
        diverging = active & ~decaying & (slopes + EPS_BOOST > SLOPE_TOL)
        violation, _ = _steepest(violation, table, beta, logs, peaks, slopes, diverging)

    if violation is None and candidates:
        d_est = max(d_best, 1.0)
        check = _check_rays(table, d_est)
        if check.verdict != "violated":
            snapped = snap_rational(d_est)
            return HypoReport(check.verdict, d_est, snapped, check.fitted_c, check.witness, per_beta), table
        violation = check.witness
    verdict = "inconclusive" if violation is None else "violated"
    return HypoReport(verdict, witness=violation, per_beta_slopes=per_beta), table


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
    cfg = cfg or RayConfig()
    dirs, _, radii = _ray_grid(p.dimension, cfg)
    return _compare_strengths(_log_strength(p, dirs, radii, {}), _log_strength(q, dirs, radii, {}), dirs, radii)


def _log_strength(s: SymbolPolynomial, dirs: np.ndarray, radii: np.ndarray, logs: dict) -> np.ndarray:
    """log Hormander strength of s on the rays, half the logsumexp of 2 log|s^(alpha)|; constants add in one column.

    `logs` maps derivatives to their log|.| on these rays; each distinct one of s it lacks is evaluated once and
    added.  A family member's rows do not depend on the rest of its family, so the floats are the same either way.
    """
    derivatives = sorted((ds for _, ds in s.nonzero_derivatives), key=lambda ds: ds.order)
    fresh = [ds for ds in dict.fromkeys(derivatives) if ds not in logs]
    logs.update(zip(fresh, _log_abs_on_rays(fresh, dirs, radii) if fresh else ()))
    squares = (2 * logs[ds] for ds in derivatives)
    return 0.5 * np.broadcast_to(functools.reduce(np.logaddexp, squares), (len(dirs), len(radii)))


def _compare_strengths(log_p, log_q, dirs, radii) -> StrengthReport:
    """The strength verdict from the logs of both strengths on the same rays."""
    log_t = log_p - log_q
    slopes = tail_slope(np.log(radii), log_t, 2)
    fwd, bwd = _first_max(slopes), _first_max(-slopes)
    fwd_bounded = fwd is None or slopes[fwd] <= SLOPE_TOL
    bwd_bounded = bwd is None or -slopes[bwd] <= SLOPE_TOL
    bounds = (float(_exp(log_t.min())), float(_exp(log_t.max())))
    if fwd_bounded and bwd_bounded:
        return StrengthReport("equally-strong", bounds)
    # the witness ray of the unbounded ratio, P/Q or Q/P
    i, sign = (bwd, -1.0) if fwd_bounded else (fwd, 1.0)
    witness = {
        "direction": [float(v) for v in dirs[i]],
        "radius": float(radii[-1]),
        "ratio": float(_exp(sign * log_t[i, -1])),
        "slope": float(sign * slopes[i]),
    }
    verdict = "P-weaker" if fwd_bounded else "Q-weaker" if bwd_bounded else "incomparable"
    return StrengthReport(verdict, bounds, witness)


def check_symbol_domination(r: SymbolPolynomial, q: SymbolPolynomial) -> dict:
    """Spot-check |R(xi)| <= C (1 + |Q(xi)|) on the ray grid; raises when it diverges."""
    if r.dimension != q.dimension:
        raise DimensionMismatch(f"dimension mismatch: R has dimension {r.dimension}, Q has dimension {q.dimension}")
    dirs, _, radii = _ray_grid(q.dimension, RayConfig())
    log_r, log_q = _log_abs_on_rays([r, q], dirs, radii)
    logs = np.broadcast_to(log_r - np.logaddexp(0.0, log_q), (len(dirs), len(radii)))
    slopes = tail_slope(np.log(radii), logs, 2)
    peaks = _exp(logs.max(axis=1))
    worst = _first_max(slopes, ~(peaks < VANISHED_PEAK))
    worst_slope = -math.inf if worst is None else float(slopes[worst])
    if worst_slope > SLOPE_TOL:
        raise PreconditionError(
            "symbol-domination",
            f"|R|/(1+|Q|) grows at rate {worst_slope:.3f} along direction "
            f"{[round(float(v), 6) for v in dirs[worst]]}",
        )
    return {"max_ratio": float(peaks.max()), "worst_slope": worst_slope}


def freeze_sample_points(domain, per_axis: int = 3) -> list[np.ndarray]:
    """Interior lattice points plus corners pulled inward by 1e-3 of each side, center always included."""
    n = domain.dimension
    axes = [lo + (np.arange(per_axis) + 0.5) / per_axis * (hi - lo) for lo, hi in zip(domain.lo, domain.hi)]
    pts = [np.array(p) for p in np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)]
    center = np.array(domain.center)
    if not any(np.allclose(p, center) for p in pts):
        pts.append(center)
    pull = [1e-3 * (hi - lo) for lo, hi in zip(domain.lo, domain.hi)]
    for signs in np.ndindex(*(2,) * n):
        pts.append(np.array([hi - d if s else lo + d for s, lo, hi, d in zip(signs, domain.lo, domain.hi, pull)]))
    return pts


def check_constant_strength(
    p: VariableOperator, cfg: RayConfig | None = None, points: int | None = None
) -> StrengthReport:
    """Freeze the operator on a lattice and compare every sample with the center.

    Constant strength holds when every frozen symbol is equally strong with
    the center-frozen one, compared as `equally_strong` compares them, on one
    ray grid; a frozen symbol that vanishes identically is an immediate
    failure witness.

    Each distinct frozen symbol is compared once, in lattice order, and one equal to the center's reuses the
    center's strength table.  The center's derivative logs, a (rays, radii) array each, are kept through the
    loop, so no point evaluates them again.
    """
    cfg = cfg or RayConfig()
    n = p.dimension
    if points is not None and points < 2:
        raise ValueError("points must be >= 2")
    if points is not None and points > 2**12:
        raise ValueError(f"at most 4096 freeze points, got {points}: each is a ray sweep of its own")
    per_axis = 3 if points is None else max(2, math.ceil(points ** (1.0 / n)))
    xs = [*freeze_sample_points(p.domain, per_axis), np.array(p.domain.center)]
    frozen = [(x, p.freeze(x)) for x in xs]
    for x, qx in frozen:
        if qx.is_zero:
            witness = {"x": [float(v) for v in x], "reason": "frozen symbol is identically zero"}
            return StrengthReport("not-constant-strength", witness=witness)
    q_center = frozen.pop()[1]
    dirs, _, radii = _ray_grid(n, cfg)
    center_logs: dict = {}
    log_center = _log_strength(q_center, dirs, radii, center_logs)

    lo, hi = math.inf, -math.inf
    compared = set()
    for x, qx in frozen:
        if qx in compared:
            continue
        compared.add(qx)
        log_qx = log_center if qx == q_center else _log_strength(qx, dirs, radii, dict(center_logs))
        rep = _compare_strengths(log_qx, log_center, dirs, radii)
        lo = min(lo, rep.ratio_bounds[0])
        hi = max(hi, rep.ratio_bounds[1])
        if rep.verdict != "equally-strong":
            witness = {"x": [float(v) for v in x], "pair_verdict": rep.verdict, "ray": rep.witness}
            return StrengthReport("not-constant-strength", (lo, hi), witness)
    return StrengthReport("constant-strength", (lo, hi))
