"""Answers computed apart from hypoel, and the checks that compare against them.

Nothing here imports hypoel.  Symbols are plain ``{alpha: coefficient}``
dicts, grids are described by their cell corners and resolution, and every
reference is written from the definitions: closed forms where they exist
(quasi-elliptic exponents, plane-wave norms, Gevrey power bounds), brute
force elsewhere (shrink norms over explicit masks, spectral derivatives).

Each check returns ``None`` when the program's answer is right and a short
reason otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: relative tolerance for norms the program and the reference compute the same way
NORM_RTOL = 1e-9
#: relative tolerance for closed forms reached through a different arithmetic path
CLOSED_FORM_RTOL = 1e-9
#: slack when re-checking that an estimate case closes at its fitted constant
CLOSE_RTOL = 1e-9


# -- symbols -------------------------------------------------------------------


def poly_eval(terms: dict, xi: np.ndarray) -> np.ndarray:
    """sum_alpha c_alpha xi^alpha at points of shape (..., n)."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(xi.shape[:-1], dtype=complex)
    for alpha, c in terms.items():
        out = out + complex(c) * np.prod(xi ** np.asarray(alpha, dtype=float), axis=-1)
    return out


def poly_derive(terms: dict, beta: tuple) -> dict:
    out: dict = {}
    for alpha, c in terms.items():
        if any(a < b for a, b in zip(alpha, beta)):
            continue
        factor = math.prod(math.perm(a, b) for a, b in zip(alpha, beta))
        key = tuple(a - b for a, b in zip(alpha, beta))
        out[key] = out.get(key, 0) + factor * complex(c)
    return {k: v for k, v in out.items() if v != 0}


def strength(terms: dict, xi: np.ndarray) -> np.ndarray:
    """Hormander strength sqrt(sum_beta |d^beta P(xi)|^2), from the definition."""
    n = len(next(iter(terms)))
    order = max(sum(a) for a in terms)
    total = 0.0
    for beta in np.ndindex(*(order + 1,) * n):
        if sum(beta) <= order:
            d = poly_derive(terms, beta)
            if d:
                total = total + np.abs(poly_eval(d, xi)) ** 2
    return np.sqrt(total)


def quasi_elliptic_d(orders) -> tuple[int, int]:
    """Minimal exponent of sum_j c_j xi_j^{m_j} + lower order: max m_j / min m_j."""
    frac = Fraction(max(orders), min(orders))
    return frac.numerator, frac.denominator


def check_exponent(report, expected: tuple[int, int]) -> str | None:
    if report.verdict != "hypoelliptic-consistent":
        return f"verdict {report.verdict}, expected hypoelliptic-consistent"
    if report.d_snapped is None or tuple(report.d_snapped) != tuple(expected):
        return f"d_snapped {report.d_snapped} (d={report.d_estimate}), expected {expected}"
    return None


def check_verdict(report, expected: str) -> str | None:
    if report.verdict != expected:
        return f"verdict {report.verdict}, expected {expected}"
    return None


def check_temperate_one_plus_norm(fit) -> str | None:
    # 1 + |xi + eta| <= (1 + |eta|)(1 + |xi|), with equality at xi = 0
    if not fit.success or (fit.c, fit.n_exp) != (1.0, 1.0):
        return f"fit (C, N) = ({fit.c}, {fit.n_exp}), expected (1, 1)"
    return None


def ball_points(rng: np.random.Generator, count: int, n: int, radius: float) -> np.ndarray:
    """Points uniform in the closed n-ball of the given radius."""
    dirs = rng.standard_normal((count, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * radius * rng.random((count, 1)) ** (1.0 / n)


def check_temperate_fit(fit, terms: dict, xi: np.ndarray, eta: np.ndarray) -> str | None:
    """The fitted (C, N) must satisfy the inequality on the given pairs, strength recomputed here.

    A fit is claimed only for |xi| <= xi_radius and |eta| <= eta_radius of its
    sample configuration, so the pairs must lie in those balls.
    """
    if not fit.success:
        return "temperate fit failed"
    lhs = np.log(strength(terms, xi + eta)) - np.log(strength(terms, xi))
    rhs = fit.n_exp * np.log1p(fit.c * np.linalg.norm(eta, axis=-1))
    worst = float(np.max(lhs - rhs))
    if worst > 1e-9:
        return f"temperate inequality off by {worst:.3e} at fitted (C, N) = ({fit.c}, {fit.n_exp})"
    return None


def check_sandwich(report) -> str | None:
    if report.sandwich_lower_margin < 0:
        return f"sandwich lower margin {report.sandwich_lower_margin:.3e} < 0"
    if report.power_identity_residual > 1e-6:
        return f"power identity residual {report.power_identity_residual:.3e} > 1e-6"
    return None


# -- grids -----------------------------------------------------------------------


class Grid:
    """Periodic grid over an explicit cell, described without the program's GridSpec."""

    def __init__(self, lo, hi, resolution: int):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.resolution = resolution
        self.n = len(self.lo)
        self.axes = [a + (b - a) * np.arange(resolution) / resolution for a, b in zip(self.lo, self.hi)]
        self.dv = float(np.prod((self.hi - self.lo) / resolution))

    def mesh(self):
        return np.meshgrid(*self.axes, indexing="ij", sparse=True)

    def wavenumber(self, k) -> np.ndarray:
        return np.array([2 * np.pi * kj / (b - a) for kj, a, b in zip(k, self.lo, self.hi)])

    def frequency_mesh(self):
        freqs = [
            2 * np.pi * np.fft.fftfreq(self.resolution, d=(b - a) / self.resolution)
            for a, b in zip(self.lo, self.hi)
        ]
        return np.meshgrid(*freqs, indexing="ij", sparse=True)

    def mask(self, box_lo, box_hi, delta: float) -> np.ndarray:
        """Nodes strictly inside the box shrunk by delta."""
        out = np.ones((self.resolution,) * self.n, dtype=bool)
        for x, a, b in zip(self.mesh(), box_lo, box_hi):
            out &= (x > a + delta) & (x < b - delta)
        return out

    def norm(self, values: np.ndarray, mask: np.ndarray) -> float:
        return math.sqrt(float(np.sum(np.abs(values[mask]) ** 2)) * self.dv)


def plane_wave_values(grid: Grid, k) -> np.ndarray:
    kt = grid.wavenumber(k)
    return np.exp(1j * sum(kt[j] * x for j, x in enumerate(grid.mesh())))


def _bump(t: np.ndarray) -> np.ndarray:
    inside = np.abs(t) < 1
    out = np.zeros(np.broadcast(t).shape)
    ti = np.broadcast_to(t, out.shape)[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def gaussian_values(grid: Grid, support_lo, support_hi, width: float, center) -> np.ndarray:
    """Gaussian times a smooth cutoff vanishing outside the support box, unit L2 norm."""
    shape = (grid.resolution,) * grid.n
    vals = np.ones(shape)
    r2 = np.zeros(shape)
    for x, a, b, c in zip(grid.mesh(), support_lo, support_hi, center):
        r2 = r2 + (x - c) ** 2
        vals = vals * _bump((x - 0.5 * (a + b)) / (0.5 * (b - a)))
    vals = vals * np.exp(-r2 / (2 * width * width))
    return vals / math.sqrt(float(np.sum(vals**2)) * grid.dv)


def polynomial_values(grid: Grid, support_lo, support_hi, power: int) -> np.ndarray:
    vals = np.ones((grid.resolution,) * grid.n)
    for x, a, b in zip(grid.mesh(), support_lo, support_hi):
        t = (x - 0.5 * (a + b)) / (0.5 * (b - a))
        vals = vals * np.where(np.abs(t) < 1, (1 - t * t) ** power, 0.0)
    return vals


def multi_indices(n: int, total: int) -> list[tuple]:
    return [a for a in np.ndindex(*(total + 1,) * n) if sum(a) == total]


def spectral_norms(grid: Grid, values, multipliers, box_lo, box_hi, delta) -> list[float]:
    """Restricted norms of ifft(multiplier * fft(values)) for each multiplier."""
    u_hat = np.fft.fftn(values)
    mask = grid.mask(box_lo, box_hi, delta)
    return [grid.norm(np.fft.ifftn(m * u_hat), mask) for m in multipliers]


def derivative_norms_ref(grid: Grid, values, amax, box_lo, box_hi, delta) -> list[float]:
    freq = grid.frequency_mesh()
    out = []
    for a in range(amax + 1):
        mults = [math.prod(f**e for f, e in zip(freq, alpha)) for alpha in multi_indices(grid.n, a)]
        out.append(max(spectral_norms(grid, values, mults, box_lo, box_hi, delta)))
    return out


def iterate_norms_ref(grid: Grid, values, terms, lmax, box_lo, box_hi, delta) -> list[float]:
    freq = grid.frequency_mesh()
    shape = (grid.resolution,) * grid.n
    mult = sum(complex(c) * math.prod(f**e for f, e in zip(freq, alpha)) for alpha, c in terms.items())
    mult = np.broadcast_to(mult, shape)
    return spectral_norms(grid, values, [mult**l for l in range(lmax + 1)], box_lo, box_hi, delta)


def plane_wave_derivative_norms(grid: Grid, k, amax, box_lo, box_hi, delta) -> list[float]:
    """||D^alpha e^{i k.x}|| = |k^alpha| ||e^{i k.x}||, maximized over |alpha| = a."""
    kt = grid.wavenumber(k)
    base = math.sqrt(float(grid.mask(box_lo, box_hi, delta).sum()) * grid.dv)
    return [
        max(math.prod(abs(kj) ** e for kj, e in zip(kt, alpha)) for alpha in multi_indices(grid.n, a)) * base
        for a in range(amax + 1)
    ]


def plane_wave_iterate_norms(grid: Grid, k, terms, lmax, box_lo, box_hi, delta) -> list[float]:
    """||Q(D)^l e^{i k.x}|| = |Q(k)|^l ||e^{i k.x}||."""
    q = abs(complex(poly_eval(terms, grid.wavenumber(k))))
    base = math.sqrt(float(grid.mask(box_lo, box_hi, delta).sum()) * grid.dv)
    return [q**l * base for l in range(lmax + 1)]


def check_sweep(sweep, expected: list[float], rtol: float, unflagged_only: bool) -> str | None:
    if len(sweep.norms) != len(expected):
        return f"sweep has {len(sweep.norms)} entries, expected {len(expected)}"
    compared = 0
    for label, got, want, flagged in zip(sweep.labels, sweep.norms, expected, sweep.flagged):
        if unflagged_only and flagged:
            continue
        compared += 1
        if abs(got - want) > rtol * abs(want):
            return f"entry {label}: {got!r} vs reference {want!r}"
    if not compared:
        return "every entry flagged, nothing to compare"
    return None


def delta_grid(t: float, points: int = 200) -> np.ndarray:
    """The shrink distances of the shrink norm: geometric and uniform halves in (0, t]."""
    half = points // 2
    geo = t * np.geomspace(1e-4, 1.0, half)
    uni = t * (1.0 + np.arange(points - half)) / (points - half)
    return np.unique(np.concatenate([geo, uni]))


def brute_shrink_norm(grid: Grid, values, box_lo, box_hi, mu: float, t: float) -> float:
    """sup_delta delta^mu ||u||_{box shrunk by delta}, one explicit mask per delta."""
    best = 0.0
    for d in delta_grid(t):
        best = max(best, float(d) ** mu * grid.norm(values, grid.mask(box_lo, box_hi, float(d))))
    return best


def check_close(got: float, want: float, rtol: float) -> str | None:
    if abs(got - want) > rtol * abs(want):
        return f"{got!r} vs reference {want!r}"
    return None


# -- estimates -------------------------------------------------------------------


def check_cases_close(report, expected_verdict: str | None = "pass") -> str | None:
    """Every unflagged case must satisfy lhs <= rhs at the reported fitted constant."""
    if expected_verdict and report.verdict != expected_verdict:
        return f"verdict {report.verdict}, expected {expected_verdict}"
    if not math.isfinite(report.fitted_constant):
        return f"fitted constant {report.fitted_constant}"
    for case in report.cases:
        if not case.flagged and case.lhs > case.rhs + CLOSE_RTOL * max(case.rhs, 1.0):
            return f"case {case.params} does not close: lhs {case.lhs!r} > rhs {case.rhs!r}"
    if all(case.flagged for case in report.cases):
        return "every case flagged"
    return None


def slope(points) -> float:
    """Least-squares slope through (x, y) points."""
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    xm = x - x.mean()
    return float(np.dot(xm, y - y.mean()) / np.dot(xm, xm))


def log_gevrey(s: float, p: int) -> float:
    return s * sum(math.log(j) for j in range(2, p + 1))


def check_growth_fit(fit, log_target) -> str | None:
    """Unflagged norms must satisfy norm_l <= C^{l+1} exp(log_target(l))."""
    if not math.isfinite(fit.constant) or fit.constant <= 0:
        return f"fitted constant {fit.constant}"
    log_c = math.log(fit.constant)
    for label, norm, flagged in zip(fit.labels, fit.norms, fit.flagged):
        if flagged or norm <= 0:
            continue
        bound = (label + 1) * log_c + log_target(label)
        if math.log(norm) > bound + CLOSE_RTOL * max(abs(bound), 1.0):
            return f"{fit.target} entry {label} does not close at C={fit.constant!r}"
    return None


def check_growth_chain(report, s: float, d: float, order: int) -> str | None:
    return check_growth_fit(report.vector_fit, lambda l: log_gevrey(s, l * order)) or check_growth_fit(
        report.space_fit, lambda a: d * log_gevrey(s, a)
    )


# -- sequences -------------------------------------------------------------------


def gevrey_power_bound(s: float, pmax: int) -> float:
    """Smallest B with (2p)!^s <= B^p (p!)^{2s} for 1 <= p <= pmax: max_p C(2p, p)^{s/p}."""
    return max(math.exp(s * math.log(math.comb(2 * p, p)) / p) for p in range(1, pmax + 1))
