"""Periodic grid engine: sampling, spectral operator application, and norms.

Functions live on a uniform periodic grid over a cell that strictly contains
the working box.  Compactly supported bump fixtures stand in for smooth test
functions; differentiation and constant-coefficient operators act as Fourier
multipliers (D_j = -i d/dx_j, so D^alpha has multiplier xi^alpha).

The continuous Fourier transform uses the unitary convention (symmetric 2*pi
factors), fixed so the Plancherel identity holds with constant 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .domains import BoxDomain
from .errors import DimensionMismatch, DomainError, HypoelError, ParseError
from .symbols import SymbolPolynomial, VariableOperator, multi_indices_up_to

#: relative spectral mass in the outer shell above which an entry is unresolved
TAIL_FLAG_THRESHOLD = 1e-6


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid over a cell containing the working box omega."""

    omega: BoxDomain
    resolution: int = 64
    cell: BoxDomain | None = None

    def __post_init__(self):
        r = self.resolution
        if r < 16 or r & (r - 1):
            raise ValueError(f"resolution must be a power of two >= 16, got {r}")
        if self.cell is None:
            object.__setattr__(self, "cell", self.omega.scaled(1.5))
        else:
            for lo_c, hi_c, lo_o, hi_o in zip(self.cell.lo, self.cell.hi, self.omega.lo, self.omega.hi):
                if not (lo_c < lo_o and hi_o < hi_c):
                    raise DomainError("cell must strictly contain omega")

    @property
    def dimension(self) -> int:
        return self.omega.dimension

    def axes(self) -> list[np.ndarray]:
        """Node coordinates per axis (periodic: right endpoint excluded)."""
        return [
            lo + (hi - lo) * np.arange(self.resolution) / self.resolution
            for lo, hi in zip(self.cell.lo, self.cell.hi)
        ]

    def mesh(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.axes(), indexing="ij", sparse=True))

    def frequencies(self) -> list[np.ndarray]:
        """Angular frequency values per axis, fftfreq-ordered."""
        return [
            2 * np.pi * np.fft.fftfreq(self.resolution, d=(hi - lo) / self.resolution)
            for lo, hi in zip(self.cell.lo, self.cell.hi)
        ]

    def frequency_mesh(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.frequencies(), indexing="ij", sparse=True))

    @property
    def volume_element(self) -> float:
        return math.prod((hi - lo) / self.resolution for lo, hi in zip(self.cell.lo, self.cell.hi))

    def to_dict(self) -> dict:
        return {
            "omega": self.omega.to_dict(),
            "resolution": self.resolution,
            "cell": self.cell.to_dict(),
        }


class GridFunction:
    """Complex samples on a GridSpec's nodes."""

    def __init__(self, spec: GridSpec, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        expected = (spec.resolution,) * spec.dimension
        if values.shape != expected:
            raise DimensionMismatch(f"values have shape {values.shape}, expected {expected}")
        values = values.copy()
        values.flags.writeable = False
        self.spec = spec
        self.values = values
        self._spectrum: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    def spectrum(self) -> np.ndarray:
        """Cached forward FFT of the samples (unnormalized numpy convention)."""
        if self._spectrum is None:
            spectrum = np.fft.fftn(self.values)
            spectrum.flags.writeable = False
            self._spectrum = spectrum
        return self._spectrum

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.spec, values)

    def l2_norm(self) -> float:
        """Discrete L2 norm over the full periodic cell."""
        return math.sqrt(float(np.sum(np.abs(self.values) ** 2)) * self.spec.volume_element)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _require_same_spec(self, other)
        return GridFunction(self.spec, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _require_same_spec(self, other)
        return GridFunction(self.spec, self.values - other.values)

    def __mul__(self, scalar) -> "GridFunction":
        return GridFunction(self.spec, self.values * complex(scalar))

    __rmul__ = __mul__


def _require_same_spec(a: GridFunction, b: GridFunction) -> None:
    if a.spec != b.spec:
        raise HypoelError("grid functions live on different grids")


# -- sampling families --------------------------------------------------------------


def zero_function(spec: GridSpec) -> GridFunction:
    return GridFunction(spec, np.zeros((spec.resolution,) * spec.dimension, dtype=complex))


def plane_wave(spec: GridSpec, k: Sequence[int]) -> GridFunction:
    """exp(i <k_tilde, x>) with k_tilde the cell-scaled integer frequency."""
    k = list(k)
    if len(k) != spec.dimension:
        raise DimensionMismatch(f"frequency vector has length {len(k)}, expected {spec.dimension}")
    if any(float(kj) != int(kj) for kj in k):
        raise HypoelError(f"plane wave frequency {k} must be an integer vector on the periodic cell")
    kt = cell_frequency(spec, k)
    mesh = spec.mesh()
    phase = sum(kt[j] * mesh[j] for j in range(spec.dimension))
    return GridFunction(spec, np.exp(1j * phase))


def cell_frequency(spec: GridSpec, k: Sequence[int]) -> np.ndarray:
    """Angular frequency 2*pi*k/L of an integer lattice mode."""
    sides = spec.cell.sides
    return np.array([2 * np.pi * int(kj) / sides[j] for j, kj in enumerate(k)])


def _bump_profile(t: np.ndarray) -> np.ndarray:
    """Smooth bump on (-1, 1): exp(1 - 1/(1 - t^2)), extended by zero."""
    out = np.zeros_like(t)
    inside = np.abs(t) < 1
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def _support_cutoff(spec: GridSpec, support: BoxDomain) -> np.ndarray:
    mesh = spec.mesh()
    cut = np.ones((spec.resolution,) * spec.dimension)
    for j in range(spec.dimension):
        c = 0.5 * (support.lo[j] + support.hi[j])
        half = 0.5 * (support.hi[j] - support.lo[j])
        t = (mesh[j] - c) / half
        cut = cut * _bump_profile(np.broadcast_to(t, cut.shape) if t.ndim else t)
    return cut


def gaussian_bump(
    spec: GridSpec,
    width: float,
    center: Sequence[float] | None = None,
    support: BoxDomain | None = None,
    normalize: bool = True,
) -> GridFunction:
    """Gaussian of the given width, cut off smoothly to vanish outside omega.

    Normalized to unit discrete L2 norm by default so fitted constants are
    comparable across widths and resolutions.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    support = support or spec.omega
    center = np.asarray(center if center is not None else support.center, dtype=float)
    if center.shape != (spec.dimension,):
        raise DimensionMismatch(f"center has shape {center.shape}, expected ({spec.dimension},)")
    mesh = spec.mesh()
    r2 = sum((mesh[j] - center[j]) ** 2 for j in range(spec.dimension))
    core = np.exp(-r2 / (2.0 * width * width))
    out = GridFunction(spec, core * _support_cutoff(spec, support))
    if normalize:
        norm = out.l2_norm()
        if norm > 0:
            out = out * (1.0 / norm)
    return out


def polynomial_bump(spec: GridSpec, power: int = 8, support: BoxDomain | None = None) -> GridFunction:
    """Product of (1 - t_j^2)^power over omega, extended by zero."""
    if power < 1:
        raise ValueError("power must be >= 1")
    support = support or spec.omega
    mesh = spec.mesh()
    vals = np.ones((spec.resolution,) * spec.dimension)
    for j in range(spec.dimension):
        c = 0.5 * (support.lo[j] + support.hi[j])
        half = 0.5 * (support.hi[j] - support.lo[j])
        t = np.broadcast_to((mesh[j] - c) / half, vals.shape)
        vals = vals * np.where(np.abs(t) < 1, (1 - t * t) ** power, 0.0)
    return GridFunction(spec, vals)


def modulated_bump(spec: GridSpec, k: Sequence[int], width: float) -> GridFunction:
    """Plane wave times a gaussian bump, concentrating the spectrum near k_tilde."""
    wave = plane_wave(spec, k)
    bump = gaussian_bump(spec, width)
    return GridFunction(spec, wave.values * bump.values)


def sample(spec: GridSpec, family: str, /, **params) -> GridFunction:
    """Build a named fixture: zero, plane_wave, gaussian_bump, polynomial_bump, modulated_bump.

    A `support` box may be given as a `{"lo": ..., "hi": ...}` dict.  Missing,
    unknown or malformed parameters raise ParseError, which shows the family
    and the parameters given.
    """
    builders = {
        "zero": zero_function,
        "plane_wave": plane_wave,
        "gaussian_bump": gaussian_bump,
        "polynomial_bump": polynomial_bump,
        "modulated_bump": modulated_bump,
    }
    if family not in builders:
        raise HypoelError(f"unknown fixture family {family!r}")
    try:
        if isinstance(params.get("support"), dict):
            params["support"] = BoxDomain.from_dict(params["support"])
        return builders[family](spec, **params)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"fixture family {family!r} with {params}: {exc}") from None


# -- spectral application --------------------------------------------------------------


def _monomial(freq: list[np.ndarray], alpha) -> np.ndarray:
    """The multiplier xi^alpha of D^alpha on a sparse frequency mesh."""
    mono = np.ones((1,) * len(freq))
    for j, a in enumerate(alpha):
        if a:
            mono = mono * freq[j] ** a
    return mono


def symbol_on_lattice(spec: GridSpec, q: SymbolPolynomial) -> np.ndarray:
    if q.dimension != spec.dimension:
        raise DimensionMismatch(f"symbol dimension {q.dimension} != grid dimension {spec.dimension}")
    freq = spec.frequency_mesh()
    out = np.zeros((spec.resolution,) * spec.dimension, dtype=complex)
    for alpha, c in q.terms.items():
        out = out + c * _monomial(freq, alpha)
    return out


def apply_symbol(q: SymbolPolynomial, u: GridFunction) -> GridFunction:
    """Apply the constant-coefficient operator with symbol q as a Fourier multiplier."""
    mult = symbol_on_lattice(u.spec, q)
    return u.with_values(np.fft.ifftn(mult * u.spectrum()))


def apply_operator(op: SymbolPolynomial | VariableOperator, u: GridFunction) -> GridFunction:
    """Apply a constant- or variable-coefficient operator to a grid function.

    Variable coefficients are evaluated at the grid nodes; each D^alpha u is
    computed spectrally and combined pointwise.
    """
    if isinstance(op, SymbolPolynomial):
        return apply_symbol(op, u)
    if op.dimension != u.dimension:
        raise DimensionMismatch(f"operator dimension {op.dimension} != grid dimension {u.dimension}")
    spec = u.spec
    nodes = np.stack(np.meshgrid(*spec.axes(), indexing="ij"), axis=-1)
    freq = spec.frequency_mesh()
    u_hat = u.spectrum()
    out = np.zeros_like(u.values)
    for alpha, coeff in op.terms.items():
        d_alpha_u = np.fft.ifftn(_monomial(freq, alpha) * u_hat)
        out = out + coeff(nodes) * d_alpha_u
    return u.with_values(out)


def spectral_tail_fraction(spectrum: np.ndarray) -> float:
    """Norm fraction carried by the outer third of the frequency lattice.

    Returns ||outer-shell part|| / ||whole||, the resolution-insufficiency
    indicator compared against TAIL_FLAG_THRESHOLD.
    """
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


# -- norms ------------------------------------------------------------------------------


def _interior_mask(spec: GridSpec, region: BoxDomain, delta: float) -> np.ndarray | None:
    for lo_c, hi_c, lo_r, hi_r in zip(spec.cell.lo, spec.cell.hi, region.lo, region.hi):
        if lo_r < lo_c or hi_r > hi_c:
            raise DomainError("region must lie inside the periodic cell")
    shrunk = region.shrunk(delta)
    if shrunk is None:
        return None
    mesh = spec.mesh()
    mask = np.ones((spec.resolution,) * spec.dimension, dtype=bool)
    for j in range(spec.dimension):
        coord = np.broadcast_to(mesh[j], mask.shape)
        mask &= (coord > shrunk.lo[j]) & (coord < shrunk.hi[j])
    return mask


def restricted_l2(u: GridFunction, region: BoxDomain, delta: float = 0.0) -> float:
    """Midpoint-rule L2 norm over the region shrunk by delta (0 when empty)."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    mask = _interior_mask(u.spec, region, delta)
    if mask is None:
        return 0.0
    return math.sqrt(float(np.sum(np.abs(u.values[mask]) ** 2)) * u.spec.volume_element)


def delta_grid(t: float, points: int = 200) -> np.ndarray:
    """Geometric + uniform mix of shrink distances in (0, t]."""
    geo = t * np.geomspace(1e-4, 1.0, points // 2)
    uni = t * (1.0 + np.arange(points - points // 2)) / (points - points // 2)
    return np.unique(np.concatenate([geo, uni]))


def shrink_norm(u: GridFunction, region: BoxDomain, mu: float, t: float, points: int = 200) -> float:
    """sup over 0 < delta <= t of delta^mu * ||u||_{L2(region shrunk by delta)}."""
    if mu <= 0 or t <= 0:
        raise ValueError("mu and t must be > 0")
    best = 0.0
    for d in delta_grid(t, points):
        val = d**mu * restricted_l2(u, region, float(d))
        if val > best:
            best = val
    return best


def weighted_norm(u: GridFunction, h, p: float = 2.0) -> float:
    """Norm (integral of |h(xi) u_hat(xi)|^p dxi)^(1/p) over the frequency lattice.

    The discrete transform is scaled to approximate the unitary continuous
    transform of the compactly supported sample; p = inf returns the max.
    """
    spec = u.spec
    n = spec.dimension
    sides = spec.cell.sides
    scale = spec.volume_element / (2 * np.pi) ** (n / 2.0)
    u_hat = scale * u.spectrum()
    freq = np.stack(
        np.meshgrid(*spec.frequencies(), indexing="ij"), axis=-1
    )
    h_vals = h(freq) if callable(h) else float(h) * np.ones(u_hat.shape)
    weighted = np.abs(h_vals * u_hat)
    if math.isinf(p):
        return float(weighted.max())
    if p < 1:
        raise ValueError("p must be >= 1 (or inf)")
    d_xi = math.prod(2 * np.pi / s for s in sides)
    return float(np.sum(weighted**p) * d_xi) ** (1.0 / p)


# -- norm sweeps -------------------------------------------------------------------------


@dataclass
class NormSweep:
    """Restricted norms of operator iterates or derivative orders."""

    kind: str
    labels: list[int]
    norms: list[float]
    flagged: list[bool]
    region: dict = field(default_factory=dict)
    delta: float = 0.0
    grid: dict = field(default_factory=dict)

    def unflagged(self) -> list[tuple[int, float]]:
        return [(l, v) for l, v, f in zip(self.labels, self.norms, self.flagged) if not f]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "labels": self.labels,
            "norms": self.norms,
            "flagged": self.flagged,
            "region": self.region,
            "delta": self.delta,
            "grid": self.grid,
        }


def iterate_norms(
    op: SymbolPolynomial | VariableOperator,
    u: GridFunction,
    lmax: int,
    region: BoxDomain,
    delta: float = 0.0,
) -> NormSweep:
    """Restricted L2 norms of op^l u for l = 0..lmax.

    Constant-coefficient operators are applied in one spectral step per l to
    avoid error accumulation; entries whose spectral tail exceeds the
    threshold are flagged as unresolved rather than trusted.
    """
    if lmax < 0:
        raise ValueError("lmax must be >= 0")
    labels = list(range(lmax + 1))
    norms: list[float] = []
    flagged: list[bool] = []
    if isinstance(op, SymbolPolynomial):
        mult = symbol_on_lattice(u.spec, op)
        u_hat = u.spectrum()
        powered = np.ones_like(mult)
        for l in labels:
            if l > 0:
                powered = powered * mult
            spec_l = powered * u_hat
            flagged.append(spectral_tail_fraction(spec_l) > TAIL_FLAG_THRESHOLD)
            norms.append(restricted_l2(u.with_values(np.fft.ifftn(spec_l)), region, delta))
    else:
        current = u
        for l in labels:
            if l > 0:
                current = apply_operator(op, current)
            flagged.append(spectral_tail_fraction(current.spectrum()) > TAIL_FLAG_THRESHOLD)
            norms.append(restricted_l2(current, region, delta))
    return NormSweep(
        kind="iterates",
        labels=labels,
        norms=norms,
        flagged=flagged,
        region=region.to_dict(),
        delta=delta,
        grid=u.spec.to_dict(),
    )


def _derivative_sweep(u: GridFunction, alphas):
    """Yield (alpha, flagged, D^alpha u) for each alpha, one derivative at a time."""
    freq = u.spec.frequency_mesh()
    u_hat = u.spectrum()
    for alpha in alphas:
        spec_a = _monomial(freq, alpha) * u_hat
        yield alpha, spectral_tail_fraction(spec_a) > TAIL_FLAG_THRESHOLD, u.with_values(np.fft.ifftn(spec_a))


def derivative_norms(
    u: GridFunction, amax: int, region: BoxDomain, delta: float = 0.0
) -> NormSweep:
    """For each total order a, the max over |alpha| = a of the restricted norm of D^alpha u."""
    if amax < 0:
        raise ValueError("amax must be >= 0")
    labels = list(range(amax + 1))
    norms = [0.0] * len(labels)
    flagged = [False] * len(labels)
    for alpha, flag, d_alpha_u in _derivative_sweep(u, multi_indices_up_to(u.dimension, amax)):
        a = sum(alpha)
        flagged[a] = flagged[a] or flag
        norms[a] = max(norms[a], restricted_l2(d_alpha_u, region, delta))
    return NormSweep(
        kind="derivatives",
        labels=labels,
        norms=norms,
        flagged=flagged,
        region=region.to_dict(),
        delta=delta,
        grid=u.spec.to_dict(),
    )
