"""Periodic grid engine: sampling, spectral operator application, and norms.

Functions live on a uniform periodic grid over a cell that strictly contains
the working box.  Compactly supported bump fixtures stand in for smooth test
functions; differentiation and constant-coefficient operators act as Fourier
multipliers (D_j = -i d/dx_j, so D^alpha has multiplier xi^alpha).

The continuous Fourier transform uses the unitary convention (symmetric 2*pi
factors), fixed so the Plancherel identity holds with constant 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domains import BoxDomain
from .errors import DimensionMismatch, DomainError, HypoelError, ParseError
from .symbols import SymbolPolynomial, VariableOperator, _evaluate, multi_indices_up_to

#: relative spectral mass in the outer shell above which an entry is unresolved
TAIL_FLAG_THRESHOLD = 1e-6
#: relative slack of a derivative sweep's Plancherel cap, far above the rounding of the contraction and the FFT
CAP_SLACK = 1e-6
#: a cap is formed only where the sweep's squared sums stay between 1 / CAP_RANGE and CAP_RANGE
CAP_RANGE = 1e250


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


class GridFunction:
    """Complex samples on a GridSpec's nodes."""

    def __init__(self, spec: GridSpec, values: np.ndarray):
        values = np.array(values, dtype=complex)
        expected = (spec.resolution,) * spec.dimension
        if values.shape != expected:
            raise DimensionMismatch(f"values have shape {values.shape}, expected {expected}")
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
            spectrum = np.fft.fftn(self.values, out=np.empty_like(self.values))
            spectrum.flags.writeable = False
            self._spectrum = spectrum
        return self._spectrum

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.spec, values)

    def l2_norm(self) -> float:
        """Discrete L2 norm over the full periodic cell."""
        return _box_l2(np.abs(self.values) ** 2, self.spec.volume_element)

    def __mul__(self, scalar) -> "GridFunction":
        return GridFunction(self.spec, self.values * complex(scalar))

    __rmul__ = __mul__


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


def _support_product(spec: GridSpec, support: BoxDomain, profile) -> np.ndarray:
    """Product over axes of profile(t_j), t_j in [-1, 1] across the support box, each on its axis of the sparse mesh."""
    if support.dimension != spec.dimension:
        raise DimensionMismatch(f"support dimension {support.dimension} != grid dimension {spec.dimension}")
    out = np.ones((spec.resolution,) * spec.dimension)
    for x, lo, hi in zip(spec.mesh(), support.lo, support.hi):
        out = out * profile((x - 0.5 * (lo + hi)) / (0.5 * (hi - lo)))
    return out


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
    out = GridFunction(spec, core * _support_product(spec, support, _bump_profile))
    if normalize:
        norm = out.l2_norm()
        if norm > 0:
            out = out * (1.0 / norm)
    return out


def polynomial_bump(spec: GridSpec, power: int = 8, support: BoxDomain | None = None) -> GridFunction:
    """Product of (1 - t_j^2)^power over omega, extended by zero."""
    if power < 1:
        raise ValueError("power must be >= 1")
    profile = lambda t: np.where(np.abs(t) < 1, (1 - t * t) ** power, 0.0)  # noqa: E731
    return GridFunction(spec, _support_product(spec, support or spec.omega, profile))


def modulated_bump(spec: GridSpec, k: Sequence[int], width: float) -> GridFunction:
    """Plane wave times a gaussian bump, concentrating the spectrum near k_tilde."""
    wave = plane_wave(spec, k)
    bump = gaussian_bump(spec, width)
    return GridFunction(spec, wave.values * bump.values)


def sample(spec: GridSpec, family: str, /, **params) -> GridFunction:
    """Build a named fixture: zero, plane_wave, gaussian_bump, polynomial_bump, modulated_bump.

    A `support` box may be given as a `{"lo": ..., "hi": ...}` dict.  Missing,
    unknown or malformed parameters, and samples that are not all finite, raise
    ParseError, which shows the family and the parameters given.
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
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            u = builders[family](spec, **params)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"fixture family {family!r} with {params}: {exc}") from None
    if not np.isfinite(u.values).all():
        bad = f"{np.count_nonzero(~np.isfinite(u.values))} of {u.values.size} samples are not finite"
        raise ParseError(f"fixture family {family!r} with {params}: {bad}")
    return u


# -- spectral application --------------------------------------------------------------


def symbol_on_lattice(spec: GridSpec, q: SymbolPolynomial) -> np.ndarray:
    """q's multiplier on spec's frequency lattice, as a read-only full-grid view of its broadcast-shape value."""
    if q.dimension != spec.dimension:
        raise DimensionMismatch(f"symbol dimension {q.dimension} != grid dimension {spec.dimension}")
    return np.broadcast_to(next(_evaluate((q.terms,), spec.frequency_mesh())), (spec.resolution,) * spec.dimension)


def _operator_step(op: VariableOperator, spec: GridSpec):
    """u -> P(x, D)u on spec's grid: each D^alpha u computed spectrally and combined pointwise.

    Each term's multiplier xi^alpha and coefficient a_alpha(x) are evaluated once on the sparse meshes and
    held for the step's life (one sweep) in their monomials' broadcast shape: a constant as one value.
    """
    if op.dimension != spec.dimension:
        raise DimensionMismatch(f"operator dimension {op.dimension} != grid dimension {spec.dimension}")
    monomials = [{alpha: 1.0} for alpha in op.terms]
    # the real part keeps xi^alpha's bits also past the float range, where 1 * inf has a NaN imaginary part
    mults = (m.real for m in _evaluate(monomials, spec.frequency_mesh()))
    terms = list(zip(mults, _evaluate([c.terms for c in op.terms.values()], spec.mesh())))

    def step(u: GridFunction) -> GridFunction:
        out = np.zeros_like(u.values)
        for mult, coeff in terms:
            d_alpha_u = mult * u.spectrum()
            np.fft.ifftn(d_alpha_u, out=d_alpha_u)
            out = out + coeff * d_alpha_u  # coeff * ifftn(...) would multiply into the temporary, operands swapped
        return u.with_values(out)

    return step


def apply_operator(op: SymbolPolynomial | VariableOperator, u: GridFunction) -> GridFunction:
    """Apply a constant-coefficient operator as a Fourier multiplier, a variable one as `_operator_step`."""
    if isinstance(op, SymbolPolynomial):
        product = symbol_on_lattice(u.spec, op) * u.spectrum()
        return u.with_values(np.fft.ifftn(product, out=product))
    return _operator_step(op, u.spec)(u)


def _outer_slabs(ndim: int, n: int) -> list[tuple[slice, ...]]:
    """Disjoint boxes of slices covering the outer shell of an n^ndim frequency lattice.

    An index is outer when its signed frequency k has |k| >= n // 3, which in
    fftfreq order is the range n//3 .. n - n//3.  Slab j takes axis j outer and
    every earlier axis inner (two slices each); the later axes stay whole.
    """
    cut = n // 3
    outer = slice(cut, n - cut + 1)
    inner = (slice(0, cut), slice(n - cut + 1, n))
    return [head + (outer,) for j in range(ndim) for head in itertools.product(inner, repeat=j)]


def _tail_fractions(spectrum: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Outer-shell norm fraction of xi^alpha * spectrum for every alpha with entries <= top, and the log totals.

    Both tables are indexed by alpha.  S = |spectrum|^2 is scaled by a power
    of two to a peak in [1/4, 1), and xi^alpha by the scale-free weights
    (|xi_j| / max|xi_j|)^(2 a_j) = (2|k_j| / n)^(2 a_j), so nothing
    overflows.  The totals and the outer-shell sums of all alphas come from
    one contraction per disjoint slab.  A spectrum that is not finite gives
    NaN fractions; a log total (of sum |spectrum|^2 times the weights) is +inf
    there and where the scaled total, whose terms may underflow, is <= 1 / CAP_RANGE.
    """
    sq = np.abs(spectrum)
    peak = float(sq.max())
    if not math.isfinite(peak):
        return np.full((top + 1,) * sq.ndim, math.nan), np.full((top + 1,) * sq.ndim, math.inf)
    exponent = math.frexp(peak)[1]  # 0 for a zero spectrum
    np.ldexp(sq, -exponent, out=sq)
    np.square(sq, out=sq)
    ratio = 2.0 * np.abs(np.fft.fftfreq(sq.shape[0]))
    weights = (ratio * ratio)[:, None] ** np.arange(top + 1)

    def contract(box: tuple[slice, ...]) -> np.ndarray:
        table = sq[box]
        for j in range(sq.ndim):
            table = np.einsum("i...,ia->...a", table, weights[box[j]] if j < len(box) else weights)
        return table

    total = contract(())
    outer = sum(contract(box) for box in _outer_slabs(sq.ndim, sq.shape[0]))
    log_totals = np.log(total, out=np.full_like(total, math.inf), where=total > 1 / CAP_RANGE) + exponent * math.log(4)
    return np.sqrt(np.divide(outer, total, out=np.zeros_like(total), where=total > 0.0)), log_totals


def spectral_tail_fraction(spectrum: np.ndarray) -> float:
    """Norm fraction carried by the outer third of the frequency lattice.

    Returns ||outer-shell part|| / ||whole||, the resolution-insufficiency
    indicator compared against TAIL_FLAG_THRESHOLD (NaN for a spectrum that
    is not finite).
    """
    return float(_tail_fractions(spectrum, 0)[0][(0,) * spectrum.ndim])


def _unresolved(fraction: float, norms) -> bool:
    """Flag rule of every sweep entry: tail above the threshold, or a fraction or norm not finite."""
    return not (fraction <= TAIL_FLAG_THRESHOLD and all(math.isfinite(v) for v in norms))


def _past_range(norm: float) -> float:
    """A sweep entry's norm, NaN read as inf: NaN comes only from a multiplier or iterate past the float range."""
    return math.inf if math.isnan(norm) else norm


def _ifft_to_box(
    values: np.ndarray, axis: int, keep: slice, mult: np.ndarray | None = None, owned: bool = False
) -> np.ndarray:
    """One step of an inverse transform restricted to a box of nodes.

    Multiplies by `mult` along `axis` (when given), inverse-transforms that
    axis and keeps the index range `keep` on it.  Applied without multipliers
    to the axes last to first, as ifftn orders them, it gives the box of
    ifftn's result bit for bit.  The transform runs in place on the product,
    or on a contiguous copy of `values` (itself when contiguous) when the
    caller `owned` them; otherwise `values` is not written.
    """
    if mult is not None:
        shape = [1] * values.ndim
        shape[axis] = mult.size
        product = values * mult.reshape(shape)
        if not np.isfinite(mult).all():
            # 0 * a multiplier past the float range is NaN; an exact zero stays zero
            product[values == 0] = 0
        values, owned = product, True
    elif owned:
        values = np.ascontiguousarray(values)
    index = [slice(None)] * values.ndim
    index[axis] = keep
    return np.fft.ifft(values, axis=axis, out=values if owned else None)[tuple(index)]


def _ifftn_on_box(spectrum: np.ndarray, box: tuple[slice, ...]) -> np.ndarray:
    """ifftn(spectrum) on a box of nodes, bit for bit: each axis, last to first, inverse-transformed and cut to the box."""
    for axis in reversed(range(spectrum.ndim)):
        # the first pass writes a new array, which the later ones transform in place
        spectrum = _ifft_to_box(spectrum, axis, box[axis], owned=axis < spectrum.ndim - 1)
    return spectrum


# -- norms ------------------------------------------------------------------------------


def _box_bounds(spec: GridSpec, region: BoxDomain, delta) -> list[tuple]:
    """Per-axis (start, stop) indices of the nodes x with lo + delta < x < hi - delta.

    The nodes of a uniform grid are sorted on each axis, so the nodes inside a
    shrunk axis-aligned box form one contiguous range per axis (empty when the
    box is).  `delta` may be an array of shrink distances; then start and stop
    are arrays too.
    """
    for lo_c, hi_c, lo_r, hi_r in zip(spec.cell.lo, spec.cell.hi, region.lo, region.hi):
        if lo_r < lo_c or hi_r > hi_c:
            raise DomainError("region must lie inside the periodic cell")
    return [
        (np.searchsorted(axis, lo + delta, "right"), np.searchsorted(axis, hi - delta, "left"))
        for axis, lo, hi in zip(spec.axes(), region.lo, region.hi)
    ]


def _box_slices(spec: GridSpec, region: BoxDomain, delta: float) -> tuple[slice, ...]:
    """Per-axis index slices of the nodes inside the region shrunk by delta >= 0 (NaN is rejected)."""
    if not delta >= 0:
        raise ValueError("delta must be >= 0")
    return tuple(slice(int(start), int(stop)) for start, stop in _box_bounds(spec, region, delta))


def _box_l2(sq_box: np.ndarray, volume_element: float) -> float:
    """Midpoint-rule L2 norm from the |u|^2 of a box of nodes, summed in C order."""
    return math.sqrt(float(np.sum(sq_box.ravel())) * volume_element)


def restricted_l2(u: GridFunction, region: BoxDomain, delta: float = 0.0) -> float:
    """Midpoint-rule L2 norm over the region shrunk by delta (0 when empty)."""
    slices = _box_slices(u.spec, region, delta)
    return _box_l2(np.abs(u.values[slices]) ** 2, u.spec.volume_element)


def delta_grid(t: float) -> np.ndarray:
    """Shrink distances in (0, t]: 100 geometric from 1e-4 t and 100 uniform, without repeats."""
    geo = t * np.geomspace(1e-4, 1.0, 100)
    uni = t * (1.0 + np.arange(100)) / 100
    return np.unique(np.concatenate([geo, uni]))


def _shrink_sup(spec: GridSpec, region: BoxDomain, mu: float, t: float):
    """shrink_norm on spec's grid as a function of the values on the smallest distance's box, and that box.

    The distances and the bounds of their boxes are found once, for every set of values.
    """
    if not (0 < mu < math.inf and 0 < t < math.inf):
        raise ValueError(f"mu and t must be finite and > 0, got mu={mu}, t={t}")
    deltas = delta_grid(t)[::-1]
    bounds = _box_bounds(spec, region, deltas)
    outer = tuple(slice(int(start[-1]), int(stop[-1])) for start, stop in bounds)
    nonempty = np.flatnonzero(np.all([stop > start for start, stop in bounds], axis=0))

    def sup(values: np.ndarray) -> float:
        sq = np.abs(values) ** 2
        cap = _box_l2(sq, spec.volume_element) * (1 + 1e-12)
        best, seen = 0.0, None
        for i in nonempty:
            box = tuple(slice(int(start[i]) - o.start, int(stop[i]) - o.start) for (start, stop), o in zip(bounds, outer))
            if best > 0.0 and deltas[i] ** mu * cap <= best:  # until best > 0, d**mu is formed only for mass
                break
            if box != seen:
                seen, norm = box, _past_range(_box_l2(sq[box], spec.volume_element))
            if norm > 0.0:
                best = max(best, deltas[i] ** mu * norm)
        return best

    return sup, outer


def shrink_norm(u: GridFunction, region: BoxDomain, mu: float, t: float) -> float:
    """sup over 0 < delta <= t of delta^mu * ||u||_{L2(region shrunk by delta)}, delta in delta_grid(t).

    Every box lies in the smallest distance's box and |u|^2 >= 0, so no box's float norm tops cap,
    that norm times 1 + 1e-12.  The nonempty boxes are visited from the largest distance down until
    delta^mu * cap <= best; delta^mu only falls after that, so the result is the exhaustive maximum
    bit for bit.  An empty box adds nothing, and its delta^mu, never formed, may overflow.  A NaN box
    norm reads as inf, as in the sweeps, never as an empty box.
    """
    sup, outer = _shrink_sup(u.spec, region, mu, t)
    return sup(u.values[outer])


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

    labels: list[int]
    norms: list[float]
    flagged: list[bool]


def _spectral_entry(spectrum: np.ndarray, box: tuple, spec: GridSpec) -> tuple[float, float]:
    """Tail fraction of a spectrum and the norm of its inverse transform on a box of nodes."""
    return spectral_tail_fraction(spectrum), _box_l2(np.abs(_ifftn_on_box(spectrum, box)) ** 2, spec.volume_element)


def iterate_norms(
    op: SymbolPolynomial | VariableOperator,
    u: GridFunction,
    lmax: int,
    region: BoxDomain,
    delta: float = 0.0,
) -> NormSweep:
    """Restricted L2 norms of op^l u for l = 0..lmax.

    Constant-coefficient operators are applied in one spectral step per l to
    avoid error accumulation, and each op^l u is inverse-transformed only on
    the region's box of nodes.  Entries whose spectral tail exceeds the
    threshold, or whose tail or norm is not finite, are flagged as unresolved
    rather than trusted.
    """
    if lmax < 0:
        raise ValueError("lmax must be >= 0")
    labels = list(range(lmax + 1))
    norms: list[float] = []
    flagged: list[bool] = []
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(op, SymbolPolynomial):
            box = _box_slices(u.spec, region, delta)
            mult = symbol_on_lattice(u.spec, op)
            u_hat = u.spectrum()
            spec_l, zeros = u_hat, None  # l = 0 transforms u_hat itself, read-only and never redone
            for l in labels:
                if l == 1:
                    powered, spec_l = np.array(mult), np.empty_like(mult)
                elif l > 1:
                    powered *= mult
                if l > 0:
                    np.multiply(powered, u_hat, out=spec_l)
                fraction, norm = _spectral_entry(spec_l, box, u.spec)
                if l > 0 and not math.isfinite(norm):
                    # 0 * a power past the float range is NaN: redo with u_hat's exact zeros kept at zero
                    zeros = u_hat == 0 if zeros is None else zeros
                    if zeros.any():
                        spec_l[zeros] = 0
                        fraction, norm = _spectral_entry(spec_l, box, u.spec)
                norms.append(_past_range(norm))
                flagged.append(_unresolved(fraction, norms[-1:]))
        else:
            step, current = _operator_step(op, u.spec), u
            for l in labels:
                if l > 0:
                    current = step(current)
                norms.append(_past_range(restricted_l2(current, region, delta)))
                flagged.append(_unresolved(spectral_tail_fraction(current.spectrum()), norms[-1:]))
    return NormSweep(labels, norms, flagged)


def _plancherel_caps(u: GridFunction, alphas: list, log_totals: np.ndarray, nodes: int) -> np.ndarray:
    """Per alpha, a bound on the norm of D^alpha u on a box of `nodes` nodes, found without an FFT (inf: no bound).

    By Plancherel the squared cell norm, vol N^-n prod_k max|xi_k|^(2 a_k) exp(log_totals[alpha]), bounds the box's;
    |D^alpha u| <= N^-n sum |xi^alpha u_hat| at every node bounds it by sqrt(nodes vol) times that sum, exactly on a
    plane wave.  The cap is the smaller bound times 1 + CAP_SLACK; inf where a multiplier max|xi_k|^a_k, the square
    of sum |u_hat| prod_k max(1, max|xi_k|)^a_k, or the squared cell norm leaves the range CAP_RANGE keeps.
    """
    a = np.array(alphas).reshape(len(alphas), u.dimension)
    logs = a * np.log([np.abs(f).max() for f in u.spec.frequencies()])
    log_vol, bound = math.log(u.spec.volume_element), math.log(CAP_RANGE)
    log_n = u.dimension * math.log(u.spec.resolution)
    log_sq = log_totals[tuple(a.T)] + 2 * logs.sum(axis=1) - log_n
    mag = np.abs(u.spectrum())
    mass = float(mag.sum())
    log_sum = 2 * (np.log(mass) + np.maximum(logs, 0.0).sum(axis=1)) + max(log_vol, 0.0)
    inside = (logs.max(axis=1, initial=0.0) < bound) & (log_sum < bound) & (np.abs(log_sq + min(log_vol, 0.0)) < bound)
    # sum |u_hat| (|xi| / max|xi|)^alpha / mass for every alpha, contracted per axis as in _tail_fractions
    table = mag / mass
    weights = (2.0 * np.abs(np.fft.fftfreq(u.spec.resolution)))[:, None] ** np.arange(a.max(initial=0) + 1)
    for _ in range(u.dimension):
        table = np.einsum("i...,ia->...a", table, weights)
    log_sup = np.log(table[tuple(a.T)]) + np.log(mass) + logs.sum(axis=1) - log_n
    log_cap = np.minimum(0.5 * (log_sq + log_vol), log_sup + 0.5 * np.log(nodes * u.spec.volume_element))
    return np.where(inside, np.exp(log_cap) * (1 + CAP_SLACK), math.inf)


def _derivative_sweep(u: GridFunction, alphas: list, region: BoxDomain, deltas: Sequence[float], capped: bool = False) -> dict:
    """Flag and restricted norms of D^alpha u for each alpha, computed on the region's box only.

    Returns {alpha: (flagged, norms)}, one norm per shrink distance in deltas.
    D^alpha u is formed on the box of the smallest distance, one axis at a
    time, last axis first as ifftn orders them: multiply by xi_k^alpha_k,
    inverse-transform axis k, keep the box's range on it.  Alphas that share
    alpha[k:], k >= 1, share that partial (one is kept per axis) and are
    visited together, so each partial is formed once: groups by their largest
    `_plancherel_caps` cap and alphas by their own, descending (uncapped, by
    reversed entries).  Capped, an alpha whose cap is at most the best
    smallest-over-deltas norm so far for its order is skipped, with norms ()
    and its flag from its tail fraction: its norms are at most its cap, so
    each order's maxima and flags are exact.
    """
    n = u.dimension
    box = _box_slices(u.spec, region, min(deltas, default=0.0))
    # each distance's box as slices of the smallest distance's box; an empty box
    # may end before it starts, so its stop is raised to its start first
    subs = []
    for d in deltas:
        sub = _box_slices(u.spec, region, d)
        subs.append(tuple(slice(s.start - b.start, max(s.stop, s.start) - b.start) for s, b in zip(sub, box)))
    freq = u.spec.frequencies()
    u_hat = u.spectrum()
    partial: list[tuple | None] = [None] * n
    out, best = {}, {}
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fractions, log_totals = _tail_fractions(u_hat, max((max(a) for a in alphas), default=0))
        nodes = math.prod(s.stop - s.start for s in box)
        caps = dict(zip(alphas, _plancherel_caps(u, alphas, log_totals, nodes) if capped else itertools.repeat(math.inf)))
        top = {}  # per shared suffix alpha[k:], k >= 1, the largest cap of its alphas
        for alpha, k in itertools.product(alphas, range(1, n)):
            top[alpha[k:]] = max(top.get(alpha[k:], -math.inf), caps[alpha])
        suffixes_first = lambda a: (*((-top[a[k:]], a[k:]) for k in reversed(range(1, n))), -caps[a], a[0])
        for alpha in sorted(alphas, key=suffixes_first):
            order = sum(alpha)
            if caps[alpha] <= best.get(order, -math.inf):
                out[alpha] = (_unresolved(float(fractions[alpha]), ()), ())
                continue
            for k in reversed(range(n)):
                if partial[k] is None or partial[k][0] != alpha[k:]:
                    base = u_hat if k == n - 1 else partial[k + 1][1]
                    mult = freq[k] ** alpha[k] if alpha[k] else None
                    partial[k] = (alpha[k:], _ifft_to_box(base, k, box[k], mult))
            sq = np.abs(partial[0][1]) ** 2
            norms = tuple(_past_range(_box_l2(sq[sub], u.spec.volume_element)) for sub in subs)
            out[alpha] = (_unresolved(float(fractions[alpha]), norms), norms)
            if capped:
                best[order] = max(best.get(order, -math.inf), min(norms))
    return {alpha: out[alpha] for alpha in alphas}


def derivative_norms(
    u: GridFunction, amax: int, region: BoxDomain, delta: float = 0.0
) -> NormSweep:
    """For each order a, the max over |alpha| = a of the restricted norm of D^alpha u and any flag (capped, exact)."""
    if amax < 0:
        raise ValueError("amax must be >= 0")
    labels = list(range(amax + 1))
    norms = [0.0] * len(labels)
    flagged = [False] * len(labels)
    sweep = _derivative_sweep(u, multi_indices_up_to(u.dimension, amax), region, [delta], capped=True)
    for alpha, (flag, found) in sweep.items():
        a = sum(alpha)
        flagged[a] = flagged[a] or flag
        norms[a] = max((norms[a], *found))
    return NormSweep(labels, norms, flagged)
