"""Numerical verification of the a-priori growth estimates on concrete fixtures.

Each check evaluates both sides of an inequality on fixed grid fixtures, fits
the smallest constant making every unflagged margin nonnegative, and reports
per-case data.  Growth fits never assert qualitative inclusions as numeric
equalities; they assert finiteness of fitted constants and the tail behavior
of their log residuals on the fixture family.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .analysis import check_constant_strength, check_symbol_domination, estimate_d
from .domains import BoxDomain
from .errors import HypoelError, PreconditionError
from .fitting import slope_function
from .grids import (
    GridFunction,
    NormSweep,
    _box_l2,
    _box_slices,
    _derivative_sweep,
    _ifftn_on_box,
    _shrink_sup,
    derivative_norms,
    iterate_norms,
    restricted_l2,
    symbol_on_lattice,
)
from .sequences import RoumieuSequence, check_basic, fit_inclusion, gevrey
from .symbols import SymbolPolynomial, VariableOperator, multi_indices_up_to

#: relative slack allowed when re-checking margins at the fitted constant
MARGIN_REL_TOL = 1e-9

#: residual tail slopes up to this value count as nonpositive
RESIDUAL_SLOPE_TOL = 1e-9


def parse_fraction(text: str) -> Fraction:
    """`Fraction(text)`, but a ValueError first, from its float, for a decimal past the float range.

    `Fraction` writes out 10^|exponent|, so "1e10000000" took seconds.
    """
    mantissa, e, _ = text.lower().partition("e")
    if e:  # with an "e", float and Fraction accept the same texts
        value = float(text)
        if math.isinf(value) or value == 0 and any(digit in mantissa for digit in "123456789"):
            raise ValueError("past the float range")
        if value == 0:
            return Fraction(0)
    return Fraction(text)


class RationalExponent(Fraction):
    """Rational hypoellipticity exponent d = mu/nu >= 1, a Fraction in lowest terms within the float range."""

    def __new__(cls, mu: int, nu: int = 1):
        self = super().__new__(cls, mu, nu)
        if self < 1:
            raise ValueError(f"exponent must be >= 1, got {self}")
        if self > int(sys.float_info.max):  # an int, since a float operand would call __new__ again
            raise ValueError("exponent is past the float range")
        return self

    mu, nu = Fraction.numerator, Fraction.denominator  # the lowest terms Fraction keeps

    @property
    def value(self) -> float:
        return float(self)

    def gamma(self, order: int) -> float:
        """Iteration exponent d * m * mu for an operator of the given order."""
        return self.value * order * self.mu

    @classmethod
    def parse(cls, text: str | float) -> "RationalExponent":
        """A JSON number as the nearest fraction with denominator <= 1000, a string as `Fraction` reads it."""
        if isinstance(text, bool):
            raise TypeError(f"expected a number or a string, got {text!r}")
        frac = Fraction(text).limit_denominator(1000) if isinstance(text, (int, float)) else parse_fraction(str(text))
        return cls(frac.numerator, frac.denominator)


@dataclass
class EstimateCase:
    params: dict
    lhs: float
    rhs: float
    margin: float
    flagged: bool = False


@dataclass
class EstimateReport:
    verdict: str
    fitted_constant: float
    cases: list[EstimateCase] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    num_flagged: int = field(init=False)

    def __post_init__(self):
        self.num_flagged = sum(c.flagged for c in self.cases)


@dataclass
class GrowthFit:
    constant: float
    labels: list[int]
    norms: list[float]
    log_residuals: list[float | None]
    slope: float
    flagged: list[bool]
    target: str
    #: least-squares slope of the residuals over the last third of usable indices
    residual_tail_slope: float = field(init=False)

    def __post_init__(self):
        pts = [(l, r) for l, r, f in zip(self.labels, self.log_residuals, self.flagged) if r is not None and not f]
        labels, residuals = zip(*pts) if pts else ((), ())
        self.residual_tail_slope = slope_function(labels, 3)(residuals)


def _as_fixture_list(u) -> list[GridFunction]:
    """One fixture or an iterable of them as a list; an empty one raises ValueError, since it checks nothing."""
    fixtures = [u] if isinstance(u, GridFunction) else list(u)
    if not fixtures:
        raise ValueError("the fixture list is empty")
    return fixtures


def _check_diameter(omega: BoxDomain) -> None:
    if omega.diameter >= 1.0:
        raise PreconditionError("domain-normalization", f"working box diameter {omega.diameter:.4f} must be < 1")


def _check_nodes_left(u: GridFunction, region: BoxDomain, delta: float) -> None:
    """Raise unless the region shrunk by delta holds a node of u's grid: an empty box compares nothing."""
    if any(s.start >= s.stop for s in _box_slices(u.spec, region, delta)):
        raise PreconditionError("empty-region", f"shrinking the region by the distance {delta} leaves no grid node")


def _fit(cases, powers, default: float = 0.0) -> float:
    """The smallest A with lhs <= A**k rhs on every unflagged case of power k >= 1.

    A vanishing right side under a nonzero left makes A infinite; with no
    case to fit, A is `default`.
    """
    ratios = [
        (c.lhs / c.rhs) ** (1.0 / k) if c.rhs > 0 else math.inf
        for c, k in zip(cases, powers)
        if k >= 1 and not c.flagged and (c.rhs > 0 or c.lhs > 0)
    ]
    return max(ratios, default=default)


def _close(cases, powers, default: float = 0.0) -> tuple[float, str]:
    """Fit A and close every case at it; the constant, capped at 1e300, and the verdict.

    Each case's right side becomes min(A**k, 1e300) times its unscaled one (an
    infinite one stays inf) and its margin rhs - lhs.  The verdict fails on an
    infinite A or on an unflagged margin below the relative tolerance.  A case
    whose sides are both infinite, or whose left side is NaN, compares nothing:
    it is flagged, so it neither sets A nor fails the verdict.
    """
    for case in cases:
        case.flagged = case.flagged or case.lhs == case.rhs == math.inf or math.isnan(case.lhs)
    fitted = _fit(cases, powers, default)
    verdict = "fail" if math.isinf(fitted) else "pass"
    for case, k in zip(cases, powers):
        if case.rhs != math.inf:
            try:
                case.rhs *= min(fitted**k, 1e300)
            except OverflowError:
                case.rhs *= 1e300
        # two sides past the float range have no margin, not a NaN one
        case.margin = 0.0 if case.lhs == case.rhs == math.inf else case.rhs - case.lhs
        if not case.flagged and case.margin < -MARGIN_REL_TOL * max(case.rhs, 1.0):
            verdict = "fail"
    return min(fitted, 1e300), verdict


def verify_dominated_transfer(
    q: SymbolPolynomial, r: SymbolPolynomial, d: RationalExponent, fixtures, omega: BoxDomain, t: float
) -> EstimateReport:
    """Shrink-norm transfer: N_dm(R(D)u) <= C' (N_dm(Q(D)u) + ||u||_{L2(omega)}).

    Requires the symbol domination |R| <= C (1 + |Q|) on the ray grid, which
    is the hypothesis under which the transfer holds for a d-hypoelliptic Q,
    and multipliers of R and Q within the float range on each fixture's grid.
    """
    fixtures = _as_fixture_list(fixtures)
    _check_diameter(omega)
    domination = check_symbol_domination(r, q)
    mu_exp = d.value * q.order
    cases = []
    per_grid = {}  # per grid: the multipliers of R and Q, and the shrink norm on the one box it reads
    for idx, u in enumerate(fixtures):
        if u.spec not in per_grid:
            with np.errstate(over="ignore", invalid="ignore"):
                mults = symbol_on_lattice(u.spec, r), symbol_on_lattice(u.spec, q)
            for name, sym, mult in zip("RQ", (r, q), mults):
                if not np.isfinite(mult).all():
                    raise PreconditionError("spectral-range", f"the multiplier of {name} = {sym!r} leaves the float "
                                            f"range on the grid of {u.spec.resolution} nodes per axis over {u.spec.cell}")
            per_grid[u.spec] = (*mults, *_shrink_sup(u.spec, omega, mu_exp, t))
        mult_r, mult_q, sup, box = per_grid[u.spec]
        lhs = sup(_ifftn_on_box(mult_r * u.spectrum(), box))
        rhs_core = sup(_ifftn_on_box(mult_q * u.spectrum(), box)) + restricted_l2(u, omega, 0.0)
        params = {"fixture": idx, "rhs_core": rhs_core}
        cases.append(EstimateCase(params, lhs, rhs_core, 0.0))
    fitted, verdict = _close(cases, [1] * len(cases))
    return EstimateReport(
        verdict=verdict,
        fitted_constant=fitted,
        cases=cases,
        extras={"domination": domination, "mu_exponent": mu_exp, "t": t},
    )


def _consistent_exponent(q: SymbolPolynomial, d: RationalExponent) -> float:
    """The symbol's estimated exponent; raises unless it is within 10% of d."""
    est = estimate_d(q)
    if est.verdict == "violated" or est.d_estimate is None:
        raise PreconditionError("exponent-consistency", "symbol shows a hypoellipticity violation")
    if abs(est.d_estimate - d.value) > 0.1 * d.value:
        raise PreconditionError(
            "exponent-consistency",
            f"estimated exponent {est.d_estimate:.3f} differs from d = {d.value} by more than 10%",
        )
    return est.d_estimate


def _iterate_sum(norms: list[float], k: int, base: float, exponent: float) -> float:
    """sum_i binom(k, i) base^{(k-i) exponent} ||Q^i u||: a term past the float range is inf, one of a zero norm 0."""
    total = 0.0
    for i in range(k + 1):
        if norms[i] == 0.0:
            continue
        try:
            total += math.comb(k, i) * base ** ((k - i) * exponent) * norms[i]
        except OverflowError:
            return math.inf
    return total


def verify_iterate_bound(
    q: SymbolPolynomial, d: RationalExponent, fixtures, omega: BoxDomain, kmax: int, deltas: Sequence[float]
) -> EstimateReport:
    """Derivative bound through operator iterates, in both exponent variants.

    For each k, |alpha| <= k m nu and delta, compares ||D^alpha u|| on the
    shrunk box against C^k sum_i binom(k, i) base^{(k-i) e} ||Q^i u||, where
    the statement variant uses base k/delta with e = d m and the proof
    variant uses base (k+1)/delta with e = d m mu.  The verdict uses the
    proof variant; both fitted constants are reported.  A sum past the float
    range is inf and binds neither fit.
    """
    if q.is_zero or q.order < 1:
        raise HypoelError("iterate bound needs a nonzero symbol of order >= 1")
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    if not deltas or not all(dl > 0 for dl in deltas):
        raise ValueError(f"the shrink distances must be one or more, each > 0, got {list(deltas)}")
    _check_diameter(omega)
    m = q.order
    fixtures = _as_fixture_list(fixtures)
    for u in fixtures:
        for dl in deltas:
            _check_nodes_left(u, omega, dl)
    _consistent_exponent(q, d)
    res = min(u.spec.resolution for u in fixtures)
    if kmax * m * d.nu > res // 2:
        raise PreconditionError(
            "spectral-resolution",
            f"max derivative order {kmax * m * d.nu} exceeds half the coarsest fixture resolution {res}",
        )

    alphas = multi_indices_up_to(q.dimension, kmax * m * d.nu)
    dm = d.value * m
    gamma = d.gamma(m)
    cases: list[EstimateCase] = []
    statement: list[EstimateCase] = []  # the same cases against the statement variant's right side
    powers: list[int] = []
    for fx, u in enumerate(fixtures):
        qsweep = iterate_norms(q, u, kmax, omega, 0.0)
        dsweep = _derivative_sweep(u, alphas, omega, deltas)
        for k in range(kmax + 1):
            q_flag = any(qsweep.flagged[: k + 1])
            sums = [
                (_iterate_sum(qsweep.norms, k, k / dl, dm), _iterate_sum(qsweep.norms, k, (k + 1) / dl, gamma))
                for dl in deltas
            ]
            for alpha in alphas:
                if sum(alpha) > k * m * d.nu:
                    continue
                d_flag, d_norms = dsweep[alpha]
                for dl, lhs, (s_statement, s_proof) in zip(deltas, d_norms, sums):
                    params = {"fixture": fx, "k": k, "alpha": list(alpha), "delta": dl}
                    flagged = d_flag or q_flag
                    cases.append(EstimateCase(params, lhs, s_proof, 0.0, flagged))
                    statement.append(EstimateCase(params, lhs, s_statement, 0.0, flagged))
                    powers.append(k)

    fitted_statement = _fit(statement, powers)
    fitted_proof, verdict = _close(cases, powers)
    return EstimateReport(
        verdict=verdict,
        fitted_constant=fitted_proof,
        cases=cases,
        extras={"fitted_constant_statement_variant": fitted_statement, "dm": dm, "gamma": gamma, "deltas": list(deltas)},
    )


# -- growth fits ----------------------------------------------------------------------


def _growth_fit_from_sweep(
    sweep: NormSweep, log_targets: list[float], target_name: str
) -> GrowthFit:
    # log_targets[i] is the target of sweep.labels[i]
    usable = [
        (l, n, target)
        for l, n, f, target in zip(sweep.labels, sweep.norms, sweep.flagged, log_targets)
        if not f and n > 0.0
    ]
    if not any(not f for f in sweep.flagged):
        raise HypoelError("all sweep entries are flagged as unresolved")
    # a zero fixture leaves nothing usable: 0 <= C^{k+1} target holds for the sentinel constant exp(-inf) = 0
    log_c = max(((math.log(n) - target) / (l + 1) for l, n, target in usable), default=-math.inf)
    residuals: list[float | None] = [
        None if f or n <= 0.0 else math.log(n) - (l + 1) * log_c - target
        for l, n, f, target in zip(sweep.labels, sweep.norms, sweep.flagged, log_targets)
    ]
    xs = [target for _, _, target in usable]
    ys = [math.log(n) for _, n, _ in usable]
    return GrowthFit(
        constant=math.exp(log_c),
        labels=sweep.labels,
        norms=sweep.norms,
        log_residuals=residuals,
        slope=slope_function(xs)(ys),
        flagged=sweep.flagged,
        target=target_name,
    )


def fit_roumieu_vector(
    u: GridFunction,
    q: SymbolPolynomial,
    m_seq: RoumieuSequence,
    region: BoxDomain,
    delta: float,
    lmax: int,
) -> GrowthFit:
    """Fit C with ||Q^l u|| <= C^{l+1} M_{l m} over the iterate sweep."""
    if q.is_zero:
        raise HypoelError("growth fit needs a nonzero symbol")
    sweep = iterate_norms(q, u, lmax, region, delta)
    m = q.order
    log_targets = [m_seq.log_m(l * m) for l in sweep.labels]
    return _growth_fit_from_sweep(sweep, log_targets, f"M_(l*{m})")


def fit_roumieu_space(
    u: GridFunction,
    m_seq: RoumieuSequence,
    d: float,
    region: BoxDomain,
    delta: float,
    amax: int,
) -> GrowthFit:
    """Fit C with max_{|alpha|=a} ||D^alpha u|| <= C^{a+1} (M_a)^d over derivative orders, for a finite d > 0."""
    if not 0 < d < math.inf:  # NaN fails too
        raise ValueError(f"power exponent d must be finite and > 0, got {d}")
    sweep = derivative_norms(u, amax, region, delta)
    log_targets = [float(d) * m_seq.log_m(a) for a in sweep.labels]
    return _growth_fit_from_sweep(sweep, log_targets, f"(M_a)^{d}")


@dataclass
class GrowthChainReport:
    verdict: str
    vector_fit: GrowthFit
    space_fit: GrowthFit
    preconditions: dict


def verify_growth_chain(
    u: GridFunction,
    q: SymbolPolynomial,
    m_seq: RoumieuSequence,
    d: RationalExponent,
    region: BoxDomain,
    delta: float,
    lmax: int,
    amax: int,
) -> GrowthChainReport:
    """Iterate growth against M implies derivative growth against M^d.

    Preconditions, checked for p <= 60: the sequence satisfies the basic
    conditions and dominates the d-th factorial power ((p!)^d included in
    M_p); the region shrunk by delta holds a grid node; and the symbol's
    estimated exponent is consistent with d.  Both growth fits must come
    back finite with nonpositive residual tail slopes for a pass verdict.
    """
    basics = check_basic(m_seq, 60)
    if not basics.all_passed:
        raise PreconditionError(
            "sequence-conditions", "sequence fails log-convexity or stability checks"
        )
    inclusion = fit_inclusion(gevrey(d.value), m_seq, 60)
    if not inclusion.holds:
        raise PreconditionError(
            "factorial-inclusion",
            f"(p!)^{d.value} is not included in the sequence, even up to a factor L^p "
            f"(the increments of the log-ratio grow at rate {inclusion.tail_slope:.3f} in log p)",
        )
    preconditions = {"sequence_conditions": basics, "factorial_inclusion": inclusion}
    _check_nodes_left(u, region, delta)
    preconditions["exponent_estimate"] = _consistent_exponent(q, d)

    vector = fit_roumieu_vector(u, q, m_seq, region, delta, lmax)
    space = fit_roumieu_space(u, m_seq, d.value, region, delta, amax)
    ok = (
        math.isfinite(vector.constant)
        and math.isfinite(space.constant)
        and vector.residual_tail_slope <= RESIDUAL_SLOPE_TOL
        and space.residual_tail_slope <= RESIDUAL_SLOPE_TOL
    )
    return GrowthChainReport(
        verdict="pass" if ok else "fail",
        vector_fit=vector,
        space_fit=space,
        preconditions=preconditions,
    )


def verify_domination(
    p: VariableOperator,
    x0,
    u: GridFunction,
    lmax: int,
    region: BoxDomain,
    delta: float = 0.0,
) -> EstimateReport:
    """Frozen-operator iterates against variable-operator iterates.

    Fits the smallest A with ||P0^l u|| <= A^l ||P^l u|| over unflagged l,
    where P0 is the operator frozen at x0 (applied spectrally in one step)
    and P^l u is the l-fold application of the variable operator.  The
    operator must be of constant strength.
    """
    if lmax < 0:
        raise ValueError("lmax must be >= 0")
    _check_nodes_left(u, region, delta)
    strength = check_constant_strength(p)
    if strength.verdict != "constant-strength":
        raise PreconditionError(
            "constant-strength",
            f"operator is not of constant strength (witness {strength.witness})",
        )
    total = u.l2_norm()
    # summed over the outside nodes: sqrt(total^2 - inside^2) cancels to ~1e-8 total
    outside_nodes = np.ones(u.values.shape, dtype=bool)
    outside_nodes[_box_slices(u.spec, p.domain, 0.0)] = False
    outside = _box_l2(np.abs(u.values[outside_nodes]) ** 2, u.spec.volume_element)
    if outside > 1e-9 * max(total, 1e-300):
        raise PreconditionError(
            "fixture-support", "fixture is not supported inside the operator's domain"
        )

    x0 = np.asarray(x0, dtype=float)
    lhs_sweep = iterate_norms(p.freeze(x0), u, lmax, region, delta)
    rhs_sweep = iterate_norms(p, u, lmax, region, delta)
    flags = [a or b for a, b in zip(lhs_sweep.flagged, rhs_sweep.flagged)]
    cases = [
        EstimateCase({"l": l, "x0": list(x0), "rhs_core": rhs}, lhs, rhs, 0.0, flag)
        for l, (lhs, rhs, flag) in enumerate(zip(lhs_sweep.norms, rhs_sweep.norms, flags))
    ]
    # a nonzero fixture with no iterate to fit is dominated at A = 1, the zero one at 0
    fitted, verdict = _close(cases, range(lmax + 1), default=1.0 if total else 0.0)
    return EstimateReport(
        verdict=verdict,
        fitted_constant=fitted,
        cases=cases,
        extras={"delta": delta},
    )
