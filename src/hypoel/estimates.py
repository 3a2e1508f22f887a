"""Numerical verification of the a-priori growth estimates on concrete fixtures.

Each check evaluates both sides of an inequality on fixed grid fixtures, fits
the smallest constant making every unflagged margin nonnegative, and reports
per-case data.  Growth fits never assert qualitative inclusions as numeric
equalities; they assert finiteness of fitted constants and the tail behavior
of their log residuals on the fixture family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .analysis import (
    SLOPE_TOL,
    RayConfig,
    _capped,
    _first_max,
    _log_size,
    _ray_grid,
    _tail_slopes,
    check_constant_strength,
    estimate_d,
)
from .domains import BoxDomain
from .errors import HypoelError, PreconditionError
from .fitting import least_squares_slope
from .grids import (
    GridFunction,
    NormSweep,
    _derivative_sweep,
    _interior_mask,
    apply_symbol,
    derivative_norms,
    iterate_norms,
    restricted_l2,
    shrink_norm,
)
from .sequences import RoumieuSequence, check_basic, fit_inclusion, gevrey, power_sequence
from .symbols import SymbolPolynomial, VariableOperator, multi_indices_up_to

#: relative slack allowed when re-checking margins at the fitted constant
MARGIN_REL_TOL = 1e-9

#: residual tail slopes up to this value count as nonpositive
RESIDUAL_SLOPE_TOL = 1e-9


@dataclass(frozen=True)
class RationalExponent:
    """Rational hypoellipticity exponent d = mu/nu >= 1."""

    mu: int
    nu: int

    def __post_init__(self):
        frac = Fraction(self.mu, self.nu)
        if frac < 1:
            raise ValueError(f"exponent must be >= 1, got {frac}")
        object.__setattr__(self, "mu", frac.numerator)
        object.__setattr__(self, "nu", frac.denominator)

    @property
    def value(self) -> float:
        return self.mu / self.nu

    def gamma(self, order: int) -> float:
        """Iteration exponent d * m * mu for an operator of the given order."""
        return self.value * order * self.mu

    @staticmethod
    def parse(text: str | float) -> "RationalExponent":
        if isinstance(text, (int, float)):
            frac = Fraction(text).limit_denominator(1000)
        else:
            parts = str(text).split("/")
            if len(parts) == 1:
                frac = Fraction(parts[0])
            elif len(parts) == 2:
                frac = Fraction(int(parts[0]), int(parts[1]))
            else:
                raise ValueError(f"cannot parse exponent {text!r}")
        return RationalExponent(frac.numerator, frac.denominator)

    def to_dict(self) -> dict:
        return {"mu": self.mu, "nu": self.nu, "value": self.value}


@dataclass
class EstimateCase:
    params: dict
    lhs: float
    rhs: float
    margin: float
    flagged: bool = False

    def to_dict(self) -> dict:
        return {
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "flagged": self.flagged,
        }


@dataclass
class EstimateReport:
    verdict: str
    fitted_constant: float
    cases: list[EstimateCase] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def flagged_cases(self) -> list[EstimateCase]:
        return [c for c in self.cases if c.flagged]

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "fitted_constant": self.fitted_constant,
            "cases": [c.to_dict() for c in self.cases],
            "num_flagged": len(self.flagged_cases),
            "extras": self.extras,
        }


@dataclass
class GrowthFit:
    constant: float
    labels: list[int]
    norms: list[float]
    log_residuals: list[float | None]
    slope: float
    flagged: list[bool]
    target: str

    def residual_tail_slope(self) -> float:
        """Least-squares slope of the residuals over the last third of usable indices."""
        pts = [
            (l, r)
            for l, r, f in zip(self.labels, self.log_residuals, self.flagged)
            if r is not None and not f
        ]
        if len(pts) < 2:
            return 0.0
        start = max(0, len(pts) - max(2, math.ceil(len(pts) / 3)))
        labels, residuals = zip(*pts[start:])
        return least_squares_slope(labels, residuals)

    def to_dict(self) -> dict:
        return {
            "constant": self.constant,
            "labels": self.labels,
            "norms": self.norms,
            "log_residuals": self.log_residuals,
            "slope": self.slope,
            "flagged": self.flagged,
            "target": self.target,
            "residual_tail_slope": self.residual_tail_slope(),
        }


def _as_fixture_list(u) -> list[GridFunction]:
    if isinstance(u, GridFunction):
        return [u]
    return list(u)


def _check_diameter(omega: BoxDomain, enforce: bool) -> None:
    if enforce and omega.diameter >= 1.0:
        raise PreconditionError(
            "domain-normalization",
            f"working box diameter {omega.diameter:.4f} must be < 1 (pass enforce_diameter=False to skip)",
        )


def check_symbol_domination(
    r: SymbolPolynomial, q: SymbolPolynomial, cfg: RayConfig | None = None
) -> dict:
    """Spot-check |R(xi)| <= C (1 + |Q(xi)|) on the ray grid; raises when it diverges."""
    bounds = [(s.order, _log_size(s)) for s in (r, q)]
    cfg = _capped(cfg or RayConfig(), bounds, f"symbols of orders {r.order} and {q.order}")
    dirs, _, radii, xi = _ray_grid(q.dimension, cfg)
    ratio = np.abs(r(xi)) / (1.0 + np.abs(q(xi)))
    slopes = _tail_slopes(radii, np.log(np.maximum(ratio, 1e-300)))
    worst = _first_max(slopes, ~(ratio.max(axis=1) < 1e-250))
    worst_slope = -math.inf if worst is None else float(slopes[worst])
    if worst_slope > SLOPE_TOL:
        raise PreconditionError(
            "symbol-domination",
            f"|R|/(1+|Q|) grows at rate {worst_slope:.3f} along direction "
            f"{[round(float(v), 6) for v in dirs[worst]]}",
        )
    return {"max_ratio": float(ratio.max()), "worst_slope": worst_slope}


def verify_dominated_transfer(
    q: SymbolPolynomial,
    r: SymbolPolynomial,
    d: RationalExponent,
    fixtures,
    omega: BoxDomain,
    t: float,
    cfg: RayConfig | None = None,
    enforce_diameter: bool = True,
) -> EstimateReport:
    """Shrink-norm transfer: N_dm(R(D)u) <= C' (N_dm(Q(D)u) + ||u||_{L2(omega)}).

    Requires the symbol domination |R| <= C (1 + |Q|) on the ray grid, which
    is the hypothesis under which the transfer holds for a d-hypoelliptic Q.
    """
    _check_diameter(omega, enforce_diameter)
    domination = check_symbol_domination(r, q, cfg)
    mu_exp = d.value * q.order
    cases = []
    worst_ratio = 0.0
    for idx, u in enumerate(_as_fixture_list(fixtures)):
        lhs = shrink_norm(apply_symbol(r, u), omega, mu_exp, t)
        rhs_core = shrink_norm(apply_symbol(q, u), omega, mu_exp, t) + restricted_l2(u, omega, 0.0)
        if rhs_core > 0:
            worst_ratio = max(worst_ratio, lhs / rhs_core)
        elif lhs > 0:
            return EstimateReport(
                verdict="fail",
                fitted_constant=math.inf,
                cases=[EstimateCase({"fixture": idx}, lhs, 0.0, -lhs)],
                extras={"domination": domination, "reason": "zero right-hand side with nonzero left"},
            )
        cases.append(
            EstimateCase(
                {"fixture": idx, "mu_exponent": mu_exp, "t": t, "rhs_core": rhs_core},
                lhs,
                rhs_core,
                0.0,
            )
        )
    fitted = worst_ratio
    verdict = "pass"
    for case in cases:
        case.rhs = fitted * case.params["rhs_core"]
        case.margin = case.rhs - case.lhs
        if case.margin < -MARGIN_REL_TOL * max(case.rhs, 1.0):
            verdict = "fail"
    return EstimateReport(
        verdict=verdict,
        fitted_constant=fitted,
        cases=cases,
        extras={"domination": domination, "mu_exponent": mu_exp, "t": t},
    )


def _consistent_exponent(q: SymbolPolynomial, d: RationalExponent, ray_cfg: RayConfig | None) -> float:
    """The symbol's estimated exponent; raises unless it is within 10% of d."""
    est = estimate_d(q, ray_cfg)
    if est.verdict == "violated" or est.d_estimate is None:
        raise PreconditionError("exponent-consistency", "symbol shows a hypoellipticity violation")
    if abs(est.d_estimate - d.value) > 0.1 * d.value:
        raise PreconditionError(
            "exponent-consistency",
            f"estimated exponent {est.d_estimate:.3f} differs from d = {d.value} by more than 10%",
        )
    return est.d_estimate


def verify_iterate_bound(
    q: SymbolPolynomial,
    d: RationalExponent,
    fixtures,
    omega: BoxDomain,
    kmax: int,
    deltas: Sequence[float],
    enforce_diameter: bool = True,
    check_exponent: bool = True,
    ray_cfg: RayConfig | None = None,
) -> EstimateReport:
    """Derivative bound through operator iterates, in both exponent variants.

    For each k, |alpha| <= k m nu and delta, compares ||D^alpha u|| on the
    shrunk box against C^k sum_i binom(k, i) base^{(k-i) e} ||Q^i u||, where
    the statement variant uses base k/delta with e = d m and the proof
    variant uses base (k+1)/delta with e = d m mu.  The verdict uses the
    proof variant; both fitted constants are reported.
    """
    if q.is_zero or q.order < 1:
        raise HypoelError("iterate bound needs a nonzero symbol of order >= 1")
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    _check_diameter(omega, enforce_diameter)
    m = q.order
    fixtures = _as_fixture_list(fixtures)
    if check_exponent:
        _consistent_exponent(q, d, ray_cfg)
    res = fixtures[0].spec.resolution if fixtures else 0
    if fixtures and kmax * m * d.nu > res // 2:
        raise PreconditionError(
            "spectral-resolution",
            f"max derivative order {kmax * m * d.nu} exceeds half the resolution {res}",
        )

    alphas = multi_indices_up_to(q.dimension, kmax * m * d.nu)
    dm = d.value * m
    gamma = d.gamma(m)
    cases: list[EstimateCase] = []
    ratios_statement: list[float] = []
    ratios_proof: list[float] = []
    case_data = []

    for fx, u in enumerate(fixtures):
        qsweep = iterate_norms(q, u, kmax, omega, 0.0)
        d_norms: dict = {}
        d_flags: dict = {}
        for alpha, flag, da_u in _derivative_sweep(u, alphas):
            d_flags[alpha] = flag
            d_norms[alpha] = {dl: restricted_l2(da_u, omega, dl) for dl in deltas}
        for k in range(kmax + 1):
            for alpha in alphas:
                if sum(alpha) > k * m * d.nu:
                    continue
                for dl in deltas:
                    lhs = d_norms[alpha][dl]
                    flagged = d_flags[alpha] or any(qsweep.flagged[i] for i in range(k + 1))
                    s_statement = 0.0
                    s_proof = 0.0
                    for i in range(k + 1):
                        binom = math.comb(k, i)
                        qn = qsweep.norms[i]
                        s_statement += binom * (k / dl) ** ((k - i) * dm) * qn
                        s_proof += binom * ((k + 1) / dl) ** ((k - i) * gamma) * qn
                    case_data.append((fx, k, alpha, dl, lhs, s_statement, s_proof, flagged))
                    if flagged or k == 0:
                        continue
                    if s_proof > 0:
                        ratios_proof.append((lhs / s_proof) ** (1.0 / k))
                    elif lhs > 0:
                        ratios_proof.append(math.inf)
                    if s_statement > 0:
                        ratios_statement.append((lhs / s_statement) ** (1.0 / k))
                    elif lhs > 0:
                        ratios_statement.append(math.inf)

    fitted_proof = max(ratios_proof, default=0.0)
    fitted_statement = max(ratios_statement, default=0.0)
    verdict = "pass"
    if math.isinf(fitted_proof) or math.isinf(fitted_statement):
        # some case has a vanishing right-hand side against a nonzero left:
        # no constant can close it
        verdict = "fail"
        fitted_proof = min(fitted_proof, 1e300)
    for fx, k, alpha, dl, lhs, s_statement, s_proof, flagged in case_data:
        rhs_at_fit = min(fitted_proof**k, 1e300) * s_proof
        margin = rhs_at_fit - lhs
        cases.append(
            EstimateCase(
                {"fixture": fx, "k": k, "alpha": list(alpha), "delta": dl},
                lhs,
                rhs_at_fit,
                margin,
                flagged,
            )
        )
        if not flagged and margin < -MARGIN_REL_TOL * max(rhs_at_fit, 1.0):
            verdict = "fail"
    return EstimateReport(
        verdict=verdict,
        fitted_constant=fitted_proof,
        cases=cases,
        extras={
            "fitted_constant_proof_variant": fitted_proof,
            "fitted_constant_statement_variant": fitted_statement,
            "dm": dm,
            "gamma": gamma,
            "kmax": kmax,
            "deltas": list(deltas),
        },
    )


# -- growth fits ----------------------------------------------------------------------


def _growth_fit_from_sweep(
    sweep: NormSweep, log_targets: list[float], target_name: str
) -> GrowthFit:
    usable = [
        (l, n)
        for l, n, f in zip(sweep.labels, sweep.norms, sweep.flagged)
        if not f and n > 0.0
    ]
    if not any(not f for f in sweep.flagged):
        raise HypoelError("all sweep entries are flagged as unresolved")
    if not usable:
        # zero fixture: 0 <= C^{k+1} target holds for the sentinel constant 0
        return GrowthFit(
            constant=0.0,
            labels=sweep.labels,
            norms=sweep.norms,
            log_residuals=[None] * len(sweep.labels),
            slope=0.0,
            flagged=sweep.flagged,
            target=target_name,
        )
    log_c = max(
        (math.log(n) - log_targets[sweep.labels.index(l)]) / (l + 1) for l, n in usable
    )
    residuals: list[float | None] = []
    for l, n, f in zip(sweep.labels, sweep.norms, sweep.flagged):
        if f or n <= 0.0:
            residuals.append(None)
        else:
            residuals.append(math.log(n) - (l + 1) * log_c - log_targets[sweep.labels.index(l)])
    xs = [log_targets[sweep.labels.index(l)] for l, _ in usable]
    ys = [math.log(n) for _, n in usable]
    slope = least_squares_slope(xs, ys)
    return GrowthFit(
        constant=math.exp(log_c),
        labels=sweep.labels,
        norms=sweep.norms,
        log_residuals=residuals,
        slope=slope,
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
    """Fit C with max_{|alpha|=a} ||D^alpha u|| <= C^{a+1} (M_a)^d over derivative orders."""
    powered = power_sequence(m_seq, d) if d != 1.0 else m_seq
    sweep = derivative_norms(u, amax, region, delta)
    log_targets = [powered.log_m(a) for a in sweep.labels]
    return _growth_fit_from_sweep(sweep, log_targets, f"(M_a)^{d}")


@dataclass
class GrowthChainReport:
    verdict: str
    vector_fit: GrowthFit
    space_fit: GrowthFit
    preconditions: dict

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "vector_fit": self.vector_fit.to_dict(),
            "space_fit": self.space_fit.to_dict(),
            "preconditions": self.preconditions,
        }


def verify_growth_chain(
    u: GridFunction,
    q: SymbolPolynomial,
    m_seq: RoumieuSequence,
    d: RationalExponent,
    region: BoxDomain,
    delta: float,
    lmax: int,
    amax: int,
    pmax: int = 60,
    check_exponent: bool = True,
    ray_cfg: RayConfig | None = None,
) -> GrowthChainReport:
    """Iterate growth against M implies derivative growth against M^d.

    Preconditions: the sequence satisfies the basic conditions, dominates the
    d-th factorial power ((p!)^d included in M_p), and the symbol's estimated
    exponent is consistent with d.  Both growth fits must come back finite
    with nonpositive residual tail slopes for a pass verdict.
    """
    basics = check_basic(m_seq, pmax)
    if not basics.all_passed:
        raise PreconditionError(
            "sequence-conditions", "sequence fails log-convexity or stability checks"
        )
    inclusion = fit_inclusion(power_sequence(gevrey(1.0), d.value), m_seq, pmax)
    if not inclusion.holds:
        raise PreconditionError(
            "factorial-inclusion",
            f"(p!)^{d.value} is not included in the sequence "
            f"(log-ratio tail slope {inclusion.tail_slope:.3f} > 0)",
        )
    preconditions = {
        "sequence_conditions": basics.to_dict(),
        "factorial_inclusion": inclusion.to_dict(),
    }
    if check_exponent:
        preconditions["exponent_estimate"] = _consistent_exponent(q, d, ray_cfg)

    vector = fit_roumieu_vector(u, q, m_seq, region, delta, lmax)
    space = fit_roumieu_space(u, m_seq, d.value, region, delta, amax)
    ok = (
        math.isfinite(vector.constant)
        and math.isfinite(space.constant)
        and vector.residual_tail_slope() <= RESIDUAL_SLOPE_TOL
        and space.residual_tail_slope() <= RESIDUAL_SLOPE_TOL
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
    ray_cfg: RayConfig | None = None,
    check_strength: bool = True,
) -> EstimateReport:
    """Frozen-operator iterates against variable-operator iterates.

    Fits the smallest A with ||P0^l u|| <= A^l ||P^l u|| over unflagged l,
    where P0 is the operator frozen at x0 (applied spectrally in one step)
    and P^l u is the l-fold application of the variable operator.
    """
    if lmax < 0:
        raise ValueError("lmax must be >= 0")
    if check_strength:
        strength = check_constant_strength(p, ray_cfg)
        if strength.verdict != "constant-strength":
            raise PreconditionError(
                "constant-strength",
                f"operator is not of constant strength (witness {strength.witness})",
            )
    total = u.l2_norm()
    # summed over the outside nodes: sqrt(total^2 - inside^2) cancels to ~1e-8 total
    outside_nodes = ~_interior_mask(u.spec, p.domain, 0.0)
    outside = math.sqrt(float(np.sum(np.abs(u.values[outside_nodes]) ** 2)) * u.spec.volume_element)
    if outside > 1e-9 * max(total, 1e-300):
        raise PreconditionError(
            "fixture-support", "fixture is not supported inside the operator's domain"
        )

    q0 = p.freeze(np.asarray(x0, dtype=float))
    lhs_sweep = iterate_norms(q0, u, lmax, region, delta)
    rhs_sweep = iterate_norms(p, u, lmax, region, delta)
    cases = []
    ratios = []
    verdict = "pass"
    for l in range(lmax + 1):
        lhs = lhs_sweep.norms[l]
        rhs = rhs_sweep.norms[l]
        flagged = lhs_sweep.flagged[l] or rhs_sweep.flagged[l]
        if not flagged and l >= 1:
            if rhs > 0:
                ratios.append((lhs / rhs) ** (1.0 / l))
            elif lhs > 0:
                verdict = "fail"
        params = {"l": l, "x0": list(np.asarray(x0, dtype=float)), "rhs_core": rhs}
        cases.append(EstimateCase(params, lhs, rhs, 0.0, flagged))
    fitted = max(ratios, default=0.0 if total == 0.0 else 1.0)
    if total == 0.0:
        fitted = 0.0
    for case in cases:
        l = case.params["l"]
        raw = case.params["rhs_core"]
        case.rhs = fitted**l * raw if l >= 1 else raw
        case.margin = case.rhs - case.lhs
        if not case.flagged and case.margin < -MARGIN_REL_TOL * max(case.rhs, 1.0):
            verdict = "fail"
    return EstimateReport(
        verdict=verdict,
        fitted_constant=fitted,
        cases=cases,
        extras={"lmax": lmax, "delta": delta},
    )
