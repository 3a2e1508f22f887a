"""Defining sequences (M_p) for Roumieu-type classes, evaluated in log domain.

Factorial-scale quantities overflow quickly, so a sequence is represented by
its log evaluator log M_p rather than by stored values (except for explicit
user tables).  All condition checks and constant fits work on logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import HypoelError, ParseError
from .fitting import least_squares_slope

#: slope tolerance separating "bounded on range" from "divergent" in tail fits
SLOPE_TOL = 1e-3

#: absolute log-domain tolerance for the exact condition checks
LOG_TOL = 1e-9


def log_factorial(p: int) -> float:
    return math.lgamma(p + 1)


def log_binomial(p: int, j: int) -> float:
    return log_factorial(p) - log_factorial(j) - log_factorial(p - j)


class RoumieuSequence:
    """A positive sequence (M_p) with M_0 = 1, queried through log M_p."""

    kind: str

    def log_m(self, p: int) -> float:
        raise NotImplementedError

    def max_index(self) -> int | None:
        """Largest valid p, or None when the sequence is defined for all p."""
        return None

    def describe(self) -> dict:
        raise NotImplementedError

    def _check_index(self, p: int) -> int:
        p = int(p)
        if p < 0:
            raise ValueError(f"sequence index must be >= 0, got {p}")
        pmax = self.max_index()
        if pmax is not None and p > pmax:
            raise HypoelError(f"sequence defined only up to p={pmax}, requested p={p}")
        return p


class GevreySequence(RoumieuSequence):
    """M_p = (p!)^s for s >= 1."""

    kind = "gevrey"

    def __init__(self, s: float):
        s = float(s)
        if s < 1:
            raise ValueError(f"Gevrey order must be >= 1, got {s}")
        self.s = s

    def log_m(self, p: int) -> float:
        return self.s * log_factorial(self._check_index(p))

    def describe(self) -> dict:
        return {"kind": "gevrey", "s": self.s}


class TableSequence(RoumieuSequence):
    """Sequence given by an explicit table of positive values starting at M_0 = 1."""

    kind = "table"

    def __init__(self, values: Sequence[float]):
        values = [float(v) for v in values]
        if not values:
            raise ValueError("table must contain at least M_0")
        if any(v <= 0 for v in values):
            raise ValueError("table values must be strictly positive")
        if values[0] != 1.0:
            raise ValueError(f"table must start with M_0 = 1, got {values[0]}")
        self._logs = [math.log(v) for v in values]

    def log_m(self, p: int) -> float:
        return self._logs[self._check_index(p)]

    def max_index(self) -> int:
        return len(self._logs) - 1

    def describe(self) -> dict:
        return {"kind": "table", "length": len(self._logs)}


class PowerSequence(RoumieuSequence):
    """The sequence (M_p)^d for a base sequence and d > 0."""

    kind = "power"

    def __init__(self, base: RoumieuSequence, d: float):
        d = float(d)
        if d <= 0:
            raise ValueError(f"power exponent must be > 0, got {d}")
        self.base = base
        self.d = d

    def log_m(self, p: int) -> float:
        return self.d * self.base.log_m(p)

    def max_index(self) -> int | None:
        return self.base.max_index()

    def describe(self) -> dict:
        return {"kind": "power", "d": self.d, "base": self.base.describe()}


def gevrey(s: float) -> RoumieuSequence:
    return GevreySequence(s)


def power_sequence(m: RoumieuSequence, d: float) -> RoumieuSequence:
    return PowerSequence(m, d)


def load_table(path) -> TableSequence:
    """Read a two-column text table ``p  M_p`` with p strictly increasing from 0."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ParseError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
                rows.append((int(parts[0]), float(parts[1])))
    except OSError as exc:
        raise ParseError(f"cannot read sequence table {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"bad number in sequence table {path}: {exc}") from exc
    if [p for p, _ in rows] != list(range(len(rows))):
        raise ParseError(f"sequence table {path} must list p = 0, 1, 2, ... in order")
    try:
        return TableSequence([v for _, v in rows])
    except ValueError as exc:
        raise ParseError(f"invalid sequence table {path}: {exc}") from exc


# -- condition checks ------------------------------------------------------------


@dataclass
class ConditionCheck:
    passed: bool
    first_failure: tuple | None = None

    def to_dict(self) -> dict:
        return {"passed": self.passed, "first_failure": self.first_failure}


@dataclass
class InclusionFit:
    holds: bool
    big_l: float | None = None
    c: float | None = None
    tail_slope: float = 0.0
    witness_p: int | None = None

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "L": self.big_l,
            "C": self.c,
            "tail_slope": self.tail_slope,
            "witness_p": self.witness_p,
        }


@dataclass
class SequenceConditionReport:
    pmax: int
    h1: ConditionCheck = field(default_factory=lambda: ConditionCheck(True))
    root_monotone: ConditionCheck = field(default_factory=lambda: ConditionCheck(True))
    h3_left: ConditionCheck = field(default_factory=lambda: ConditionCheck(True))
    h3_right_h: float = 1.0
    h4_b: float | None = None
    inclusion: InclusionFit | None = None

    @property
    def all_passed(self) -> bool:
        return self.h1.passed and self.root_monotone.passed and self.h3_left.passed

    def to_dict(self) -> dict:
        return {
            "pmax": self.pmax,
            "h1": self.h1.to_dict(),
            "root_monotone": self.root_monotone.to_dict(),
            "h3_left": self.h3_left.to_dict(),
            "h3_right_h": self.h3_right_h,
            "h4_b": self.h4_b,
            "inclusion": self.inclusion.to_dict() if self.inclusion else None,
        }


def _require_range(m: RoumieuSequence, pmax: int) -> None:
    cap = m.max_index()
    if cap is not None and cap < pmax:
        raise HypoelError(f"sequence defined only up to p={cap}, need pmax={pmax}")


def check_basic(m: RoumieuSequence, pmax: int = 60) -> SequenceConditionReport:
    """Check log-convexity, p-th-root monotonicity, and the two-sided stability bound.

    The left stability inequality binom(p,j) M_{p-j} M_j <= M_p is tested
    exactly (log domain); the right one is reported through the smallest H
    with M_p <= H^p M_{p-j} M_j over the tested range.
    """
    if pmax < 4:
        raise ValueError("pmax must be >= 4")
    _require_range(m, pmax)
    logs = [m.log_m(p) for p in range(pmax + 1)]
    report = SequenceConditionReport(pmax=pmax)

    if abs(logs[0]) > LOG_TOL:
        report.h1 = ConditionCheck(False, (0,))
    for p in range(1, pmax):
        if 2 * logs[p] > logs[p - 1] + logs[p + 1] + LOG_TOL:
            if report.h1.passed:
                report.h1 = ConditionCheck(False, (p,))
            break

    for p in range(1, pmax):
        if logs[p] / p > logs[p + 1] / (p + 1) + LOG_TOL:
            report.root_monotone = ConditionCheck(False, (p,))
            break

    worst_h = 0.0
    for p in range(1, pmax + 1):
        for j in range(p + 1):
            lhs = log_binomial(p, j) + logs[p - j] + logs[j]
            if lhs > logs[p] + LOG_TOL and report.h3_left.passed:
                report.h3_left = ConditionCheck(False, (p, j))
            worst_h = max(worst_h, (logs[p] - logs[p - j] - logs[j]) / p)
    report.h3_right_h = math.exp(worst_h)
    return report


def fit_power_bound(m: RoumieuSequence, mu: int, nu: int, pmax: int = 60) -> float:
    """Smallest B with M_{pm} <= B^p (M_p)^m over tested p, for rational m = mu/nu.

    Only p that are multiples of nu are tested, so pm is always an integer.
    """
    frac = Fraction(mu, nu)
    if frac < 1:
        raise ValueError(f"power ratio must be >= 1, got {frac}")
    mu, nu = frac.numerator, frac.denominator
    tested = [p for p in range(nu, pmax + 1, nu)]
    if not tested:
        raise HypoelError(f"no tested p: denominator {nu} exceeds pmax={pmax}")
    cap = m.max_index()
    if cap is not None:
        tested = [p for p in tested if p * mu // nu <= cap]
        if not tested:
            raise HypoelError("sequence table too short for any tested p")
    ratio = float(frac)
    worst = -math.inf
    for p in tested:
        pm = p * mu // nu
        worst = max(worst, (m.log_m(pm) - ratio * m.log_m(p)) / p)
    return math.exp(worst)


def _tail_slope(values: Sequence[float]) -> float:
    """Least-squares slope against the index over the last half of the points (at least two)."""
    n = len(values)
    if n < 2:
        return 0.0
    start = min(n // 2, n - 2)
    return least_squares_slope(np.arange(start, n, dtype=float), np.asarray(values, dtype=float)[start:])


def fit_inclusion(m: RoumieuSequence, n: RoumieuSequence, pmax: int = 60) -> InclusionFit:
    """Fit constants (L, C) with M_p <= C L^p N_p, or report divergence.

    The verdict uses the tail slope of log(M_p/N_p) against p: bounded growth
    rates at most SLOPE_TOL count as holding.
    """
    _require_range(m, pmax)
    _require_range(n, pmax)
    r = [m.log_m(p) - n.log_m(p) for p in range(pmax + 1)]
    slope = _tail_slope(r)
    if slope > SLOPE_TOL:
        witness = max(range(1, pmax + 1), key=lambda p: r[p] / p)
        return InclusionFit(holds=False, tail_slope=slope, witness_p=witness)
    log_l = max(slope, 0.0)
    log_c = max(r[p] - p * log_l for p in range(pmax + 1))
    return InclusionFit(holds=True, big_l=math.exp(log_l), c=math.exp(log_c), tail_slope=slope)


def check_gevrey_domination(
    m: RoumieuSequence, ls: Sequence[float], pmax: int = 200
) -> list[dict]:
    """For each L, the smallest C with p! <= C L^p M_p on the range, or divergence."""
    _require_range(m, pmax)
    out = []
    for big_l in ls:
        big_l = float(big_l)
        if big_l <= 0:
            raise ValueError(f"L must be > 0, got {big_l}")
        g = [log_factorial(p) - p * math.log(big_l) - m.log_m(p) for p in range(pmax + 1)]
        slope = _tail_slope(g)
        if slope > SLOPE_TOL:
            out.append({"L": big_l, "holds": False, "tail_slope": slope})
        else:
            out.append({"L": big_l, "holds": True, "C": math.exp(max(g)), "tail_slope": slope})
    return out
