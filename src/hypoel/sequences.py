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
from .fitting import slope_function

#: slope tolerance separating "bounded on range" from "divergent" in tail fits
SLOPE_TOL = 1e-3

#: absolute log-domain tolerance for the exact condition checks
LOG_TOL = 1e-9

#: largest |log M_p| a check accepts: the checks add, double and difference logs, and
#: fit slopes to them, which must stay finite; (p!)^(1e300) passes up to p = 1000
LOG_LIMIT = 1e304


def log_factorial(p: int) -> float:
    return math.lgamma(p + 1)


def _exp(log_value: float) -> float:
    """A fitted constant from its log; inf past the floating-point range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


class RoumieuSequence:
    """A positive sequence (M_p) with M_0 = 1, queried through log M_p."""

    def log_m(self, p: int) -> float:
        raise NotImplementedError

    def max_index(self) -> int | None:
        """Largest valid p, or None when the sequence is defined for all p."""
        return None

    def _check_index(self, p: int) -> int:
        p = int(p)
        if p < 0:
            raise ValueError(f"sequence index must be >= 0, got {p}")
        pmax = self.max_index()
        if pmax is not None and p > pmax:
            raise HypoelError(f"sequence defined only up to p={pmax}, requested p={p}")
        return p


class GevreySequence(RoumieuSequence):
    """M_p = (p!)^s for a finite s >= 1."""

    def __init__(self, s: float):
        s = float(s)
        if not 1 <= s < math.inf:  # NaN fails too
            raise ValueError(f"Gevrey order must be {'>= 1' if s < 1 else 'finite'}, got {s}")
        self.s = s

    def log_m(self, p: int) -> float:
        return self.s * log_factorial(self._check_index(p))


class TableSequence(RoumieuSequence):
    """Sequence given by an explicit table of positive values starting at M_0 = 1."""

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


def gevrey(s: float) -> RoumieuSequence:
    return GevreySequence(s)


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


@dataclass
class InclusionFit:
    holds: bool
    L: float | None = None
    C: float | None = None
    tail_slope: float = 0.0
    witness_p: int | None = None


@dataclass
class SequenceConditionReport:
    h1: ConditionCheck = field(default_factory=lambda: ConditionCheck(True))
    root_monotone: ConditionCheck = field(default_factory=lambda: ConditionCheck(True))
    h3_left: ConditionCheck = field(default_factory=lambda: ConditionCheck(True))
    h3_right_h: float = 1.0
    h4_b: float | None = None
    inclusion: InclusionFit | None = None

    @property
    def all_passed(self) -> bool:
        return self.h1.passed and self.root_monotone.passed and self.h3_left.passed


def _logs(m: RoumieuSequence, ps: Sequence[int]) -> np.ndarray:
    """log M_p for each p of ps; raises past a table's end, and at the first log M_p not finite or past LOG_LIMIT."""
    logs = np.array([m.log_m(p) for p in ps])
    bad = np.flatnonzero(~(np.abs(logs) <= LOG_LIMIT))
    if bad.size:
        raise HypoelError(f"log M_p at p={ps[bad[0]]} is {float(logs[bad[0]])}, past the checks' limit {LOG_LIMIT:g}")
    return logs


def check_basic(m: RoumieuSequence, pmax: int = 60) -> SequenceConditionReport:
    """Check log-convexity, p-th-root monotonicity, and the two-sided stability bound.

    The left stability inequality binom(p,j) M_{p-j} M_j <= M_p is tested
    exactly (log domain); the right one is reported through the smallest H
    with M_p <= H^p M_{p-j} M_j over the tested range.
    """
    if pmax < 4:
        raise ValueError("pmax must be >= 4")
    logs = _logs(m, range(pmax + 1))
    report = SequenceConditionReport()

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

    # the triangle 1 <= p <= pmax, 0 <= j <= p, as the rows of one table
    lg = np.array([log_factorial(k) for k in range(pmax + 1)])
    p, j = np.ogrid[1 : pmax + 1, : pmax + 1]
    inside, k = j <= p, np.maximum(p - j, 0)
    failed = inside & (lg[p] - lg[j] - lg[k] + logs[k] + logs[j] > logs[p] + LOG_TOL)
    if failed.any():
        row, col = np.unravel_index(np.argmax(failed), failed.shape)
        report.h3_left = ConditionCheck(False, (int(row) + 1, int(col)))
    worst_h = np.max((logs[p] - logs[k] - logs[j]) / p, initial=0.0, where=inside)
    report.h3_right_h = _exp(worst_h)
    return report


def fit_power_bound(m: RoumieuSequence, mu: int, nu: int, pmax: int = 60) -> float:
    """Smallest B with M_{pm} <= B^p (M_p)^m over tested p, for rational m = mu/nu.

    Only p that are multiples of nu are tested, so pm is always an integer; both logs are read by `_logs`.
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
    worst = (_logs(m, [p * mu // nu for p in tested]) - float(frac) * _logs(m, tested)) / tested
    return _exp(float(worst.max()))


def fit_inclusion(m: RoumieuSequence, n: RoumieuSequence, pmax: int = 60) -> InclusionFit:
    """Fit constants (L, C) with M_p <= C L^p N_p, or report divergence.

    The classes ignore geometric factors a^p, so the inclusion holds when r_p = log(M_p/N_p) grows at most
    linearly: when the increments r_p - r_(p-1), fitted against log p over their last half, have slope at most
    SLOPE_TOL.  log L is then the largest increment there (at least 0), and C the smallest constant on the range.
    """
    r = _logs(m, range(pmax + 1)) - _logs(n, range(pmax + 1))
    increments = np.diff(r)
    tail = slope_function(np.log(np.arange(1, pmax + 1)), 2)
    slope = tail(increments)
    if slope > SLOPE_TOL:
        witness = max(range(1, pmax + 1), key=lambda p: r[p] / p)
        return InclusionFit(holds=False, tail_slope=slope, witness_p=witness)
    log_l = float(increments[tail.window].max(initial=0.0))
    log_c = float(np.max(r - np.arange(pmax + 1) * log_l))
    return InclusionFit(holds=True, L=_exp(log_l), C=_exp(log_c), tail_slope=slope)
