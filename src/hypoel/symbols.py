"""Sparse multivariate polynomial symbols of constant-coefficient operators.

A symbol is stored as a map from multi-indices (exponent tuples) to complex
coefficients.  The convention throughout the package is D_j = -i d/dx_j, so
that applying the operator Q(D) to the plane wave exp(i<xi, x>) multiplies it
by Q(xi): the Fourier multiplier of D^alpha is xi^alpha.

Terms with coefficient exactly zero are never stored, and term maps are kept
in graded-lexicographic order so equality and serialization are deterministic.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

from .domains import BoxDomain
from .errors import DimensionMismatch, DomainError, ParseError

MultiIndex = tuple[int, ...]


def _check_multi_index(alpha, dimension: int) -> MultiIndex:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != dimension:
        raise DimensionMismatch(f"multi-index {alpha} has length {len(alpha)}, expected {dimension}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index {alpha} has a negative entry")
    return alpha


def _grlex_key(alpha: MultiIndex):
    return (sum(alpha), alpha)


def _canonical(terms: Mapping[MultiIndex, complex]) -> dict[MultiIndex, complex]:
    kept = {a: complex(c) for a, c in terms.items() if complex(c) != 0}
    return {a: kept[a] for a in sorted(kept, key=_grlex_key)}


@dataclass(frozen=True)
class SymbolPolynomial:
    """Polynomial Q(xi) = sum_alpha a_alpha xi^alpha with complex coefficients."""

    dimension: int
    terms: dict[MultiIndex, complex] = field(default_factory=dict)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        cleaned = {}
        for alpha, c in self.terms.items():
            cleaned[_check_multi_index(alpha, self.dimension)] = c
        object.__setattr__(self, "terms", _canonical(cleaned))

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def constant(dimension: int, value: complex) -> "SymbolPolynomial":
        return SymbolPolynomial(dimension, {(0,) * dimension: value})

    @staticmethod
    def variable(dimension: int, index: int) -> "SymbolPolynomial":
        """The coordinate monomial xi_index (0-based)."""
        if not 0 <= index < dimension:
            raise ValueError(f"variable index {index} out of range for dimension {dimension}")
        e = [0] * dimension
        e[index] = 1
        return SymbolPolynomial(dimension, {tuple(e): 1.0})

    # -- basic queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def order(self) -> int:
        """Max |alpha| over nonzero terms; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(sum(a) for a in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolPolynomial):
            return NotImplemented
        return self.dimension == other.dimension and self.terms == other.terms

    def __hash__(self):
        return hash((self.dimension, tuple(self.terms.items())))

    def __repr__(self):
        if self.is_zero:
            return f"SymbolPolynomial({self.dimension}, 0)"
        parts = [f"{c!r}*xi^{a}" for a, c in self.terms.items()]
        return f"SymbolPolynomial({self.dimension}, {' + '.join(parts)})"

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other) -> "SymbolPolynomial":
        if isinstance(other, SymbolPolynomial):
            if other.dimension != self.dimension:
                raise DimensionMismatch(
                    f"cannot combine symbols of dimension {self.dimension} and {other.dimension}"
                )
            return other
        return SymbolPolynomial.constant(self.dimension, complex(other))

    def __add__(self, other) -> "SymbolPolynomial":
        other = self._coerce(other)
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, 0.0) + c
        return SymbolPolynomial(self.dimension, out)

    __radd__ = __add__

    def __neg__(self) -> "SymbolPolynomial":
        return SymbolPolynomial(self.dimension, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other) -> "SymbolPolynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "SymbolPolynomial":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "SymbolPolynomial":
        other = self._coerce(other)
        out: dict[MultiIndex, complex] = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                a = tuple(x + y for x, y in zip(a1, a2))
                out[a] = out.get(a, 0.0) + c1 * c2
        return SymbolPolynomial(self.dimension, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SymbolPolynomial":
        if not isinstance(k, (int, np.integer)) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = SymbolPolynomial.constant(self.dimension, 1.0)
        base = self
        k = int(k)
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus ----------------------------------------------------------------

    def derive(self, beta: Iterable[int]) -> "SymbolPolynomial":
        """Exact partial derivative d^beta Q with falling-factorial factors."""
        beta = _check_multi_index(beta, self.dimension)
        out: dict[MultiIndex, complex] = {}
        for alpha, c in self.terms.items():
            if any(a < b for a, b in zip(alpha, beta)):
                continue
            factor = 1.0
            for a, b in zip(alpha, beta):
                for j in range(b):
                    factor *= a - j
            a_new = tuple(a - b for a, b in zip(alpha, beta))
            out[a_new] = out.get(a_new, 0.0) + factor * c
        return SymbolPolynomial(self.dimension, out)

    def __call__(self, xi) -> complex | np.ndarray:
        """Evaluate at xi; accepts a single point or an array of shape (..., n)."""
        xi = _points(xi, self.dimension)
        out = next(_evaluate((self.terms,), xi))
        return complex(out) if xi.ndim == 1 else out

    @cached_property
    def nonzero_derivatives(self) -> tuple[tuple[MultiIndex, "SymbolPolynomial"], ...]:
        """The (alpha, d^alpha Q) with |alpha| <= order, alpha = 0 included, that are not zero, computed once."""
        derivatives = ((alpha, self.derive(alpha)) for alpha in multi_indices_up_to(self.dimension, self.order))
        return tuple((alpha, dq) for alpha, dq in derivatives if not dq.is_zero)

    def strength(self, xi) -> float | np.ndarray:
        """Hormander strength: sqrt of the sum of |d^alpha Q(xi)|^2 over all alpha."""
        xi = _points(xi, self.dimension)
        out = _root_sum_squares(_evaluate([dq.terms for _, dq in self.nonzero_derivatives], xi), xi.shape[:-1])
        return float(out) if xi.ndim == 1 else out

    def principal_part(self) -> "SymbolPolynomial":
        m = self.order
        return SymbolPolynomial(self.dimension, {a: c for a, c in self.terms.items() if sum(a) == m})

    # -- serialization --------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "terms": [
                {"alpha": list(a), "re": c.real, "im": c.imag} for a, c in self.terms.items()
            ],
        }

    @staticmethod
    def from_dict(doc: dict) -> "SymbolPolynomial":
        try:
            dim = int(doc["dimension"])
            terms = {}
            for rec in doc["terms"]:
                alpha = tuple(int(a) for a in rec["alpha"])
                if alpha in terms:
                    raise ParseError(f"duplicate multi-index {list(alpha)} in symbol document")
                terms[alpha] = complex(float(rec["re"]), float(rec.get("im", 0.0)))
                if not cmath.isfinite(terms[alpha]):
                    raise ParseError(f"non-finite coefficient {terms[alpha]} at multi-index {list(alpha)}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed symbol document: {exc}") from exc
        try:
            return SymbolPolynomial(dim, terms)
        except (DimensionMismatch, ValueError) as exc:
            raise ParseError(f"inconsistent symbol document: {exc}") from exc


def _points(xi, dimension: int) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1:] != (dimension,):
        raise DimensionMismatch(f"evaluation point has trailing dimension {xi.shape[-1:]}, expected {dimension}")
    return xi


def _evaluate(polys, coords) -> Iterator[np.ndarray]:
    """Each of polys, term maps such as ``SymbolPolynomial.terms``, in turn at coords, each power and monomial once.

    coords are points xi, shape (..., n), with x_j = ``xi[..., j]`` and values of the points' shape, or per-axis
    arrays such as ``GridSpec.mesh()``, with x_j = ``coords[j]`` and each value in its monomials' broadcast shape.
    A polynomial is summed term by term from zero in its map's order and a monomial multiplied out from one in
    axis order, with x_j^a taken as ``x_j ** a`` (which squares at a = 2), so each value has the bits of that
    polynomial alone at that point, and a mesh the bits of its dense nodes.
    """
    points = isinstance(coords, np.ndarray)
    shape = coords.shape[:-1] if points else ()
    powers, monomials = {}, {}
    for p in polys:
        for alpha in p:
            if alpha not in monomials:
                mono = None  # 1 * x is x exactly, so the product from one starts at the first factor
                for j, a in enumerate(alpha):
                    if a:
                        if (j, a) not in powers:
                            powers[j, a] = (coords[..., j] if points else coords[j]) ** a
                        mono = powers[j, a] if mono is None else mono * powers[j, a]
                monomials[alpha] = np.ones(shape) if mono is None else mono
        total = np.zeros(shape if points else np.broadcast_shapes(*(monomials[a].shape for a in p)), complex)[()]
        for alpha, c in p.items():
            total += c * monomials[alpha]  # in place; a point's 0-d total is a scalar ([()]), faster to add to
        yield total


def _root_sum_squares(values, shape) -> np.ndarray:
    """sqrt of the sum of |v|^2 over values, added in order from zeros of the given shape."""
    return np.sqrt(sum((np.abs(v) ** 2 for v in values), np.zeros(shape)))


def multi_indices_up_to(dimension: int, max_total: int) -> list[MultiIndex]:
    """All multi-indices alpha with |alpha| <= max_total, in graded-lex order: lex order within each total."""
    out: list[MultiIndex] = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining + 1):
            rec(prefix + (v,), remaining - v, slots - 1)

    for total in range(max_total + 1):
        rec((), total, dimension)
    return out


@dataclass(frozen=True)
class VariableOperator:
    """Operator P(x, D) whose coefficients are polynomials in x over a box domain."""

    dimension: int
    terms: dict[MultiIndex, SymbolPolynomial]
    domain: BoxDomain

    def __post_init__(self):
        if self.domain.dimension != self.dimension:
            raise DimensionMismatch(
                f"domain dimension {self.domain.dimension} != operator dimension {self.dimension}"
            )
        cleaned = {}
        for alpha, coeff in self.terms.items():
            alpha = _check_multi_index(alpha, self.dimension)
            if not isinstance(coeff, SymbolPolynomial):
                coeff = SymbolPolynomial.constant(self.dimension, complex(coeff))
            if coeff.dimension != self.dimension:
                raise DimensionMismatch(
                    f"coefficient polynomial for {alpha} has dimension {coeff.dimension}, "
                    f"expected {self.dimension}"
                )
            if not coeff.is_zero:
                cleaned[alpha] = coeff
        ordered = {a: cleaned[a] for a in sorted(cleaned, key=_grlex_key)}
        object.__setattr__(self, "terms", ordered)

    def freeze(self, x) -> SymbolPolynomial:
        """Constant-coefficient symbol with coefficients evaluated at x."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise DimensionMismatch(f"point has shape {x.shape}, expected ({self.dimension},)")
        if not self.domain.contains(x):
            raise DomainError(f"freeze point {tuple(x)} lies outside the closure of {self.domain}")
        # one family evaluation: each coefficient keeps the bits of its own evaluation at x
        coeffs = _evaluate([c.terms for c in self.terms.values()], x)
        return SymbolPolynomial(self.dimension, {a: complex(c) for a, c in zip(self.terms, coeffs)})

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "coefficients": [
                {"alpha": list(a), "poly": coeff.to_dict()} for a, coeff in self.terms.items()
            ],
            "domain": self.domain.to_dict(),
        }

    @staticmethod
    def from_dict(doc: dict) -> "VariableOperator":
        try:
            dim = int(doc["dimension"])
            terms = {}
            for rec in doc["coefficients"]:
                alpha = tuple(int(a) for a in rec["alpha"])
                if alpha in terms:
                    raise ParseError(f"duplicate multi-index {list(alpha)} in operator document")
                terms[alpha] = SymbolPolynomial.from_dict(rec["poly"])
            domain = BoxDomain.from_dict(doc["domain"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed operator document: {exc}") from exc
        try:
            return VariableOperator(dim, terms, domain)
        except (DimensionMismatch, ValueError) as exc:
            raise ParseError(f"inconsistent operator document: {exc}") from exc


def load(path) -> SymbolPolynomial | VariableOperator:
    """Load a symbol or variable operator from a JSON document on disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read symbol file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"symbol file {path} does not contain an object")
    if "coefficients" in doc:
        return VariableOperator.from_dict(doc)
    return SymbolPolynomial.from_dict(doc)
