import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoel import (
    DimensionMismatch,
    DomainError,
    ParseError,
    SymbolPolynomial,
    VariableOperator,
)
from hypoel.domains import BoxDomain
from hypoel.symbols import load, multi_indices_up_to, save

from conftest import random_symbol

# -- independent mini oracle ---------------------------------------------------
# plain dict-based polynomials, no shared code with the library


def oracle_diff(terms: dict, axis: int) -> dict:
    out = {}
    for alpha, c in terms.items():
        if alpha[axis] == 0:
            continue
        new = list(alpha)
        new[axis] -= 1
        key = tuple(new)
        out[key] = out.get(key, 0.0) + alpha[axis] * c
    return out


def oracle_derive(terms: dict, beta) -> dict:
    for axis, b in enumerate(beta):
        for _ in range(b):
            terms = oracle_diff(terms, axis)
    return terms


def oracle_eval(terms: dict, xi) -> complex:
    total = 0.0 + 0.0j
    for alpha, c in terms.items():
        mono = 1.0
        for x, a in zip(xi, alpha):
            mono *= x**a
        total += c * mono
    return total


def oracle_strength_sq(terms: dict, dimension: int, order: int, xi) -> float:
    total = 0.0
    for alpha in multi_indices_up_to(dimension, order):
        val = oracle_eval(oracle_derive(dict(terms), alpha), xi)
        total += abs(val) ** 2
    return total


# -- construction and invariants -------------------------------------------------


def test_zero_coefficients_are_dropped():
    q = SymbolPolynomial(2, {(1, 0): 0.0, (0, 1): 2.0})
    assert list(q.terms) == [(0, 1)]


def test_canonical_order_is_graded_lex():
    q = SymbolPolynomial(2, {(2, 0): 1, (0, 1): 1, (0, 2): 1, (1, 0): 1})
    assert list(q.terms) == [(0, 1), (1, 0), (0, 2), (2, 0)]


def test_zero_polynomial_has_order_zero():
    assert SymbolPolynomial.zero(3).order == 0
    assert SymbolPolynomial.zero(3).is_zero


def test_equality_is_term_map_equality():
    a = SymbolPolynomial(2, {(1, 0): 2.0})
    b = SymbolPolynomial(2, {(1, 0): 2.0 + 0j})
    c = SymbolPolynomial(2, {(1, 0): 2.5})
    assert a == b
    assert a != c


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        SymbolPolynomial(2, {(-1, 0): 1.0})


# -- derive ------------------------------------------------------------------------


def test_derive_monomial():
    q = SymbolPolynomial(2, {(2, 1): 1.0})  # xi1^2 xi2
    d = q.derive((1, 1))
    assert d == SymbolPolynomial(2, {(1, 0): 2.0})


def test_derive_zero_multi_index_is_identity():
    q = SymbolPolynomial(2, {(2, 1): 3.0, (0, 0): -1.0})
    assert q.derive((0, 0)) == q


def test_derive_beyond_order_is_zero():
    q = SymbolPolynomial(2, {(2, 1): 1.0})
    assert q.derive((3, 0)).is_zero


def test_derive_dimension_mismatch():
    q = SymbolPolynomial(2, {(1, 0): 1.0})
    with pytest.raises(DimensionMismatch):
        q.derive((1, 0, 0))


# -- eval ---------------------------------------------------------------------------


def test_eval_affine():
    q = SymbolPolynomial(1, {(0,): 1.0, (1,): 1.0})
    assert q((0.0,)) == 1.0


def test_eval_zero_polynomial():
    assert SymbolPolynomial.zero(2)((3.0, 4.0)) == 0.0


def test_eval_sum_of_squares():
    q = SymbolPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
    assert q((3.0, 4.0)) == pytest.approx(25.0, rel=1e-14)


def test_eval_vectorized_matches_pointwise():
    q = SymbolPolynomial(2, {(2, 0): 1.0, (1, 1): -2.0j})
    pts = np.array([[1.0, 2.0], [0.5, -1.0], [0.0, 0.0]])
    vals = q(pts)
    for p, v in zip(pts, vals):
        assert v == pytest.approx(complex(q(p)), rel=1e-14)


def test_eval_dimension_mismatch():
    q = SymbolPolynomial(2, {(1, 0): 1.0})
    with pytest.raises(DimensionMismatch):
        q((1.0, 2.0, 3.0))


# -- pow ------------------------------------------------------------------------------


def test_pow_square_of_variable():
    q = SymbolPolynomial.variable(2, 0)
    assert q**2 == SymbolPolynomial(2, {(2, 0): 1.0})


def test_pow_zero_is_one():
    q = SymbolPolynomial(2, {(2, 0): 5.0})
    assert q**0 == SymbolPolynomial.constant(2, 1.0)


def test_pow_binomial():
    q = SymbolPolynomial(1, {(0,): 1.0, (1,): 1.0})
    assert q**2 == SymbolPolynomial(1, {(0,): 1.0, (1,): 2.0, (2,): 1.0})


def test_pow_order_multiplies(laplacian):
    assert (laplacian**3).order == 6


# -- strength -------------------------------------------------------------------------


def test_strength_first_order_1d():
    q = SymbolPolynomial(1, {(1,): 1.0})
    for x in (0.0, 1.5, -2.0):
        assert q.strength((x,)) == pytest.approx(math.sqrt(x * x + 1.0), rel=1e-12)


def test_strength_constant():
    q = SymbolPolynomial.constant(2, 3.0 - 4.0j)
    assert q.strength((7.0, -1.0)) == pytest.approx(5.0, rel=1e-12)


def test_strength_laplacian_origin(laplacian):
    # surviving derivatives at 0: the two second-order constants, each 2
    assert laplacian.strength((0.0, 0.0)) == pytest.approx(math.sqrt(8.0), rel=1e-12)


def test_strength_dominates_symbol_value(laplacian):
    pts = np.array([[0.3, -1.0], [2.0, 2.0], [0.0, 0.0]])
    assert np.all(laplacian.strength(pts) >= np.abs(laplacian(pts)))


# -- freeze --------------------------------------------------------------------------


def box(*bounds):
    lo, hi = zip(*bounds)
    return BoxDomain(lo, hi)


def test_freeze_constant_coefficients(laplacian):
    op = VariableOperator(2, {(2, 0): 1.0, (0, 2): 1.0}, box((-1, 1), (-1, 1)))
    assert op.freeze((0.3, -0.4)) == laplacian


def test_freeze_vanishing_coefficient():
    x1 = SymbolPolynomial.variable(1, 0)
    op = VariableOperator(1, {(1,): x1}, box((-1, 1)))
    assert op.freeze((0.0,)).is_zero


def test_freeze_substitution():
    x1 = SymbolPolynomial.variable(1, 0)
    op = VariableOperator(1, {(2,): 1.0, (1,): x1}, box((-1, 1)))
    assert op.freeze((0.5,)) == SymbolPolynomial(1, {(2,): 1.0, (1,): 0.5})


def test_freeze_outside_closure_rejected():
    op = VariableOperator(1, {(1,): 1.0}, box((-1, 1)))
    with pytest.raises(DomainError):
        op.freeze((1.5,))


def test_freeze_on_boundary_allowed():
    op = VariableOperator(1, {(1,): 1.0}, box((-1, 1)))
    op.freeze((1.0,))


def test_freeze_commutes_with_evaluation(drift_operator):
    x = np.array([0.25, -0.5])
    xi = np.array([1.5, -2.0])
    frozen = drift_operator.freeze(x)
    direct = sum(
        complex(coeff(x)) * (xi[0] ** a[0]) * (xi[1] ** a[1])
        for a, coeff in drift_operator.terms.items()
    )
    assert complex(frozen(xi)) == pytest.approx(direct, rel=1e-12)


# -- serialization ---------------------------------------------------------------------


def test_symbol_round_trip(tmp_path, heat_symbol):
    path = tmp_path / "heat.json"
    save(heat_symbol, path)
    assert load(path) == heat_symbol
    # serialize(parse(.)) is the identity on the canonical file
    text = path.read_text()
    save(load(path), path)
    assert path.read_text() == text


def test_operator_round_trip(tmp_path, drift_operator):
    path = tmp_path / "op.json"
    save(drift_operator, path)
    loaded = load(path)
    assert isinstance(loaded, VariableOperator)
    assert loaded.terms == drift_operator.terms
    assert loaded.domain == drift_operator.domain


def test_malformed_document_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"dimension\": 2}")
    with pytest.raises(ParseError):
        load(path)
    path.write_text("not json at all")
    with pytest.raises(ParseError):
        load(path)
    path.write_text(json.dumps({"dimension": 2, "terms": [{"alpha": [1], "re": 1.0}]}))
    with pytest.raises(ParseError):
        load(path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficient_rejected_naming_the_multi_index(value):
    doc = {"dimension": 2, "terms": [{"alpha": [2, 0], "re": 1.0}, {"alpha": [0, 2], "re": 1.0, "im": value}]}
    with pytest.raises(ParseError, match=r"\[0, 2\]"):
        SymbolPolynomial.from_dict(doc)


def test_duplicate_multi_index_rejected(drift_operator):
    doc = {"dimension": 1, "terms": [{"alpha": [2], "re": 1.0}, {"alpha": [2], "re": 3.0}]}
    with pytest.raises(ParseError, match=r"duplicate multi-index \[2\]"):
        SymbolPolynomial.from_dict(doc)
    op = drift_operator.to_dict()
    op["coefficients"].append(op["coefficients"][0])
    with pytest.raises(ParseError, match="duplicate multi-index"):
        VariableOperator.from_dict(op)


def test_non_finite_operator_coefficient_rejected(drift_operator):
    op = drift_operator.to_dict()
    op["coefficients"][0]["poly"]["terms"][0]["re"] = math.nan
    with pytest.raises(ParseError, match="non-finite"):
        VariableOperator.from_dict(op)


# -- property tests ----------------------------------------------------------------------


coeff = st.complex_numbers(min_magnitude=0.0, max_magnitude=5.0, allow_nan=False, allow_infinity=False)


def symbols(dimension=st.integers(1, 3), max_order=4):
    def build(dim, draw_terms):
        terms = {}
        for alpha, c in draw_terms:
            alpha = tuple(alpha[:dim]) + (0,) * max(0, dim - len(alpha))
            if sum(alpha) <= max_order:
                terms[alpha] = c
        return SymbolPolynomial(dim, terms)

    return st.builds(
        build,
        dimension,
        st.lists(
            st.tuples(st.lists(st.integers(0, 2), min_size=3, max_size=3), coeff),
            min_size=1,
            max_size=5,
        ),
    )


@settings(max_examples=50, deadline=None)
@given(symbols(), symbols(dimension=st.just(1)), st.integers(0, 2), st.integers(0, 2))
def test_derive_is_linear(q, _unused, b1, b2):
    r = random_symbol(np.random.default_rng(7), q.dimension, 3)
    a, b = 2.5, -1.5 + 0.5j
    beta = (b1,) + (b2,) * (q.dimension - 1) if q.dimension > 1 else (b1,)
    lhs = (a * q + b * r).derive(beta)
    rhs = a * q.derive(beta) + b * r.derive(beta)
    for alpha in set(lhs.terms) | set(rhs.terms):
        x, y = lhs.terms.get(alpha, 0.0), rhs.terms.get(alpha, 0.0)
        assert abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))


@settings(max_examples=30, deadline=None)
@given(symbols(dimension=st.integers(1, 2), max_order=2), st.integers(0, 3), st.integers(0, 3))
def test_pow_is_additive(q, k1, k2):
    lhs = q ** (k1 + k2)
    rhs = (q**k1) * (q**k2)
    for alpha in set(lhs.terms) | set(rhs.terms):
        x, y = lhs.terms.get(alpha, 0.0), rhs.terms.get(alpha, 0.0)
        assert abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_strength_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    q = random_symbol(rng, dim, 4)
    xi = rng.uniform(-3, 3, size=dim)
    expected = oracle_strength_sq(q.terms, dim, q.order, xi)
    got = q.strength(xi) ** 2
    assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 5))
def test_eval_of_power_is_power_of_eval(seed, k):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 3))
    q = random_symbol(rng, dim, 2)
    xi = rng.uniform(-10, 10, size=dim)
    lhs = complex((q**k)(xi))
    rhs = complex(q(xi)) ** k
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))
