import math
import warnings

import numpy as np
import pytest

from hypoel import SymbolPolynomial, analysis, weights
from hypoel.fitting import ascend, signed_axes, slope_function


def reference_slopes(x, y):
    """One np.dot per row, the arithmetic every tail-slope verdict was first built on."""
    xm = x - x.mean()
    return np.array([np.dot(xm, row - row.mean()) / np.dot(xm, xm) for row in y])


@pytest.mark.parametrize("k", [2, 3, 7, 8, 9, 21, 64])
def test_rows_match_per_row_dot_bit_for_bit(k):
    rng = np.random.default_rng(k)
    x = np.log(2.0 ** np.arange(2 * k))[k:]
    y = rng.standard_normal((500, 2 * k)) * 50
    tail = y[:, k:]  # a strided view, as the ray sweeps pass it
    assert np.array_equal(slope_function(x)(tail), reference_slopes(x, tail))


def test_one_dimensional_input_gives_a_float():
    rng = np.random.default_rng(0)
    x = np.arange(5.0, 26.0)
    y = rng.standard_normal(21)
    slope = slope_function(x)(y)
    assert isinstance(slope, float)
    assert slope == reference_slopes(x, y[None, :])[0]
    assert slope_function([0.0, 1.0, 2.0])([1.0, 3.0, 5.0]) == 2.0


def test_constant_abscissa_has_zero_slope():
    """Fewer than two points, at any share, count as constant: 0 as a float and as rows, with no warning."""
    assert slope_function([1.0, 1.0])([3.0, 7.0]) == 0.0
    assert np.array_equal(slope_function([1.0, 1.0], 3)(np.ones((3, 2))), np.zeros(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for share in (1, 2, 3):
            for x, y in (([], []), ([3.0], [7.0]), ([3.0], [np.nan])):
                slope = slope_function(x, share)(y)
                assert isinstance(slope, float) and slope == 0.0
            assert np.array_equal(slope_function([3.0], share)(np.full((4, 1), np.inf)), np.zeros(4))
            assert np.array_equal(slope_function([], share)(np.ones((3, 0))), np.zeros(3))


# -- the tail window, and signed_axes ------------------------------------------------------------


def test_window_is_the_rule_each_caller_restated():
    """The rays' growth minimum read logs[:, n // 2 :], the inclusion fit's log L increments[-max(ceil(p/2), 2):]."""
    for n in range(9, 1025):
        assert slope_function(np.arange(n), 2).window == slice(n // 2, None)
    for p in range(2001):
        increments = np.arange(p)
        want = increments[-max(math.ceil(p / 2), 2) :]
        assert np.array_equal(increments[slope_function(np.log(np.arange(1, p + 1)), 2).window], want)
    for n in range(61):
        start = max(0, n - max(2, math.ceil(n / 3)))  # the growth fits' last third, at least two points
        assert slope_function(np.arange(n), 3).window == slice(start, None)


def ray_window(x, y):
    """The ray sweeps' first window: the last len - len // 2 points."""
    half = len(x) // 2
    with np.errstate(invalid="ignore"):
        return reference_slopes(x[half:], y[..., half:])


def sequence_window(values):
    """The sequence checks' first window: the last half, at least two points, against the index."""
    n = len(values)
    if n < 2:
        return 0.0
    start = min(n // 2, n - 2)
    return reference_slopes(np.arange(start, n, dtype=float), np.asarray(values, dtype=float)[None, start:])[0]


def residual_window(labels, residuals):
    """The growth fits' first window: the last third, at least two points."""
    pts = list(zip(labels, residuals))
    if len(pts) < 2:
        return 0.0
    start = max(0, len(pts) - max(2, math.ceil(len(pts) / 3)))
    x, y = (np.array(v, dtype=float) for v in zip(*pts[start:]))
    return reference_slopes(x, y[None, :])[0]


def test_tail_slope_matches_the_windows_it_replaced_bit_for_bit():
    for n in range(61):
        rng = np.random.default_rng(n)
        y = rng.standard_normal(n) * 50
        labels = np.sort(rng.choice(200, n, replace=False))  # the unflagged labels of a growth fit
        assert slope_function(np.arange(n), 2)(y) == sequence_window(y)
        assert slope_function(labels, 3)(y) == residual_window(labels, y)
        if n >= 3:  # a ray table has at least 9 radii
            x = np.log(2.0 ** np.arange(n))
            rows = rng.standard_normal((40, n)) * 50
            rows[1, -1], rows[2, n // 2] = -np.inf, np.nan  # a zero ratio, and a NaN, in the window
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = slope_function(x, 2)(rows)
            assert np.array_equal(got, ray_window(x, rows), equal_nan=True)
            assert np.isnan(got[1:3]).all() and not np.isnan(got[3:]).any()


def test_tail_slope_of_a_non_finite_tail_is_nan_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            y = np.arange(10.0)
            y[-1] = bad
            assert all(math.isnan(slope_function(np.arange(10), share)(y)) for share in (2, 3))


@pytest.mark.parametrize("n", range(1, 7))
def test_signed_axes_run_e0_minus_e0_e1_with_no_negative_zero(n):
    axes = signed_axes(n)
    assert axes.tolist() == [[sign * (j == k) for j in range(n)] for k in range(n) for sign in (1.0, -1.0)]
    assert not np.signbit(axes[axes == 0.0]).any()


@pytest.mark.parametrize("share", [2, 3])
def test_slope_function_matches_per_row_dot_on_its_window_bit_for_bit(share):
    rng = np.random.default_rng(share)
    for n in (2, 3, 9, 20, 41):
        x = np.log(2.0 ** np.arange(n))
        start = n - max(-(-n // share), 2)
        y = (rng.standard_normal((30, 2 * n)) * 50)[:, ::2]  # a strided view
        y[1, -1], y[2, -1], y[3, start], y[4, -2:] = np.nan, np.inf, -np.inf, -np.inf
        slope = slope_function(x, share)
        assert slope.window == slice(start, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, one = slope(y), slope(y[5])
        with np.errstate(invalid="ignore"):
            want = reference_slopes(x[start:], y[:, start:])
        assert np.array_equal(got, want, equal_nan=True) and np.isnan(got[1:5]).all()
        assert isinstance(one, float) and one == want[5]


def ascend_by_masks(score, gradient, project, start, step, steps):
    """The ascent as first written: np.linalg.norm, and accepted moves kept by masked assignment."""
    pts = np.array(start, dtype=float)
    scores, values = score(pts)
    step = np.full(len(pts), step)
    for _ in range(steps):
        grad = gradient(pts, values)
        gn = np.linalg.norm(grad, axis=1, keepdims=True)
        gn[gn == 0] = 1.0
        cand = project(pts + step[:, None] * grad / gn)
        cand_scores, cand_values = score(cand)
        better = cand_scores > scores
        pts[better] = cand[better]
        scores[better] = cand_scores[better]
        values[better] = cand_values[better]
        step = np.where(better, step, step * 0.5)
    return pts, scores


def test_ascend_matches_the_masked_assignment_loop_bit_for_bit(monkeypatch):
    searches = []

    def both(*args):
        got, want = ascend(*args), ascend_by_masks(*args)
        searches.append(all(np.array_equal(g, w) for g, w in zip(got, want)))
        return got

    monkeypatch.setattr(analysis, "ascend", both)
    monkeypatch.setattr(weights, "ascend", both)
    rng = np.random.default_rng(5)
    for n in (2, 3):  # real principal parts, whose characteristic directions the search finds
        a = rng.uniform(0.5, 2.0, n)
        q = SymbolPolynomial(n, {tuple(2 * (j == k) for j in range(n)): a[k] * (1 if k else -1) for k in range(n)})
        analysis._characteristic_refinement(q + SymbolPolynomial.variable(n, 0), analysis.unit_directions(n, 64))
    h = weights.StrengthWeight(SymbolPolynomial(2, {(2, 0): 1.0, (1, 1): 0.5, (0, 2): 2.0, (0, 1): 1j, (0, 0): 1.0}))
    weights._ball_maximizers(h, 0.5, rng.standard_normal((16, 2)) * 3)
    assert searches == [True, True, True]
