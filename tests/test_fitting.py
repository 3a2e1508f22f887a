import math
import warnings

import numpy as np
import pytest

from hypoel.fitting import least_squares_slope, signed_axes, tail_slope


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
    assert np.array_equal(least_squares_slope(x, tail), reference_slopes(x, tail))


def test_one_dimensional_input_gives_a_float():
    rng = np.random.default_rng(0)
    x = np.arange(5.0, 26.0)
    y = rng.standard_normal(21)
    slope = least_squares_slope(x, y)
    assert isinstance(slope, float)
    assert slope == reference_slopes(x, y[None, :])[0]
    assert least_squares_slope([0.0, 1.0, 2.0], [1.0, 3.0, 5.0]) == 2.0


def test_constant_abscissa_has_zero_slope():
    assert least_squares_slope([3.0], [7.0]) == 0.0
    assert np.array_equal(least_squares_slope([1.0, 1.0], np.ones((3, 2))), np.zeros(3))


# -- tail_slope and signed_axes ------------------------------------------------------------


def ray_window(x, y):
    """The ray sweeps' window before tail_slope: the last len - len // 2 points."""
    half = len(x) // 2
    with np.errstate(invalid="ignore"):
        return least_squares_slope(x[half:], y[..., half:])


def sequence_window(values):
    """The sequence checks' window before tail_slope: the last half, at least two points, against the index."""
    n = len(values)
    if n < 2:
        return 0.0
    start = min(n // 2, n - 2)
    return least_squares_slope(np.arange(start, n, dtype=float), np.asarray(values, dtype=float)[start:])


def residual_window(labels, residuals):
    """The growth fits' window before tail_slope: the last third, at least two points."""
    pts = list(zip(labels, residuals))
    if len(pts) < 2:
        return 0.0
    start = max(0, len(pts) - max(2, math.ceil(len(pts) / 3)))
    return least_squares_slope(*zip(*pts[start:]))


def test_tail_slope_matches_the_windows_it_replaced_bit_for_bit():
    for n in range(61):
        rng = np.random.default_rng(n)
        y = rng.standard_normal(n) * 50
        labels = np.sort(rng.choice(200, n, replace=False))  # the unflagged labels of a growth fit
        assert tail_slope(np.arange(n), y, 2) == sequence_window(y)
        assert tail_slope(labels, y, 3) == residual_window(labels, y)
        if n >= 3:  # a ray table has at least 9 radii
            x = np.log(2.0 ** np.arange(n))
            rows = rng.standard_normal((40, n)) * 50
            rows[1, -1], rows[2, n // 2] = -np.inf, np.nan  # a zero ratio, and a NaN, in the window
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = tail_slope(x, rows, 2)
            assert np.array_equal(got, ray_window(x, rows), equal_nan=True)
            assert np.isnan(got[1:3]).all() and not np.isnan(got[3:]).any()


def test_tail_slope_of_a_non_finite_tail_is_nan_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            y = np.arange(10.0)
            y[-1] = bad
            assert math.isnan(tail_slope(np.arange(10), y, 2)) and math.isnan(tail_slope(np.arange(10), y, 3))
    assert tail_slope([], [], 2) == tail_slope([1.0], [5.0], 3) == 0.0


@pytest.mark.parametrize("n", range(1, 7))
def test_signed_axes_run_e0_minus_e0_e1_with_no_negative_zero(n):
    axes = signed_axes(n)
    assert axes.tolist() == [[sign * (j == k) for j in range(n)] for k in range(n) for sign in (1.0, -1.0)]
    assert not np.signbit(axes[axes == 0.0]).any()
