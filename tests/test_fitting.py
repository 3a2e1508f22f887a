import numpy as np
import pytest

from hypoel.fitting import least_squares_slope


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
