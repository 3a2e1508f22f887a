"""The least-squares slope behind every tail-slope verdict in the package."""

from __future__ import annotations

import numpy as np


def least_squares_slope(x, y) -> float | np.ndarray:
    """Least-squares slope of y against x over the last axis of y (0 for constant x).

    A 1-D y gives a float, a stack of rows one slope per row.  Each row's dot
    product is taken as a (1, k) @ (k, 1) product, which rounds like
    ``np.dot`` on that row alone, so a row's slope does not depend on the
    rows stacked with it.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm = x - x.mean()
    denom = float(np.dot(xm, xm))
    yc = y - y.mean(axis=-1, keepdims=True)
    slope = (yc[..., None, :] @ xm[:, None])[..., 0, 0] / denom if denom else np.zeros(y.shape[:-1])
    return float(slope) if slope.ndim == 0 else slope
