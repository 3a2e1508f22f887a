"""The one least-squares tail slope behind every growth verdict, the signed axis points, and the one local search."""

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


def tail_slope(x, y, share: int) -> float | np.ndarray:
    """`least_squares_slope` over the last ceil(len/share) points, and never fewer than two; 0.0 with fewer than two.

    A NaN or infinite y in that window gives a NaN slope, without a warning.
    """
    n = len(x)
    if n < 2:
        return 0.0
    start = n - max(-(-n // share), 2)
    with np.errstate(invalid="ignore"):
        return least_squares_slope(np.asarray(x, dtype=float)[start:], np.asarray(y, dtype=float)[..., start:])


def signed_axes(n: int) -> np.ndarray:
    """The rows e_0, -e_0, e_1, -e_1, ... of dimension n, with no -0.0 entry."""
    return np.repeat(np.eye(n), 2, axis=0) * np.tile([1.0, -1.0], n)[:, None] + 0.0


def ascend(score, gradient, project, start: np.ndarray, step: float, steps: int):
    """Step-halving ascent from each start point: the points reached and their scores.

    A point steps along its normalized gradient and is projected back; it keeps
    the move only when its score rises, else halves its step.  `score` also gives
    the values `gradient` needs, kept for accepted moves rather than recomputed.
    """
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
