"""The one least-squares tail slope behind every growth verdict, the signed axis points, and the one local search."""

from __future__ import annotations

import numpy as np


def slope_function(x, share: int = 1):
    """y -> the least-squares slope of y against x over the last ceil(len/share) points, never fewer than two.

    The window, its centred abscissa and their squared norm are formed once, for every y; the window is the
    function's `window` slice, which callers read for their own tail statistics.  A 1-D y gives a float, a stack
    of rows one slope per row, each rounding like ``np.dot`` on that row alone; constant x, or fewer than two
    points, gives 0.  A NaN or infinite y in the window gives a NaN slope, without a warning.
    """
    x = np.asarray(x, dtype=float)
    window = slice(max(len(x) - max(-(-len(x) // share), 2), 0), None)
    xm = x[window] - (x[window].mean() if len(x) else 0.0)
    denom = float(np.dot(xm, xm))

    def slope(y):
        y = np.asarray(y, dtype=float)[..., window]
        with np.errstate(invalid="ignore"):
            yc = y - np.add.reduce(y, axis=-1, keepdims=True) / len(xm)  # y.mean(axis=-1, keepdims=True), bit for bit
            out = (yc[..., None, :] @ xm[:, None])[..., 0, 0] / denom if denom else np.zeros(y.shape[:-1])
        return float(out) if out.ndim == 0 else out

    slope.window = window
    return slope


def signed_axes(n: int) -> np.ndarray:
    """The rows e_0, -e_0, e_1, -e_1, ... of dimension n, with no -0.0 entry."""
    return np.repeat(np.eye(n), 2, axis=0) * np.tile([1.0, -1.0], n)[:, None] + 0.0


def ascend(score, gradient, project, start: np.ndarray, step: float, steps: int):
    """Step-halving ascent from each start point: the points reached and their scores.

    A point steps along its normalized gradient and is projected back; it keeps
    the move only when its score rises, else halves its step.  `score` also gives
    the values `gradient` needs, a row per point, kept for accepted moves.
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
        np.copyto(pts, cand, where=better[:, None])
        np.copyto(scores, cand_scores, where=better)
        np.copyto(values, cand_values, where=better[:, None])
        step = np.where(better, step, step * 0.5)
    return pts, scores
