"""Axis-aligned open boxes used as spatial domains."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class BoxDomain:
    """Open box ``{x : lo < x < hi}`` in R^n."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        if len(self.lo) != len(self.hi):
            raise DimensionMismatch(f"box corners have different lengths: {len(self.lo)} vs {len(self.hi)}")
        if not all(a < b for a, b in zip(self.lo, self.hi)):
            raise ValueError(f"box must satisfy lo < hi componentwise, got lo={self.lo} hi={self.hi}")

    @property
    def dimension(self) -> int:
        return len(self.lo)

    @property
    def sides(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def center(self) -> tuple[float, ...]:
        return tuple(0.5 * (a + b) for a, b in zip(self.lo, self.hi))

    @property
    def diameter(self) -> float:
        return math.sqrt(sum(s * s for s in self.sides))

    def contains(self, x) -> bool:
        """Whether the point x lies in the closed box, the closure of this one."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            return False
        return bool(np.all(x >= np.asarray(self.lo)) and np.all(x <= np.asarray(self.hi)))

    def scaled(self, factor: float) -> "BoxDomain":
        """Box with the same center and sides multiplied by `factor`."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        c = self.center
        return BoxDomain(
            tuple(ci - 0.5 * factor * s for ci, s in zip(c, self.sides)),
            tuple(ci + 0.5 * factor * s for ci, s in zip(c, self.sides)),
        )

    def to_dict(self) -> dict:
        return {"lo": list(self.lo), "hi": list(self.hi)}

    @staticmethod
    def from_dict(d: dict) -> "BoxDomain":
        return BoxDomain(tuple(d["lo"]), tuple(d["hi"]))
