"""Vectorized interval arithmetic over batches of cells.

This is the package's one floating-point interval type.  Endpoints are
numpy float64 arrays; every operation widens each computed endpoint one
representable float outward (np.nextafter), which over-approximates
directed rounding without touching the FPU mode, so x in X and y in Y
imply x op y in X op Y.  Whole cell frontiers are processed per call, so
the branch-and-bound certifiers pay no per-cell Python overhead.
"""

from __future__ import annotations

import numpy as np

_INF = np.inf


def down(x: np.ndarray) -> np.ndarray:
    return np.nextafter(x, -_INF)


def up(x: np.ndarray) -> np.ndarray:
    return np.nextafter(x, _INF)


class VI:
    """Batch of intervals: lo and hi arrays of equal shape."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)

    @classmethod
    def point(cls, x, n: int) -> "VI":
        arr = np.full(n, float(x))
        return cls(arr, arr)

    @classmethod
    def scalar(cls, lo: float, hi: float, n: int) -> "VI":
        return cls(np.full(n, lo), np.full(n, hi))

    def __add__(self, o: "VI") -> "VI":
        return VI(down(self.lo + o.lo), up(self.hi + o.hi))

    def __sub__(self, o: "VI") -> "VI":
        return VI(down(self.lo - o.hi), up(self.hi - o.lo))

    def __neg__(self) -> "VI":
        return VI(-self.hi, -self.lo)

    def __mul__(self, o: "VI") -> "VI":
        c1 = self.lo * o.lo
        c2 = self.lo * o.hi
        c3 = self.hi * o.lo
        c4 = self.hi * o.hi
        lo = np.minimum(np.minimum(c1, c2), np.minimum(c3, c4))
        hi = np.maximum(np.maximum(c1, c2), np.maximum(c3, c4))
        return VI(down(lo), up(hi))

    def divide_by_positive(self, o: "VI") -> "VI":
        """Division when o.lo > 0 elementwise (caller guarantees)."""
        c1 = self.lo / o.lo
        c2 = self.lo / o.hi
        c3 = self.hi / o.lo
        c4 = self.hi / o.hi
        lo = np.minimum(np.minimum(c1, c2), np.minimum(c3, c4))
        hi = np.maximum(np.maximum(c1, c2), np.maximum(c3, c4))
        return VI(down(lo), up(hi))

    def scale(self, c: float) -> "VI":
        if c >= 0:
            return VI(down(self.lo * c), up(self.hi * c))
        return VI(down(self.hi * c), up(self.lo * c))

    def sq(self) -> "VI":
        lo_p = self.lo * self.lo
        hi_p = self.hi * self.hi
        lo = np.where(self.lo > 0, lo_p, np.where(self.hi < 0, hi_p, 0.0))
        hi = np.maximum(lo_p, hi_p)
        # Squares are nonnegative, so clamping the widened bound at zero is sound.
        return VI(np.maximum(down(lo), 0.0), up(hi))

    def sqrt_clamped(self) -> "VI":
        """sqrt with negative lower parts clamped to zero (for discriminants)."""
        lo = np.sqrt(np.maximum(self.lo, 0.0))
        hi = np.sqrt(np.maximum(self.hi, 0.0))
        return VI(np.maximum(down(lo), 0.0), up(hi))

    def floor_at(self, floor) -> "VI":
        """Intersect with [floor, inf); caller ensures feasible points satisfy it."""
        return VI(np.maximum(self.lo, floor), np.maximum(self.hi, floor))

    def mag(self) -> np.ndarray:
        return np.maximum(np.abs(self.lo), np.abs(self.hi))
