"""Containment-correct interval arithmetic on binary floats.

Rounding is handled by stepping every computed endpoint one representable
float outward (math.nextafter), which over-approximates directed rounding
without touching the FPU mode.  All operations keep the containment
property: x in X and y in Y imply x op y in X op Y.

Exact rational endpoints enter through `from_fraction`, which widens by one
ulp whenever the rational is not exactly representable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Union

from .exactalg import MultiPoly, RatFn

_INF = math.inf


class PossiblePoleError(ArithmeticError):
    """Denominator enclosure straddles zero; the caller must subdivide."""


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


class Interval:
    """Closed interval [lo, hi] of floats."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float | None = None):
        if hi is None:
            hi = lo
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("NaN endpoint")
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- constructors --------------------------------------------------

    @classmethod
    def exact(cls, x: float) -> "Interval":
        return cls(x, x)

    @classmethod
    def from_fraction(cls, q: Union[int, Fraction]) -> "Interval":
        q = Fraction(q)
        f = float(q)
        if math.isinf(f):
            return cls(_down(f) if f > 0 else f, f if f < 0 else _up(f))
        fq = Fraction(f)
        lo = f if fq <= q else _down(f)
        hi = f if fq >= q else _up(f)
        return cls(lo, hi)

    # -- predicates ----------------------------------------------------

    def width(self) -> float:
        return _up(self.hi - self.lo)

    def contains(self, x: Union[float, Fraction]) -> bool:
        if isinstance(x, Fraction):
            return Fraction(self.lo) <= x <= Fraction(self.hi)
        return self.lo <= x <= self.hi

    def straddles_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def mag(self) -> float:
        """Upper bound of |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Interval":
        if isinstance(other, Interval):
            return other
        if isinstance(other, (int, float)):
            return Interval.exact(float(other))
        if isinstance(other, Fraction):
            return Interval.from_fraction(other)
        raise TypeError(f"cannot mix Interval with {type(other).__name__}")

    def __add__(self, other):
        o = self._coerce(other)
        return Interval(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        cands = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(_down(min(cands)), _up(max(cands)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.straddles_zero():
            raise PossiblePoleError(f"denominator {o} may vanish")
        cands = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Interval(_down(min(cands)), _up(max(cands)))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def power(self, n: int) -> "Interval":
        """Tight integer power (even powers stay nonnegative)."""
        if n == 0:
            return Interval.exact(1.0)
        if n < 0:
            return Interval.exact(1.0) / self.power(-n)
        lo_p, hi_p = self.lo ** n, self.hi ** n
        if n % 2 == 1:
            return Interval(_down(lo_p), _up(hi_p))
        if self.lo >= 0:
            return Interval(_down(lo_p), _up(hi_p))
        if self.hi <= 0:
            return Interval(_down(hi_p), _up(lo_p))
        return Interval(0.0, _up(max(lo_p, hi_p)))

    def sqrt(self) -> "Interval":
        """Square root; a slightly negative lower bound is clamped to zero."""
        if self.hi < 0:
            raise ValueError("square root of a negative interval")
        lo = 0.0 if self.lo <= 0 else _down(math.sqrt(self.lo))
        if lo < 0:
            lo = 0.0
        return Interval(lo, _up(math.sqrt(self.hi)))

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


def interval_eval(expr: Union[MultiPoly, RatFn], box: Mapping[str, Interval]) -> Interval:
    """Containment-correct enclosure of a polynomial or rational function.

    Raises PossiblePoleError when the denominator enclosure straddles zero;
    the caller is expected to subdivide its box.
    """
    if isinstance(expr, RatFn):
        num = interval_eval(expr.num, box)
        den = interval_eval(expr.den, box)
        return num / den
    total = Interval.exact(0.0)
    names = expr.table.names
    for mono, coeff in expr.sorted_terms():
        term = Interval.from_fraction(coeff)
        for i, e in enumerate(expr.exponents(mono)):
            if e:
                term = term * box[names[i]].power(e)
        total = total + term
    return total
