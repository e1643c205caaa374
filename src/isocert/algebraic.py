"""Exact real algebraic numbers in the two flavors this package needs.

QuadExt is a value a + b*sqrt(d) in a fixed real quadratic extension; all
ring operations and sign tests are exact rational arithmetic.  The model
spectra and the chamber sampling cross-checks live entirely in such fields.

AlgebraicNumber pairs an exact defining polynomial with an isolating
interval that can be refined on demand; it covers roots of the elimination
cubics, where no quadratic shortcut exists.  Comparisons refine until the
intervals separate, falling back to an exact common-root test on equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import upoly as up


@dataclass(frozen=True)
class QuadExt:
    """a + b*sqrt(d) with rational a, b and fixed rational radicand d >= 0."""

    a: Fraction
    b: Fraction
    d: Fraction

    @classmethod
    def make(cls, a, b=0, d=0) -> "QuadExt":
        a, b, d = Fraction(a), Fraction(b), Fraction(d)
        if d < 0:
            raise ValueError("radicand must be nonnegative")
        if b == 0:
            d = Fraction(0)
        return cls(a, b, d)

    @classmethod
    def rational(cls, a) -> "QuadExt":
        return cls.make(a)

    def _join(self, other: "QuadExt") -> Fraction:
        if self.d and other.d and self.d != other.d:
            raise ValueError("mixed radicands")
        return self.d if self.d else other.d

    def __add__(self, other):
        other = _coerce(other)
        d = self._join(other)
        return QuadExt.make(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt.make(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        d = self._join(other)
        return QuadExt.make(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = QuadExt.rational(1)
        base = self
        for _ in range(n):
            out = out * base
        return out

    def __truediv__(self, other):
        other = _coerce(other)
        d = self._join(other)
        norm = other.a * other.a - other.b * other.b * d
        if norm == 0:
            raise ZeroDivisionError("division by zero value")
        inv = QuadExt.make(other.a / norm, -other.b / norm, d)
        return self * inv

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        a, b, d = self.a, self.b, self.d
        if b == 0 or d == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Opposite signs: compare a^2 with b^2 d.
        lhs, rhs = a * a, b * b * d
        if lhs == rhs:
            return 0
        if a > 0:
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    def is_rational(self) -> bool:
        return self.b == 0

    def rational_value(self) -> Fraction:
        if self.b != 0:
            raise ValueError("value is irrational")
        return self.a

    def __lt__(self, other):
        return (self - _coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - _coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - _coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - _coerce(other)).sign() >= 0

    def interval(self, eps: Fraction) -> tuple[Fraction, Fraction]:
        """Rational enclosure of width <= eps."""
        if self.b == 0:
            return self.a, self.a
        lo, hi = _sqrt_bounds(self.d, Fraction(eps) / (2 * abs(self.b)))
        if self.b > 0:
            return self.a + self.b * lo, self.a + self.b * hi
        return self.a + self.b * hi, self.a + self.b * lo

    def __float__(self) -> float:
        lo, hi = self.interval(Fraction(1, 10**17))
        return float((lo + hi) / 2)

    def minimal_polynomial(self) -> up.UPoly:
        """x - a for rational values, else x^2 - 2a x + (a^2 - b^2 d)."""
        if self.b == 0:
            return up.upoly([-self.a, 1])
        return up.upoly([self.a * self.a - self.b * self.b * self.d, -2 * self.a, 1])

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.d})"


def _coerce(x) -> QuadExt:
    if isinstance(x, QuadExt):
        return x
    return QuadExt.rational(x)


def _sqrt_bounds(d: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(d) <= hi with hi - lo <= eps, by bisection."""
    if d == 0:
        return Fraction(0), Fraction(0)
    lo, hi = Fraction(0), max(Fraction(1), Fraction(d))
    while hi - lo > eps:
        mid = (lo + hi) / 2
        if mid * mid <= d:
            lo = mid
        else:
            hi = mid
    return lo, hi


class AlgebraicNumber:
    """Root of an exact polynomial, pinned down by an isolating interval.

    The defining polynomial need not be irreducible; it must be squarefree
    on the isolating interval (sign change at the endpoints).  Refinement
    is plain bisection with exact sign evaluation.
    """

    __slots__ = ("poly", "lo", "hi")

    def __init__(self, poly: up.UPoly, lo: Fraction, hi: Fraction):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("empty interval")
        fa, fb = up.evaluate(poly, lo), up.evaluate(poly, hi)
        if lo == hi:
            if fa != 0:
                raise ValueError("point interval is not a root")
        elif fa == 0 or fb == 0 or (fa > 0) == (fb > 0):
            raise ValueError("endpoints must bracket exactly one sign change")
        self.poly = poly
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_rational(cls, q) -> "AlgebraicNumber":
        q = Fraction(q)
        return cls(up.upoly([-q, 1]), q, q)

    @classmethod
    def from_quadext(cls, v: QuadExt) -> "AlgebraicNumber":
        if v.is_rational():
            return cls.from_rational(v.a)
        m = v.minimal_polynomial()
        lo, hi = v.interval(Fraction(1, 10**6))
        while up.evaluate(m, lo) == 0 or up.evaluate(m, hi) == 0 or (
            (up.evaluate(m, lo) > 0) == (up.evaluate(m, hi) > 0)
        ):
            lo, hi = v.interval((hi - lo) / 4)
        return cls(m, lo, hi)

    def is_point(self) -> bool:
        return self.lo == self.hi

    def refine(self, eps: Fraction) -> "AlgebraicNumber":
        """Return a copy whose interval width is at most eps."""
        if self.is_point() or self.hi - self.lo <= eps:
            return self
        lo, hi = up.refine(self.poly, (self.lo, self.hi), Fraction(eps))
        return AlgebraicNumber(self.poly, lo, hi)

    def interval(self, eps: Fraction) -> tuple[Fraction, Fraction]:
        r = self.refine(eps)
        return r.lo, r.hi

    def sign_of(self, q: up.UPoly) -> int:
        """Exact sign of q evaluated at this number.

        Zero is decided through the gcd with the defining polynomial: the
        number is the unique root of its polynomial inside the isolating
        interval, so a shared root there is the number itself.
        """
        if self.is_point():
            v = up.evaluate(q, self.lo)
            return (v > 0) - (v < 0)
        if up.is_zero(q):
            return 0
        g = up.gcd(self.poly, q)
        if up.degree(g) > 0 and _root_in_closed(g, self.lo, self.hi):
            return 0
        cur = self
        while True:
            va, vb = up.evaluate(q, cur.lo), up.evaluate(q, cur.hi)
            if va > 0 and vb > 0:
                return 1
            if va < 0 and vb < 0:
                return -1
            cur = cur.refine((cur.hi - cur.lo) / 16)

    def sign(self) -> int:
        return self.sign_of(up.upoly([0, 1]))

    def compare(self, other: "AlgebraicNumber") -> int:
        """-1, 0, +1; equality decided exactly via common roots."""
        a, b = self, other
        g = up.gcd(a.poly, b.poly)
        while True:
            if a.hi < b.lo:
                return -1
            if b.hi < a.lo:
                return 1
            if a.is_point() and b.is_point():
                return 0  # overlapping points coincide
            lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
            if up.degree(g) > 0 and _root_in_closed(g, lo, hi):
                return 0
            # Not equal: keep shrinking; the intervals must separate.
            if not a.is_point():
                a = a.refine((a.hi - a.lo) / 16)
            if not b.is_point():
                b = b.refine((b.hi - b.lo) / 16)

    def __float__(self) -> float:
        r = self.refine(Fraction(1, 10**17))
        return float((r.lo + r.hi) / 2)

    def __repr__(self) -> str:
        return f"AlgebraicNumber({float(self):.12g})"


def _root_in_closed(g: up.UPoly, lo: Fraction, hi: Fraction) -> bool:
    """Exact: does g have a root in [lo, hi]?"""
    if up.evaluate(g, lo) == 0 or up.evaluate(g, hi) == 0:
        return True
    if lo >= hi:
        return False
    sf = up.squarefree_part(g)
    if up.evaluate(sf, lo) == 0 or up.evaluate(sf, hi) == 0:
        return True
    chain = up.sturm_chain(sf)
    return up.sturm_count(chain, lo, hi) > 0
