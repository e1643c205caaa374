"""Exact real algebraic numbers in the two flavors this package needs.

QuadExt is a value a + b*sqrt(d) in a fixed real quadratic extension; all
ring operations and sign tests are exact rational arithmetic; the sign
rule, root_sum_sign, also decides `configsolve`'s members at a cubic root,
where each sign it asks for costs a refinement.  As in
exactalg, integral parts stay Python ints, so integer values (the Li
cross-check's exact route) never pay for Fractions; a rational square
radicand is folded into a, so sqrt(4) is the rational 2.  The model spectra
and the chamber sampling cross-checks live entirely in such fields.

AlgebraicNumber pairs an exact defining polynomial with an isolating
interval that can be refined on demand; it covers roots of the elimination
cubics, where no quadratic shortcut exists.  Comparisons refine until the
intervals separate, falling back to an exact common-root test on equality.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import upoly as up


@dataclass(frozen=True)
class QuadExt:
    """a + b*sqrt(d) with rational a, b and fixed rational radicand d >= 0,
    each an int where integral; d is 0 or not a rational square."""

    a: int | Fraction
    b: int | Fraction
    d: int | Fraction

    @classmethod
    def make(cls, a, b=0, d=0) -> "QuadExt":
        a, b, d = _scalar(a), _scalar(b), _scalar(d)
        if d < 0:
            raise ValueError("radicand must be nonnegative")
        if b:
            n, m = isqrt(d.numerator), isqrt(d.denominator)
            if n * n == d.numerator and m * m == d.denominator:    # sqrt(d) is rational
                a, b = _scalar(a + b * Fraction(n, m)), 0
        return cls(a, b, d) if b else cls(a, 0, 0)

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

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        return quad_sign(self.a, self.b, self.d)

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

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.d})"


def quad_sign(a, b, d) -> int:
    """Exact sign of a + b*sqrt(d) for rational a, b (int or Fraction), d >= 0."""
    return root_sum_sign(_sign(a), _sign(b), lambda: _sign(d), lambda: _sign(a * a - b * b * d))


def root_sum_sign(sa: int, sb: int, sign_d, sign_norm) -> int:
    """Exact sign of a + b*sqrt(d), d >= 0, from the signs sa of a and sb of b;
    sign_d() and sign_norm() give the signs of d and of a^2 - b^2 d, and each
    is called only when the result depends on it."""
    if sb == 0 or sign_d() == 0:
        return sa
    if sa != -sb:  # a is zero or has the sign of b
        return sb
    # Opposite signs: the term of larger square wins.
    sn = sign_norm()
    return sa if sn > 0 else sb if sn < 0 else 0


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def run_lengths(equal_to_previous) -> list[int]:
    """Multiplicities of the distinct values of a sorted sequence, from one
    flag per entry after the first: is it equal to the entry before it."""
    runs = [1]
    for equal in equal_to_previous:
        if equal:
            runs[-1] += 1
        else:
            runs.append(1)
    return runs


def power_sums(values, top: int) -> tuple:
    """p1..p_top of the values, sum of v^k for k = 1..top.

    Generic over any ring of values: only + and * are used, so the power
    sums of exact spectra, of gap polynomials and of `QuadExt` tuples are
    this one rule.
    """
    values = list(values)
    sums, powers = [], values
    for k in range(top):
        if k:
            powers = [p * v for p, v in zip(powers, values)]
        sums.append(functools.reduce(operator.add, powers))
    return tuple(sums)


def cubic_bound_sign(S, A3) -> int:
    """Exact sign of S^3 - 3 A3^2; S and A3 rational or QuadExt.

    For A3 >= 0 it decides A3 against the cubic bound S^(3/2)/sqrt(3) on the
    sphere p1 = 0, p2 = S of four principal curvatures: negative beyond the
    bound, zero on it.
    """
    return (_coerce(S) ** 3 - A3 * A3 * 3).sign()


def _scalar(x) -> int | Fraction:
    """x as an exact rational: an int where integral, else a Fraction."""
    if isinstance(x, int):
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _coerce(x) -> QuadExt:
    if isinstance(x, QuadExt):
        return x
    return QuadExt.rational(x)


def _sqrt_bounds(d: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(d) <= hi with hi - lo <= eps, for eps > 0.

    Returns the same pair as bisecting [0, H], H = max(1, d), until the
    width is at most eps, in closed form: the grid cell [j, j+1] * H/2^k
    of the fewest halvings k with H/2^k <= eps, and the largest j < 2^k
    with (j H/2^k)^2 <= d, by one integer square root.  (For d = 1
    bisection never moves hi, hence the cap; for d < 0 it never moves lo,
    so j = 0.)
    """
    d = Fraction(d)
    lo, hi, den = _sqrt_grid(d.numerator, d.denominator, Fraction(eps))
    return Fraction(lo, den), Fraction(hi, den)


def _sqrt_grid(dn: int, dd: int, eps: Fraction) -> tuple[int, int, int]:
    """`_sqrt_bounds` of d = dn / dd, dd > 0, as integers lo, hi over one den > 0.

    Every step reads d only through ratios and signs, so dn / dd need not
    be in lowest terms.
    """
    if dn == 0:
        return 0, 0, 1
    if eps <= 0:
        raise ValueError("precision must be positive")
    hn, hd = (dn, dd) if dn > dd else (1, 1)      # H = max(1, d) = hn / hd
    k = ((hn * eps.denominator - 1) // (hd * eps.numerator)).bit_length()   # least k with H <= eps 2^k
    j = 0
    if dn > 0:   # j^2 <= d / step^2 = d 4^k / H^2, floored in integers
        j = min(isqrt((dn * hd * hd << 2 * k) // (dd * hn * hn)), (1 << k) - 1)
    return j * hn, (j + 1) * hn, hd << k          # step = H / 2^k = hn / (hd 2^k)


class AlgebraicNumber:
    """Root of an exact polynomial, pinned down by an isolating interval.

    The defining polynomial need not be irreducible; the interval must hold
    exactly one of its distinct real roots (a sign change at the endpoints
    and a Sturm count of 1, checked at every construction).  Refinement is
    plain bisection with exact sign evaluation; the refined copies share
    the Sturm chain of the squarefree part, which is built once per number
    (or passed in, by a caller that isolated the root with it).
    """

    __slots__ = ("poly", "lo", "hi", "chain")

    def __init__(self, poly: up.UPoly, lo: Fraction, hi: Fraction,
                 chain: list[up.UPoly] | None = None):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("empty interval")
        fa, fb = up.sign_at(poly, lo), up.sign_at(poly, hi)
        if lo == hi:
            if fa != 0:
                raise ValueError("point interval is not a root")
        elif fa == 0 or fb == 0 or fa == fb:
            raise ValueError("endpoints must bracket exactly one sign change")
        else:
            if chain is None:
                chain = up.sturm_chain(up.squarefree_part(poly))
            if up.sturm_count(chain, lo, hi) != 1:
                raise ValueError("interval holds more than one root")
        self.poly = poly
        self.lo = lo
        self.hi = hi
        self.chain = chain

    def is_point(self) -> bool:
        return self.lo == self.hi

    def refine(self, eps: Fraction) -> "AlgebraicNumber":
        """Return a copy whose interval width is at most eps."""
        if self.is_point() or self.hi - self.lo <= eps:
            return self
        lo, hi = up.refine(self.poly, (self.lo, self.hi), Fraction(eps))
        return AlgebraicNumber(self.poly, lo, hi, self.chain)

    def sign_of(self, q: up.UPoly) -> int:
        """Exact sign of q evaluated at this number.

        Zero is decided through the gcd with the defining polynomial: the
        number is the unique root of its polynomial inside the isolating
        interval, so a shared root there is the number itself.
        """
        if self.is_point():
            return up.sign_at(q, self.lo)
        if up.is_zero(q):
            return 0
        g = up.gcd(self.poly, q)
        if up.degree(g) > 0 and _root_in_closed(g, self.lo, self.hi):
            return 0
        cur = self
        while True:
            va = up.sign_at(q, cur.lo)
            if va and va == up.sign_at(q, cur.hi):
                return va
            cur = cur.refine((cur.hi - cur.lo) / 16)

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
    if up.sign_at(g, lo) == 0 or up.sign_at(g, hi) == 0:
        return True
    if lo >= hi:
        return False
    sf = up.squarefree_part(g)
    chain = up.sturm_chain(sf)
    return up.sturm_count(chain, lo, hi) > 0
