"""Dense univariate polynomials over the rationals: exact root isolation.

A polynomial is a `UPoly`: integer coefficients, lowest degree first, over
one positive denominator, in lowest terms and with no trailing zero (the
zero polynomial has no coefficients).  Everything here is exact and runs on
those integers:

* the sign of p at a rational u/v (v > 0) is the sign of the homogeneous
  form  den v^n p(u/v) = sum num_i u^i v^(n-i),  so no Fraction is built;
* Sturm chains and gcds are primitive pseudo-remainder sequences whose
  multipliers are positive, so each member is a positive multiple of the
  one the Euclidean algorithm over the rationals gives, and every sign
  count is the same;
* multiplicities come from Yun's squarefree decomposition, with exact
  integer quotients (Gauss's lemma keeps them integral);
* isolation and refinement bisect a pair of integer numerators over one
  positive denominator (the midpoint of A, B over D is A + B over 2D), and
  build Fractions only for the endpoints they return;
* isolating intervals have rational endpoints that are never roots
  themselves.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd, lcm as _ilcm
from typing import Iterable, Iterator


class UPoly:
    """(num[0] + num[1] x + ... + num[n] x^n) / den, den > 0, gcd(num..., den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Iterable[int], den: int = 1):
        """From integer coefficients over a positive denominator; normalized here."""
        num = list(num)
        while num and not num[-1]:
            num.pop()
        g = _igcd(*num, den)
        self.num = tuple(c // g for c in num) if g > 1 else tuple(num)
        self.den = den // g

    def __iter__(self) -> Iterator[Fraction]:
        """The rational coefficients, lowest degree first."""
        return (Fraction(c, self.den) for c in self.num)

    def __eq__(self, other) -> bool:
        return isinstance(other, UPoly) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"upoly([{', '.join(str(c) for c in self)}])"


ZERO = UPoly(())


def over_common_denominator(xs: Iterable[Fraction]) -> tuple[list[int], int]:
    """Integers n_i and V > 0 with x_i = n_i / V, V the lcm of the denominators."""
    xs = list(xs)
    V = _ilcm(*(x.denominator for x in xs))
    return [x.numerator * (V // x.denominator) for x in xs], V


def upoly(coeffs: Iterable) -> UPoly:
    """The polynomial with these rational coefficients, lowest degree first."""
    return UPoly(*over_common_denominator(Fraction(c) for c in coeffs))


def degree(p: UPoly) -> int:
    """Degree, with the zero polynomial mapped to -1."""
    return len(p.num) - 1


def is_zero(p: UPoly) -> bool:
    return not p.num


def add(p: UPoly, q: UPoly) -> UPoly:
    den = _ilcm(p.den, q.den)
    a, b = den // p.den, den // q.den
    pn, qn = p.num, q.num
    return UPoly([(pn[i] * a if i < len(pn) else 0) + (qn[i] * b if i < len(qn) else 0)
                  for i in range(max(len(pn), len(qn)))], den)


def sub(p: UPoly, q: UPoly) -> UPoly:
    return add(p, scale(q, -1))


def mul(p: UPoly, q: UPoly) -> UPoly:
    if not p.num or not q.num:
        return ZERO
    out = [0] * (len(p.num) + len(q.num) - 1)
    for i, a in enumerate(p.num):
        if a:
            for j, b in enumerate(q.num):
                out[i + j] += a * b
    return UPoly(out, p.den * q.den)


def scale(p: UPoly, c) -> UPoly:
    c = Fraction(c)
    return UPoly([a * c.numerator for a in p.num], p.den * c.denominator)


def derivative(p: UPoly) -> UPoly:
    return UPoly([i * c for i, c in enumerate(p.num) if i], p.den)


# -- evaluation ------------------------------------------------------------------

def homogeneous_value(p: UPoly, u: int, v: int) -> int:
    """den v^n p(u/v) = sum num_i u^i v^(n-i), n = degree(p), for integers u, v."""
    num = p.num
    if not num:
        return 0
    acc, w = num[-1], 1
    for c in num[-2::-1]:
        w *= v
        acc = acc * u + c * w
    return acc


def sign_at(p: UPoly, x) -> int:
    """Exact sign (-1, 0, 1) of p at the rational x."""
    s = homogeneous_value(p, x.numerator, x.denominator)
    return (s > 0) - (s < 0)


# -- gcds and Sturm chains by primitive pseudo-remainders -------------------------

def _primitive(c) -> tuple:
    """Integer coefficients over their (positive) content."""
    g = _igcd(*c)
    return tuple(t // g for t in c) if g > 1 else tuple(c)


def _prem(a: tuple, b: tuple) -> tuple:
    """A positive multiple of the remainder of a by b, b nonzero, as a primitive tuple.

    Each elimination step scales the running remainder by |lc(b)| before
    subtracting a multiple of b, so the multiplier is |lc(b)|^k > 0.
    """
    r = list(a)
    db = len(b) - 1
    m, s = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(r) > db:
        c, k = r[-1] * s, len(r) - 1 - db
        if m != 1:
            r = [m * t for t in r]
        for j, t in enumerate(b):
            r[j + k] -= c * t
        r.pop()
        while r and not r[-1]:
            r.pop()
    return _primitive(r)


def _positive_primitive(c) -> tuple:
    """Integer coefficients over their content, signed so the leading one is positive."""
    a = _primitive(c)
    return tuple(-t for t in a) if a and a[-1] < 0 else a


def _gcd(a: tuple, b: tuple) -> tuple:
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _prem(a, b)
    return _positive_primitive(a)


def gcd(p: UPoly, q: UPoly) -> UPoly:
    """The gcd, primitive with a positive leading coefficient (zero for two zeros)."""
    return UPoly(_gcd(p.num, q.num))


def _quotient(a: tuple, b: tuple) -> tuple:
    """a / b for integer a and a primitive b dividing it over the rationals.

    By Gauss's lemma the quotient has integer coefficients, so each step of
    the long division divides exactly; a remainder is a fault.
    """
    r = list(a)
    db = len(b) - 1
    q = [0] * (len(r) - db)
    for k in range(len(q) - 1, -1, -1):
        c, rest = divmod(r[k + db], b[-1])
        if rest:
            raise ArithmeticError("inexact polynomial division")
        q[k] = c
        if c:
            for j, t in enumerate(b):
                r[j + k] -= c * t
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return tuple(q)


def squarefree_part(p: UPoly) -> UPoly:
    """p / gcd(p, p'), primitive with a positive leading coefficient."""
    if degree(p) <= 0:
        return UPoly([1] if p.num else [])
    return UPoly(_quotient(_positive_primitive(p.num), _gcd(p.num, derivative(p).num)))


def squarefree_decomposition(p: UPoly) -> list[tuple[int, UPoly]]:
    """Yun's algorithm: [(multiplicity, squarefree factor), ...].

    Each factor is primitive with a positive leading coefficient.  b, c and
    d stay positive multiples of the monic algorithm's, since every gcd is
    and both quotients of a step divide by the same one.
    """
    if degree(p) <= 0:
        return []
    p = UPoly(_positive_primitive(p.num))
    dp = derivative(p)
    a = _gcd(p.num, dp.num)
    b = UPoly(_quotient(p.num, a))
    c = UPoly(_quotient(dp.num, a))
    d = sub(c, derivative(b))
    out = []
    i = 1
    while degree(b) > 0:
        a = _gcd(b.num, d.num)
        if len(a) > 1:
            out.append((i, UPoly(a)))
        b = UPoly(_quotient(b.num, a))
        c = UPoly(_quotient(d.num, a))
        d = sub(c, derivative(b))
        i += 1
    return out


def sturm_chain(p: UPoly) -> list[UPoly]:
    """p, p', then negated pseudo-remainders: positive multiples of the Euclidean chain."""
    chain = [p, derivative(p)]
    a, b = chain[0].num, chain[1].num
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            break
        a, b = b, tuple(-t for t in r)
        chain.append(UPoly(b))
    return [c for c in chain if c.num]


def _variations(chain: list[UPoly], u: int, v: int) -> int:
    """Sign changes of the chain at u/v, v > 0."""
    count, last = 0, 0
    for c in chain:
        s = homogeneous_value(c, u, v)
        if s:
            if last and (s > 0) != (last > 0):
                count += 1
            last = s
    return count


def sturm_count(chain: list[UPoly], a: Fraction, b: Fraction) -> int:
    """Distinct real roots in (a, b]; endpoints must not be roots of chain[0]."""
    return (_variations(chain, a.numerator, a.denominator)
            - _variations(chain, b.numerator, b.denominator))


# -- root isolation ----------------------------------------------------------------

def root_bound(p: UPoly) -> Fraction:
    """Cauchy bound: every real root lies in [-B, B]."""
    if degree(p) < 1:
        return Fraction(1)
    return 1 + Fraction(max(abs(c) for c in p.num[:-1]), abs(p.num[-1]))


def _nonroot_point(p: UPoly, u: int, v: int, step: int) -> int:
    """Nudge u/v (v > 0) by step/v until it is not a root of p; the numerator it reaches."""
    while not homogeneous_value(p, u, v):
        u += step
    return u


def isolate_squarefree(p: UPoly, eps: Fraction,
                       chain: list[UPoly] | None = None) -> list[tuple[Fraction, Fraction]]:
    """Disjoint isolating intervals of width <= eps, one per real root.

    p must be squarefree; `chain` is its Sturm chain, built here if not
    given.  Endpoints are never roots, so sign evaluation at endpoints
    stays conclusive during later refinement.  Bisection counts roots by
    the chain until an interval holds one; from there, p's signs at the
    endpoint and the midpoint tell which half holds it.  An interval is a
    pair of integer numerators A, B over one denominator D > 0; its
    midpoint is A + B over 2D, nudged right by (B - A)/1024D while it is a
    root, and only the endpoints returned become Fractions.
    """
    if is_zero(p):
        raise ValueError("zero polynomial")
    if degree(p) == 0:
        return []
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("precision must be positive")
    en, ed = eps.numerator, eps.denominator
    if chain is None:
        chain = sturm_chain(p)
    bound = root_bound(p)
    # -bound and bound over 7 times their denominator, so a nudge of 1/7 is one step.
    D = 7 * bound.denominator
    A = _nonroot_point(p, -7 * bound.numerator, D, -bound.denominator)
    B = _nonroot_point(p, 7 * bound.numerator, D, bound.denominator)
    total = _variations(chain, A, D) - _variations(chain, B, D)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(A, B, D, total)]
    while stack:
        a, b, d, n = stack.pop()
        if n == 0:
            continue
        if n == 1 and (b - a) * ed <= en * d:
            out.append((Fraction(a, d), Fraction(b, d)))
            continue
        mid, a, b, d = a + b, 2 * a, 2 * b, 2 * d
        if not homogeneous_value(p, mid, d):
            a, b, d, mid = 1024 * a, 1024 * b, 1024 * d, 1024 * mid
            mid = _nonroot_point(p, mid, d, (b - a) // 1024)
        if n == 1:
            n_left = int((homogeneous_value(p, a, d) > 0) != (homogeneous_value(p, mid, d) > 0))
        else:
            n_left = _variations(chain, a, d) - _variations(chain, mid, d)
        stack.append((a, mid, d, n_left))
        stack.append((mid, b, d, n - n_left))
    out.sort()
    # Separate intervals that touch at a shared endpoint, so the closed
    # intervals are pairwise disjoint.
    for i in range(len(out) - 1):
        while out[i][1] >= out[i + 1][0]:
            a, b = out[i]
            out[i] = refine(p, (a, b), (b - a) / 4)
            a, b = out[i + 1]
            out[i + 1] = refine(p, (a, b), (b - a) / 4)
    return out


def isolate_with_multiplicity(p: UPoly, eps: Fraction) -> list[tuple[Fraction, Fraction, int, list[UPoly]]]:
    """Isolating data (lo, hi, multiplicity, Sturm chain of the squarefree
    factor) per distinct real root; the chain's first member is the factor."""
    if is_zero(p):
        raise ValueError("zero polynomial")
    roots: list[tuple[Fraction, Fraction, int, list[UPoly]]] = []
    for mult, factor in squarefree_decomposition(p):
        chain = sturm_chain(factor)
        for lo, hi in isolate_squarefree(factor, eps, chain):
            roots.append((lo, hi, mult, chain))
    roots.sort(key=lambda r: (r[0], r[1]))
    # Yun factors are pairwise coprime, so overlapping intervals of different
    # factors always separate under refinement.
    changed = True
    while changed:
        changed = False
        for i in range(len(roots) - 1):
            a1, b1, m1, c1 = roots[i]
            a2, b2, m2, c2 = roots[i + 1]
            if b1 >= a2:
                roots[i] = (*refine(c1[0], (a1, b1), (b1 - a1) / 4), m1, c1)
                roots[i + 1] = (*refine(c2[0], (a2, b2), (b2 - a2) / 4), m2, c2)
                roots.sort(key=lambda r: (r[0], r[1]))
                changed = True
    return roots


def refine(p: UPoly, interval: tuple[Fraction, Fraction], eps: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of squarefree p to width <= eps by bisection.

    The interval is a pair of integer numerators over one denominator d > 0,
    as in `isolate_squarefree`; the midpoint of a, b over d is a + b over 2d.
    """
    (a, b), d = over_common_denominator(interval)
    eps = Fraction(eps)
    en, ed = eps.numerator, eps.denominator
    fa = homogeneous_value(p, a, d)
    if fa == 0:
        raise ValueError("left endpoint is a root; not a valid isolating interval")
    while (b - a) * ed > en * d:
        mid, a, b, d = a + b, 2 * a, 2 * b, 2 * d
        fm = homogeneous_value(p, mid, d)
        if fm == 0:
            # Land strictly around the root with a tiny sign-compatible margin:
            # mid -+ (b - a)/(k d), for k = 1024, 2048, ...
            w, k = b - a, 1024
            while (not homogeneous_value(p, k * mid - w, k * d)
                   or not homogeneous_value(p, k * mid + w, k * d)):
                k *= 2
            a, b, d = k * mid - w, k * mid + w, k * d
            fa = homogeneous_value(p, a, d)
            continue
        if (fa > 0) == (fm > 0):
            a = mid
        else:
            b = mid
    return Fraction(a, d), Fraction(b, d)
