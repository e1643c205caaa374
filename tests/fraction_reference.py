"""The Fraction kernel that `isocert.upoly` and its integer `RatInterval`
replaced: the reference the integer kernel is tested against.

A polynomial here is a tuple of Fractions, lowest degree first, with no
trailing zero, and an interval a `RatInterval` with Fraction endpoints.
Every function is the straightforward rational version: Euclidean
remainders, monic gcds, bisection and Horner in Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from isocert.algebraic import QuadExt

UPoly = tuple  # tuple[Fraction, ...]


class RatInterval:
    """Closed interval with Fraction endpoints; exact containment arithmetic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = Fraction(lo)
        hi = lo if hi is None else Fraction(hi)
        if lo > hi:
            raise ValueError("inverted interval")
        self.lo, self.hi = lo, hi

    def __add__(self, o: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo + o.lo, self.hi + o.hi)

    def __mul__(self, o: "RatInterval") -> "RatInterval":
        c = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return RatInterval(min(c), max(c))

    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        if isinstance(x, QuadExt):
            return (x - QuadExt.rational(self.lo)).sign() >= 0 and (
                QuadExt.rational(self.hi) - x
            ).sign() >= 0
        return self.lo <= Fraction(x) <= self.hi


def upoly(coeffs: Iterable) -> UPoly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(p: UPoly) -> int:
    """Degree, with the zero polynomial mapped to -1."""
    return len(p) - 1


def is_zero(p: UPoly) -> bool:
    return not p


def add(p: UPoly, q: UPoly) -> UPoly:
    n = max(len(p), len(q))
    return upoly(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def neg(p: UPoly) -> UPoly:
    return tuple(-c for c in p)


def sub(p: UPoly, q: UPoly) -> UPoly:
    return add(p, neg(q))


def mul(p: UPoly, q: UPoly) -> UPoly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return upoly(out)


def scale(p: UPoly, c) -> UPoly:
    c = Fraction(c)
    if c == 0:
        return ()
    return tuple(a * c for a in p)


def monic(p: UPoly) -> UPoly:
    if not p:
        return p
    return scale(p, Fraction(1) / p[-1])


def divmod_exact(p: UPoly, q: UPoly) -> tuple[UPoly, UPoly]:
    """Quotient and remainder over the rationals."""
    if not q:
        raise ZeroDivisionError("division by zero polynomial")
    r = list(p)
    out = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq = len(q) - 1
    lc = q[-1]
    while len(r) - 1 >= dq and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dq:
            break
        k = len(r) - 1 - dq
        c = r[-1] / lc
        out[k] = c
        for j, b in enumerate(q):
            r[j + k] -= c * b
        r.pop()
    return upoly(out), upoly(r)


def rem(p: UPoly, q: UPoly) -> UPoly:
    return divmod_exact(p, q)[1]


def derivative(p: UPoly) -> UPoly:
    return upoly(c * i for i, c in enumerate(p) if i)


def evaluate(p: UPoly, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def gcd(p: UPoly, q: UPoly) -> UPoly:
    """Monic gcd by the Euclidean algorithm."""
    a, b = p, q
    while b:
        a, b = b, rem(a, b)
    return monic(a)


def squarefree_part(p: UPoly) -> UPoly:
    if degree(p) <= 0:
        return monic(p)
    return monic(divmod_exact(p, gcd(p, derivative(p)))[0])


def squarefree_decomposition(p: UPoly) -> list[tuple[int, UPoly]]:
    """Yun's algorithm: [(multiplicity, monic squarefree factor), ...]."""
    if degree(p) <= 0:
        return []
    p = monic(p)
    dp = derivative(p)
    a = gcd(p, dp)
    b = divmod_exact(p, a)[0]
    c = divmod_exact(dp, a)[0]
    d = sub(c, derivative(b))
    out = []
    i = 1
    while degree(b) > 0:
        a = gcd(b, d)
        if degree(a) > 0:
            out.append((i, monic(a)))
        b = divmod_exact(b, a)[0]
        c = divmod_exact(d, a)[0]
        d = sub(c, derivative(b))
        i += 1
    return out


def sturm_chain(p: UPoly) -> list[UPoly]:
    chain = [p, derivative(p)]
    while degree(chain[-1]) > 0:
        r = rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(neg(r))
    return [c for c in chain if c]


def _variations(values: Sequence[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(chain: list[UPoly], a: Fraction, b: Fraction) -> int:
    """Distinct real roots in (a, b]; endpoints must not be roots of chain[0]."""
    va = _variations([evaluate(c, a) for c in chain])
    vb = _variations([evaluate(c, b) for c in chain])
    return va - vb


def root_bound(p: UPoly) -> Fraction:
    """Cauchy bound: every real root lies in [-B, B]."""
    if degree(p) < 1:
        return Fraction(1)
    lc = abs(p[-1])
    m = max(abs(c) for c in p[:-1]) if len(p) > 1 else Fraction(0)
    return 1 + m / lc


def _nonroot_point(p: UPoly, x: Fraction, step: Fraction) -> Fraction:
    """Nudge x outward until it is not a root of p."""
    while evaluate(p, x) == 0:
        x += step
    return x


def isolate_squarefree(p: UPoly, eps: Fraction,
                       chain: list[UPoly] | None = None) -> list[tuple[Fraction, Fraction]]:
    """Disjoint isolating intervals of width <= eps, one per real root.

    p must be squarefree; `chain` is its Sturm chain, built here if not
    given.  Endpoints are never roots, so sign evaluation at endpoints
    stays conclusive during later refinement.  Bisection counts roots by
    the chain until an interval holds one; from there, p's signs at the
    endpoint and the midpoint tell which half holds it.
    """
    if is_zero(p):
        raise ValueError("zero polynomial")
    if degree(p) == 0:
        return []
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("precision must be positive")
    if chain is None:
        chain = sturm_chain(p)
    bound = root_bound(p)
    lo = _nonroot_point(p, -bound, Fraction(-1, 7))
    hi = _nonroot_point(p, bound, Fraction(1, 7))
    total = sturm_count(chain, lo, hi)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(lo, hi, total)]
    while stack:
        a, b, n = stack.pop()
        if n == 0:
            continue
        if n == 1 and b - a <= eps:
            out.append((a, b))
            continue
        mid = _nonroot_point(p, (a + b) / 2, (b - a) / 1024)
        if n == 1:
            n_left = int((evaluate(p, a) > 0) != (evaluate(p, mid) > 0))
        else:
            n_left = sturm_count(chain, a, mid)
        stack.append((a, mid, n_left))
        stack.append((mid, b, n - n_left))
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
    """Shrink an isolating interval of squarefree p to width <= eps by bisection."""
    a, b = interval
    fa = evaluate(p, a)
    if fa == 0:
        raise ValueError("left endpoint is a root; not a valid isolating interval")
    while b - a > eps:
        mid = (a + b) / 2
        fm = evaluate(p, mid)
        if fm == 0:
            # Land strictly around the root with a tiny sign-compatible margin.
            off = (b - a) / 1024
            while evaluate(p, mid - off) == 0 or evaluate(p, mid + off) == 0:
                off /= 2
            a, b = mid - off, mid + off
            fa = evaluate(p, a)
            continue
        if (fa > 0) == (fm > 0):
            a, fa = mid, fm
        else:
            b = mid
    return a, b


def eval_on_interval(poly: UPoly, box: RatInterval) -> RatInterval:
    """Exact interval Horner evaluation."""
    acc = RatInterval(0)
    for c in reversed(poly):
        acc = acc * box + RatInterval(c)
    return acc


def sqrt_bounds(d, eps) -> tuple[Fraction, Fraction]:
    """Bisect [0, max(1, d)] until the width is at most eps: lo <= sqrt(d) <= hi
    for d >= 0, and lo = 0 (it never moves) for d < 0."""
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


def sqrt_enclosure(box: RatInterval, eps: Fraction) -> RatInterval:
    """Rational enclosure of sqrt over an interval: the lower bisection bound
    of max(lo, 0) and the upper one of hi."""
    lo = max(box.lo, Fraction(0))
    lo_s = sqrt_bounds(lo, eps)[0] if lo > 0 else Fraction(0)
    return RatInterval(lo_s, sqrt_bounds(box.hi, eps)[1])


def interval_power(iv: RatInterval, n: int) -> RatInterval:
    if n == 0:
        return RatInterval(1)
    if n % 2 == 1 or iv.lo >= 0:
        return RatInterval(iv.lo**n, iv.hi**n)
    if iv.hi <= 0:
        return RatInterval(iv.hi**n, iv.lo**n)
    return RatInterval(0, max(iv.lo**n, iv.hi**n))


def power_sums(lams: list[RatInterval]) -> dict[str, RatInterval]:
    """Enclosures of p1..p4 as sums of interval powers."""
    out = {}
    for k in range(1, 5):
        total = RatInterval(0)
        for lam in lams:
            total = total + interval_power(lam, k)
        out[f"p{k}"] = total
    return out
