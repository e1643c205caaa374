"""Certificates for the sign and boundedness claims of the rigidity argument.

Two claims are exact coefficient-sign certificates, with no subdivision.
In the primitive gaps a = lam2-lam1, b = lam3-lam2, c = lam4-lam3 of a
sorted zero-sum 4-tuple every coefficient of each gamma*L_i is negative,
and every coefficient of 4^6 (p2^3 - 3 p3^2) is positive; that fixes their
signs on the whole chamber.

The band quantities are bounded by interval branch and bound on the
two-parameter chart of the constraint surface

    sum lam_i = 0,   sum lam_i^2 = S,   lam1 <= lam2 <= lam3 <= lam4:

(lam1, lam2) ranges over a rectangle and the top pair is recovered from

    s = -(lam1 + lam2),  disc = 2 (S - lam1^2 - lam2^2) - s^2,
    lam3 = (s - sqrt(disc)) / 2,  lam4 = (s + sqrt(disc)) / 2,

so every point of a cell with real branch satisfies both constraints
exactly and the interval enclosures are containment-correct.  The frontier
of cells is processed as numpy batches (see vinterval); cells split on
their widest coordinate, and a claim is proved when every feasible leaf
clears its margin.  Certified suprema are reported as explicit constants.
Both sides of the band share one frontier for all their quantities, with
a mask per quantity, so every quantity walks the cells it would walk alone.
No cell is decided below the tighten depth min(14, max_depth), so no
enclosure is computed there.  From that depth on, per side and depth, one
side program (`_SideProgram`, compiled once per side and quantity set)
encloses the numerators and denominators of the side's G quantities that
still have a live cell in one pass, multiplying each prefix the terms
share once, with the float operations of a term-by-term walk of each
polynomial, so the enclosures are the walk's to the bit.

The gamma*L_i products, the gap power sums, the gap slopes m0/m1 and the
six gaps from the three primitive ones (`identities.gaps`, which the
chamber and the cross-check's chart both call) are written once, in
`identities`, generic over the ring of gap values: the certifiers expand
them over exact polynomials or evaluate them over intervals; the
factor-sign notes of B_i are rendered from the bracket term it is built
from, `identities.BAND_SINGULAR_TERMS`.  The cross-check's chart and collar
tests are written once here: the two polynomial collar tests are decided
over int64 arrays, and the rest by a float filter over intervals and, where
an enclosure touches 0, over `QuadExt` at a scale where every value is an
integer.
The tests check the gap form equal to the printed products exactly and
every band enclosure against exact rational values.
"""

from __future__ import annotations

import functools
import math
import random
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import identities
from .algebraic import QuadExt, _sqrt_bounds, cubic_bound_sign, power_sums
from .configsolve import ScalarParams
from .exactalg import MultiPoly, Scalar, SymbolTable
from .vinterval import VI, float_down, float_up

__all__ = [
    "Certificate", "Chamber", "CellBatch", "certify_Li_negative", "certify_okumura",
    "BAND_QUANTITIES", "certify_band",
    "sample_Li_cross_check", "okumura_equality_case_exact", "collar_sign", "sampler_tau",
]


@dataclass
class Certificate:
    """Outcome of one proof attempt."""

    claim: str
    region: dict
    margin: float
    status: str                    # proved | failed | inconclusive | trivial
    cells_processed: int = 0
    max_depth_reached: int = 0
    bound: float | None = None     # certified constant, when the claim has one
    notes: list[str] = field(default_factory=list)
    open_cells: list[list[float]] = field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "claim": self.claim,
            "region": self.region,
            "margin": self.margin,
            "status": self.status,
            "cells_processed": self.cells_processed,
            "max_depth_reached": self.max_depth_reached,
        }
        if self.bound is not None:
            out["bound"] = self.bound
        if self.notes:
            out["notes"] = list(self.notes)
        if self.open_cells:
            out["open_cells"] = [list(c) for c in self.open_cells[:16]]
        return out


class CellBatch:
    """One frontier generation: rectangles [a1,b1] x [a2,b2]."""

    __slots__ = ("a1", "b1", "a2", "b2")

    def __init__(self, a1, b1, a2, b2):
        self.a1, self.b1 = np.asarray(a1, float), np.asarray(b1, float)
        self.a2, self.b2 = np.asarray(a2, float), np.asarray(b2, float)

    def __len__(self) -> int:
        return len(self.a1)

    def select(self, mask) -> "CellBatch":
        return CellBatch(self.a1[mask], self.b1[mask], self.a2[mask], self.b2[mask])

    def split(self) -> "CellBatch":
        """Bisect every cell on its widest coordinate; result is 2x the size."""
        w1 = self.b1 - self.a1
        w2 = self.b2 - self.a2
        first = w1 >= w2
        m1 = (self.a1 + self.b1) / 2
        m2 = (self.a2 + self.b2) / 2
        a1 = np.concatenate([self.a1, np.where(first, m1, self.a1)])
        b1 = np.concatenate([np.where(first, m1, self.b1), self.b1])
        a2 = np.concatenate([self.a2, np.where(first, self.a2, m2)])
        b2 = np.concatenate([np.where(first, self.b2, m2), self.b2])
        return CellBatch(a1, b1, a2, b2)

    def rows(self) -> list[list[float]]:
        return np.stack([self.a1, self.b1, self.a2, self.b2], axis=1).tolist()


def _s_bounds(S) -> tuple[float, float, float, float]:
    """Float enclosures of exact S and S/2 for chart construction."""
    out = []
    for q in (Fraction(S), Fraction(S) / 2):
        f = float(q)
        out += [f, f] if Fraction(f) == q else [np.nextafter(f, -np.inf), np.nextafter(f, np.inf)]
    return tuple(out)


class Chamber:
    """Derived interval quantities of a cell batch on the constraint chart."""

    __slots__ = ("n", "l1", "l2", "l3", "l4", "s_half", "disc",
                 "g21", "g32", "g43", "g31", "g42", "g41")

    def __init__(self, cells: CellBatch, s_bounds: tuple[float, float, float, float]):
        n = len(cells)
        self.n = n
        s_lo, s_hi, h_lo, h_hi = s_bounds
        l1, l2 = VI(cells.a1, cells.b1), VI(cells.a2, cells.b2)
        self.l1, self.l2 = l1, l2
        s = -(l1 + l2)
        self.s_half = VI.scalar(h_lo, h_hi, n)
        q = VI.scalar(s_lo, s_hi, n) - l1.sq() - l2.sq()
        self.disc = q.scale(2.0) - s.sq()
        r = self.disc.sqrt_clamped()
        self.l3 = (s - r).scale(0.5)
        self.l4 = (s + r).scale(0.5)
        gaps = identities.gaps(l2 - l1, self.l3 - l2, r)
        self.g21, self.g31, self.g32, self.g41, self.g42, self.g43 = gaps

    def select(self, mask) -> "Chamber":
        """The chamber of the selected cells: every field is elementwise."""
        out = Chamber.__new__(Chamber)
        out.n = int(np.count_nonzero(mask))
        for name in Chamber.__slots__:
            if name != "n":
                v = getattr(self, name)
                setattr(out, name, VI(v.lo[mask], v.hi[mask]))
        return out

    def p3(self) -> VI:
        """Cube power sum via the chart identity p3 = 3(l1+l2)(l1^2+l2^2-S/2).

        The closed form follows from eliminating the derived pair with the
        two power-sum constraints; it is sqrt-free, so the enclosure stays
        tight across the disc = 0 branch boundary.
        """
        u = self.l1 + self.l2
        v = self.l1.sq() + self.l2.sq()
        return (u * (v - self.s_half)).scale(3.0)


# -- exact coefficient-sign certificates ---------------------------------------

GAP_TABLE = SymbolTable(("a", "b", "c"))
GAP_VARS = tuple(MultiPoly.var(GAP_TABLE, x) for x in GAP_TABLE.names)
_GAP_NAMES = "the gaps a = lam2-lam1, b = lam3-lam2, c = lam4-lam3"


def _coefficient_signs(poly: MultiPoly, sign: int) -> tuple[bool, int, Scalar]:
    """Does every coefficient of a polynomial in the gaps have the given sign?

    If so, the polynomial has that sign wherever all gaps are positive and
    keeps it weakly where they are >= 0 (a Polya certificate with no
    multiplier).  Returns the verdict, the number of terms and the
    coefficient nearest zero.
    """
    coeffs = poly.terms.values()
    holds = bool(coeffs) and all(c * sign > 0 for c in coeffs)
    return holds, len(coeffs), min(coeffs, key=abs, default=0)


def certify_Li_negative(S, tau, margin=1e-9, max_depth=20) -> Certificate:
    """Prove gamma*L_i <= -margin for i = 1..4 on the tau-collared chamber.

    Since gamma > 0 where all gaps are >= tau > 0, this proves L_i < 0
    there.  In the primitive gaps every coefficient of every gamma*L_i is
    negative, so each monomial, and with it gamma*L_i, is monotone in each
    gap: gamma*L_i <= gamma*L_i(tau, tau, tau) wherever all gaps are >= tau,
    for every S.  That value, rounded down, is the certified bound; no cell
    is subdivided, and `max_depth` is only recorded.
    """
    S = Fraction(S)
    tau = float(tau)
    margin = float(margin)
    if S <= 0 or tau <= 0:
        raise ValueError("requires S > 0 and a positive gap floor tau"
                         " (the products vanish on the chamber boundary)")
    region = {"S": str(S), "tau": tau, "constraints": "p1 = 0, p2 = S, gaps >= tau",
              "max_depth": max_depth}
    if collar_sign(S, tau) < 0:
        return Certificate(claim="gamma_Li_negative", region=region, margin=margin,
                           status="trivial", notes=["empty collar: 5 tau^2 > S"])
    checks = [_coefficient_signs(p, -1) for p in identities.gamma_L_gap_form(*GAP_VARS)]
    negative = all(holds for holds, _, _ in checks)
    t = Fraction(tau)
    bound = float_down(-max(identities.gamma_L_gap_form(t, t, t))) if negative else None
    notes = [f"gamma*L_i in {_GAP_NAMES}: {', '.join(str(n) for _, n, _ in checks)} terms "
             f"for i = 1..4, {'every' if negative else 'not every'} coefficient negative, "
             f"largest {max(c for _, _, c in checks)}",
             "so gamma*L_i <= gamma*L_i(tau, tau, tau) where all gaps are >= tau, for every S"]
    return Certificate(
        claim="gamma_Li_negative",
        region=region,
        margin=margin,
        status="proved" if bound is not None and bound >= margin else "inconclusive",
        bound=bound,
        notes=notes,
    )


def collar_sign(S, tau) -> int:
    """Sign of S - 5 tau^2, exact in Fraction(tau).

    On p1 = 0 the squared differences of the four values sum to 4 p2, and
    gaps >= tau make them at least (1+1+1 + 4+4 + 9) tau^2 = 20 tau^2, with
    equality only at the evenly spaced point.  So the collar
    {p1 = 0, p2 = S, sorted, every gap >= tau} is empty at -1 and that one
    point at 0.
    """
    t = Fraction(tau)
    d = Fraction(S) - 5 * t * t
    return (d > 0) - (d < 0)


def sampler_tau(tau) -> Fraction:
    """The gap floor the cross-check samples with: tau at a denominator of at most 10^6.

    Refuses a tau that becomes 0 there (below 5e-7): the sampler would
    accept points with a zero gap, outside every collar.
    """
    t = Fraction(tau).limit_denominator(10**6)
    if t <= 0:
        raise ValueError(f"tau = {tau} is 0 at the cross-check's resolution 1e-6")
    return t


# randrange(0, 4097) keeps the top 13 bits of a Mersenne Twister word and
# draws again while they are >= 4097; randrange(-4096, 4097) keeps the top
# 14 and draws again while they are >= 8193.  A word below _P1_TOP is kept
# by the first, one below _P2_TOP by both.
_P1_TOP = 4097 << 19
_P2_TOP = 8193 << 18
_DRAW_WORDS = 2**13     # words per bulk draw; bounds the arrays one draw holds
_SIGN_BLOCK = 2**10     # accepted points held for one batch of the sign filter; bounds its arrays


def _pair_draws(rng: random.Random):
    """Yield the pairs (randrange(0, 4097), randrange(-4096, 4097)) that
    alternating calls on `rng` would return, as chunks of two int64 arrays.

    getrandbits(32 N) is the next N Mersenne Twister words, the first one
    least significant, so one call draws a chunk.  Every word the second
    draw keeps, the first keeps too; so the kept words alternate between the
    two, except that a word in [_P2_TOP, _P1_TOP) in a second-draw slot (about
    1 in 8194) is dropped there and the words after it move up one slot.
    """
    pending = np.empty(0, np.uint32)    # a first-draw word whose partner is in the next chunk
    while True:
        words = np.frombuffer(rng.getrandbits(32 * _DRAW_WORDS).to_bytes(4 * _DRAW_WORDS, "little"),
                              "<u4")
        kept = np.concatenate([pending, words[words < _P1_TOP]])
        dropped: list[int] = []
        for i in np.flatnonzero(kept >= _P2_TOP).tolist():
            if (i - len(dropped)) % 2:      # a second-draw slot once the earlier drops are gone
                dropped.append(i)
        kept = np.delete(kept, dropped)
        n = len(kept) // 2
        pending = kept[2 * n:]
        yield ((kept[:2 * n:2] >> 19).astype(np.int64),
               (kept[1:2 * n:2] >> 18).astype(np.int64) - 4096)


# Where the Li chart is read: a lift of integers, a sqrt (0 below 0) and `_LiChart`'s constants.
_Ring = namedtuple("_Ring", "lift sqrt c1 c3 r r_tau")


def _li_chart(x, y, ring: _Ring) -> tuple:
    """x + y and x - 3y as integers, and m = 3x^2 + 3y^2 - 2xy in the ring."""
    return x + y, x - 3 * y, ring.lift(3 * x * x + 3 * y * y - 2 * x * y)


def _root(m, ring: _Ring):
    """sqrt(r - m) in the ring."""
    return ring.sqrt(ring.r - m)


def _polynomial_tests(chart: tuple, ring: _Ring) -> tuple:
    """g21 >= tau and D td^2 >= tn^2 q^2, each as a value >= 0 where it holds."""
    s, _, m = chart
    return ring.lift(s) - ring.c1, ring.r_tau - m


def _root_test(chart: tuple, ring: _Ring) -> tuple:
    """g32 >= tau, as a value >= 0 where it holds."""
    _, t, m = chart
    return (ring.lift(t) - ring.c3 - _root(m, ring),)


def _squared_root_test(chart: tuple, ring: _Ring) -> np.ndarray:
    """g32 >= tau in int64 at integer thresholds c3 (for 2 c1) and r: where
    u = t - c3 >= 0 and u^2 >= r - m.

    m >= 0 and r <= 2^62, so r - m <= 2^62 = (2^31)^2: clipping u to
    [0, 2^31] before squaring decides the same, and no product wraps.
    """
    _, t, m = chart
    u = t - ring.c3
    return (u >= 0) & (np.clip(u, 0, 2**31) ** 2 >= ring.r - m)


def _gaps(chart: tuple, ring: _Ring) -> tuple:
    """g21, g31, g32, g41, g42, g43, scaled by 2q/bn in the filter's units."""
    s, t, m = chart
    root = _root(m, ring)
    return identities.gaps(ring.lift(2 * s), ring.lift(t) - root, root + root)


class _LiChart:
    """The scaled chart of the Li cross-check, as float enclosures and exactly.

    A point is lam1 = P1/q, lam2 = P2/q with P1 = -x bn, P2 = y bn for
    x = randrange(0, 4097), y = randrange(-4096, 4097), and S q^2 an
    integer, so disc q^2 = D = 2 (S q^2 - P1^2 - P2^2) - (P1 + P2)^2 is an
    integer.  Divided by bn td or bn^2 td^2, the three tests read

        g21 >= tau    <=>  (x + y) - c1 >= 0,            c1 = tn q / (bn td),
        D td^2 >= tn^2 q^2  <=>  (r - c1^2) - m >= 0,    r = D/bn^2 + m = 2 S q^2 / bn^2,
        g32 >= tau    <=>  (x - 3y) - 2 c1 - sqrt(r - m) >= 0,

    with m = 3x^2 + 3y^2 - 2xy, so D = bn^2 (r - m) > 0 where the second holds
    (where D < 0, sqrt clamps to 0 and the second fails).  Gaps scaled by 2q/bn are
    g21 = 2(x + y), g32 = (x - 3y) - sqrt(r - m) and g43 = 2 sqrt(r - m);
    gamma*L_i is homogeneous in the gaps, so the scale keeps its signs.  The
    filter reads this over `VI` batches, where x and y are exact and c1, 2 c1,
    r and r - c1^2 are each rounded outward once; the exact route over
    `QuadExt` at x bn td, y bn td, where every value is an integer.  The first
    two tests are polynomial in the integers x and y, so `accepted` decides
    them exactly in int64 (x + y >= ceil(c1) and m <= floor(r - c1^2)).  It
    also bounds the square-root test in int64 at the integer thresholds
    around 2 c1 and r, with t = x - 3y: it fails where t - floor(2 c1) < 0 or
    (t - floor(2 c1))^2 < floor(r) - m (the `integer` ring), and holds where
    t - ceil(2 c1) >= 0 and (t - ceil(2 c1))^2 >= ceil(r) - m (the
    `integer_strict` ring).  Only the candidates between the two take the
    filter, and the exact route where it cannot decide.
    """

    def __init__(self, S: Fraction, tau: Fraction):
        bound = _sqrt_bounds(S, Fraction(1, 1000))[1]
        den = 2**12
        # Common scale q: lam = integer / q with S q^2 an integer.
        self.q = den * bound.denominator * S.denominator
        self.bn = bound.numerator * S.denominator
        self.Sq2 = S.numerator * S.denominator * (den * bound.denominator) ** 2
        self.tn, self.td = tau.numerator, tau.denominator
        c1 = Fraction(self.tn * self.q, self.bn * self.td)
        r = Fraction(2 * self.Sq2, self.bn * self.bn)
        self.filter = _Ring(_exact, VI.sqrt_clamped,
                            *(VI(float_down(v), float_up(v)) for v in (c1, 2 * c1, r, r - c1 * c1)))
        # In int64: x + y >= ceil(c1), m <= floor(r - c1^2), and the root test
        # at the integers below and above 2 c1 and r.  |x + y| and |x - 3y|
        # stay below 2^15, 0 <= m < 2^28, c1 > 0 and r <= 2^25 (bound >= sqrt S),
        # so clamping the thresholds to +-2^62 decides the same.
        self.integer, self.integer_strict = (
            _Ring(np.asarray, None, _clamp64(math.ceil(c1)), _clamp64(rounded(2 * c1)),
                  _clamp64(rounded(r)), _clamp64(math.floor(r - c1 * c1)))
            for rounded in (math.floor, math.ceil))
        c1, r = self.tn * self.q, 2 * self.Sq2 * self.td * self.td
        self.exact = _Ring(int, lambda v: QuadExt.make(0, 1, max(v, 0)), c1, 2 * c1, r, r - c1 * c1)

    def _holds(self, x: np.ndarray, y: np.ndarray, values) -> np.ndarray:
        """Where each of `values(chart, ring)` is >= 0, one row per value, one column per
        point: decided by the filter where an enclosure excludes 0, else for the point alone."""
        signs = [_excludes_zero(v) for v in values(_li_chart(x, y, self.filter), self.filter)]
        holds = np.array([pos for _, pos in signs])
        k = self.bn * self.td
        for i in np.flatnonzero(~np.logical_and.reduce([d for d, _ in signs])).tolist():
            chart = _li_chart(int(x[i]) * k, int(y[i]) * k, self.exact)
            holds[:, i] = [v >= 0 for v in values(chart, self.exact)]
        return holds

    def accepted(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Mask of the candidates that pass the three tests: the two polynomial
        ones decided exactly in int64, and the square-root one in int64 where
        its integer bounds decide it, else by `_holds` (not called when the
        bounds decide every candidate)."""
        chart = _li_chart(x, y, self.integer)
        maybe = np.logical_and.reduce([v >= 0 for v in _polynomial_tests(chart, self.integer)]
                                      + [_squared_root_test(chart, self.integer)])
        passed = maybe & _squared_root_test(chart, self.integer_strict)
        keep = np.flatnonzero(maybe & ~passed)
        if keep.size:
            passed[keep] = self._holds(x[keep], y[keep], _root_test)[0]
        return passed

    def violations(self, x: np.ndarray, y: np.ndarray) -> list[dict]:
        """The violation records (gamma*L_i >= 0) of a batch of accepted points, in order."""
        holds = self._holds(x, y, lambda chart, ring: identities.gamma_L_printed(*_gaps(chart, ring)))
        return [{"i": i + 1, "P1": -int(x[k]) * self.bn, "P2": int(y[k]) * self.bn, "q": self.q}
                for k, i in np.argwhere(holds.T).tolist()]


def _clamp64(v: int) -> int:
    """v clamped to [-2^62, 2^62], inside the int64 range."""
    return max(-2**62, min(v, 2**62))


def _exact(a: np.ndarray) -> VI:
    """Integers of magnitude below 2^53, each its own float, as point intervals."""
    return VI(a, a)


def _excludes_zero(v: VI) -> tuple[np.ndarray, np.ndarray]:
    """Where the enclosure excludes 0, and where it lies above 0.

    This is the filter's one decision; NaN endpoints compare false, so they
    decide nothing.
    """
    return (v.lo > 0) | (v.hi < 0), v.lo > 0


def sample_Li_cross_check(S, tau, count=100_000, seed=20260808) -> dict:
    """Exact spot check: gamma*L_i < 0 at random feasible points.

    Points are sampled as dyadic rationals in the chart (see `_LiChart`),
    drawn in bulk from the stream `random.Random(seed).randrange` gives.
    The rejection tests and the four product signs are decided in floating
    point where every outward-rounded enclosure excludes 0, else exactly, in
    `QuadExt`, for that point alone.  The first `count` accepted points in
    stream order are checked.
    """
    S = Fraction(S)
    tau = sampler_tau(tau)
    if S <= 0:
        # disc <= 0 at every point of the chart, so every candidate is rejected.
        if count > 0:
            raise RuntimeError("sampler acceptance rate too low")
        return {"samples": 0, "violations": [], "seed": seed}
    chart = _LiChart(S, tau)
    budget = 400 * count        # candidates examined before giving up
    accepted = 0
    held_x, held_y = [], []     # accepted points whose signs are not checked yet
    violations = []
    draws = _pair_draws(random.Random(seed))
    while accepted < count:
        if not budget:
            raise RuntimeError("sampler acceptance rate too low")
        x, y = next(draws)
        x, y = x[:budget], y[:budget]
        budget -= len(x)
        keep = np.flatnonzero(chart.accepted(x, y))[:count - accepted]
        accepted += len(keep)
        held_x.append(x[keep])
        held_y.append(y[keep])
        if sum(map(len, held_x)) >= _SIGN_BLOCK or accepted == count:
            violations += chart.violations(np.concatenate(held_x), np.concatenate(held_y))
            held_x, held_y = [], []
    return {"samples": accepted, "violations": violations, "seed": seed}


# -- the cubic-sum inequality on the sorted chamber ---------------------------

def certify_okumura(n=4, tol=1e-6) -> Certificate:
    """Prove the cubic-sum bound 3 p3^2 <= p2^3 on the sorted chamber.

    Every coefficient of 4^6 (p2^3 - 3 p3^2) in the gaps is positive, so the
    bound holds wherever the three gaps are >= 0, equality points included,
    and equality holds exactly where every monomial vanishes.  `tol` is only
    recorded, as the record's margin.
    """
    if n != 4:
        raise ValueError("only the 4-dimensional inequality is certified here")
    # The power sums of the gaps 4a, 4b, 4c are 4^2 p2 and 4^3 p3, with integer
    # coefficients: P2^3 - 3 P3^2 is 4^6 (p2^3 - 3 p3^2), all in ints.
    P2, P3 = identities.gap_power_sums(*(4 * g for g in GAP_VARS))
    holds, terms, smallest = _coefficient_signs(P2**3 - 3 * P3**2, 1)
    notes = [f"4^6 (p2^3 - 3 p3^2) in {_GAP_NAMES}: {terms} terms, "
             f"{'every' if holds else 'not every'} coefficient positive, smallest {smallest}"]
    if holds:
        # Each monomial has a factor b and a factor a or c; the tests check
        # the form zero at exactly these 0/1 gap patterns.
        notes += ["holds on the whole sorted chamber, equality points included",
                  "equality exactly where a = b = 0 (lam1 = lam2 = lam3 <= lam4)"
                  " or b = c = 0 (lam1 <= lam2 = lam3 = lam4)"]
    return Certificate(
        claim="okumura_cubic_bound",
        region={"constraints": "p1 = 0, p2 = 1, sorted chamber", "n": 4},
        margin=float(tol),
        status="proved" if holds else "inconclusive",
        bound=0.0,
        notes=notes,
    )


def okumura_equality_case_exact() -> dict:
    """Exact check that the normalized (3,-1,-1,-1) pattern attains the bound."""
    p1, p2, p3 = power_sums([QuadExt.make(0, Fraction(c, 12), 12) for c in (3, -1, -1, -1)], 3)
    return {
        "p1_zero": p1.sign() == 0,
        "p2_one": (p2 - QuadExt.rational(1)).sign() == 0,
        "p3_squared_equals_third": (p3 * p3 - QuadExt.rational(Fraction(1, 3))).sign() == 0,
    }


# -- band bounds ---------------------------------------------------------------

BAND_QUANTITIES = {
    "m0": ("g", "m"), "m1": ("f", "m"),
    "B1g": ("g", "B1"), "B2g": ("g", "B2"),
    "G1g": ("g", "G1"), "G2g": ("g", "G2"), "G3g": ("g", "G3"), "G4g": ("g", "G4"),
    "B2f": ("f", "B2"), "B3f": ("f", "B3"),
    "G1f": ("f", "G1"), "G2f": ("f", "G2"), "G3f": ("f", "G3"), "G4f": ("f", "G4"),
}


def certify_band(S, A3, eps0, delta1, quantities=tuple(BAND_QUANTITIES),
                 max_depth=30) -> list[Certificate]:
    """Certify sign or boundedness of gap-band quantities, one certificate each.

    Band (side g):  {0 < (lam2-lam1)^2 < delta1,  (lam3-lam2)^2 >= eps0},
    band (side f):  {0 < (lam3-lam2)^2 < delta1,  (lam2-lam1)^2 >= eps0},
    both intersected with  p1 = 0, p2 = S, p3 = A3  and the sorted chamber.
    The cube-sum cut is what keeps the top gaps away from zero on the f
    side, so the bounded quantities really are bounded there.

    Slope quantities (m0, m1) get a certified enclosure within [0, C] or
    [-C, 0]; B-quantities are nonpositive by factor signs (no subdivision
    needed); the bounded remainders G get a certified constant C with
    |G| <= C.  The slope and G quantities of both sides share one branch
    and bound (see `_band_walk`).
    """
    for q in quantities:
        if q not in BAND_QUANTITIES:
            raise ValueError(f"unknown band quantity {q!r}")
    params = ScalarParams.make(S, A3)
    S, A3 = params.S, params.A3
    eps0 = Fraction(eps0)
    delta1 = Fraction(delta1)
    if not (0 < delta1 < eps0):
        raise ValueError("requires 0 < delta1 < eps0")
    regions = {side: _band_region(side, S, A3, eps0, delta1) for side in "gf"}
    # 3 A3^2 <= S^3 bounds p3 on the sphere p1 = 0, p2 = S (n = 4), exactly.
    # On the bound only lam1 = lam2 = lam3 or lam2 = lam3 = lam4 has p3 = A3:
    # there lam3 = lam2, which neither band admits.
    cubic = cubic_bound_sign(S, A3)
    empty = ("the constraint sphere is a point" if S <= 0
             else "A3 beyond the cubic bound" if cubic < 0
             else "A3 on the cubic bound" if cubic == 0 else None)
    if empty:
        return [Certificate(claim=f"band_{q}", region=regions[BAND_QUANTITIES[q][0]], margin=0.0,
                            status="trivial", notes=[f"empty band: {empty}"])
                for q in quantities]
    certs = {q: _b_sign_certificate(q, side, key, regions[side])
             for q in quantities for side, key in [BAND_QUANTITIES[q]] if key.startswith("B")}
    a3_lo, a3_hi = (float(x) for x in A3.interval(Fraction(1, 10**15)))
    limits = (float_down(_sqrt_bounds(eps0, Fraction(1, 10**12))[0]),
              float(_sqrt_bounds(delta1, Fraction(1, 10**12))[1]) * (1 + 1e-12),
              np.nextafter(a3_lo, -np.inf), np.nextafter(a3_hi, np.inf))
    bound = float(_sqrt_bounds(S, Fraction(1, 10**9))[1]) * (1 + 1e-12)
    walked = [q for q in dict.fromkeys(quantities) if q not in certs]
    if walked:
        certs.update(_band_walk(walked, regions, _s_bounds(S), bound, limits, max_depth))
    return [certs[q] for q in quantities]


def _band_walk(quantities, regions, sb, bound, limits, max_depth) -> dict[str, Certificate]:
    """One branch and bound over the chart for the walked quantities of both sides.

    The frontier is the union of the quantities' own frontiers, with one
    Chamber per depth, and row i of `live` marks the cells quantity i still
    needs; each side's feasibility test (its small and big gap swapped)
    prunes that side's rows only.  Below the tighten depth no cell is
    decided, so there the walk only prunes and splits and computes no
    enclosure; from it on, `_decide_side` encloses each side's live
    quantities.  Feasibility and enclosures are elementwise per cell, and
    splitting a selection of cells is selecting from the split cells, so
    each quantity gets exactly the cells, split order, depth, supremum and
    open cells of a walk of its own.
    """
    sqrt_eps0_lo, sqrt_delta1_hi, a3_lo, a3_hi = limits
    keys = [BAND_QUANTITIES[q][1] for q in quantities]
    sides = {side: [i for i, q in enumerate(quantities) if BAND_QUANTITIES[q][0] == side]
             for side in "gf"}
    n = len(quantities)
    processed, feasible_seen, reached = (np.zeros(n, dtype=int) for _ in range(3))
    sup = [0.0] * n
    open_cells: list[list[list[float]]] = [[] for _ in range(n)]
    tighten_depth = min(14, max_depth)
    cells = CellBatch([-bound], [0.0], [-bound], [bound])
    live = np.ones((n, 1), dtype=bool)
    depth = 0
    while live.any():
        processed += live.sum(axis=1)
        reached[live.any(axis=1)] = depth
        ch = Chamber(cells, sb)
        p3 = ch.p3()
        on_band = (ch.disc.hi >= 0) & (p3.hi >= a3_lo) & (p3.lo <= a3_hi)
        for side, rows in sides.items():
            small, big = (ch.g21, ch.g32) if side == "g" else (ch.g32, ch.g21)
            live[rows] &= (on_band & (small.hi >= 0) & (small.lo <= sqrt_delta1_hi)
                           & (big.hi >= sqrt_eps0_lo))
        feasible_seen += live.sum(axis=1)
        # Decided cells keep splitting until tighten_depth: the supremum
        # constant tightens while soundness is unaffected.
        if depth >= tighten_depth:
            for side, rows in sides.items():
                _decide_side(side, rows, keys, live, ch, sup, sqrt_eps0_lo)
        if depth >= max_depth:
            open_cells = [cells.select(row).rows() for row in live]
            break
        keep = live.any(axis=0)
        cells, live = cells.select(keep).split(), np.tile(live[:, keep], 2)
        depth += 1
    out = {}
    for i, q in enumerate(quantities):
        stats = {"claim": f"band_{q}", "region": regions[BAND_QUANTITIES[q][0]], "margin": 0.0,
                 "cells_processed": int(processed[i]), "max_depth_reached": int(reached[i])}
        if not feasible_seen[i]:
            out[q] = Certificate(status="trivial", notes=["empty band region"], **stats)
            continue
        note = (f"{q} within [0, C], C certified" if q == "m0"
                else f"{q} within [-C, 0], C certified" if q == "m1"
                else f"|{q}| <= C with C certified")
        out[q] = Certificate(status="inconclusive" if open_cells[i] else "proved", bound=sup[i],
                             notes=[note], open_cells=open_cells[i], **stats)
    return out


def _decide_side(side, rows, keys, live, ch: Chamber, sup, floor) -> None:
    """Enclose the live quantities of a side (rows `rows` of `live`) over the
    cells where one of them is live; clear each row's decided cells from
    `live` and raise its `sup` to their largest magnitude.

    One side program call encloses the side's G quantities that still have
    a live cell, in key order, so a side compiles at most 15 programs; the
    slope has its own gap form.
    """
    rows = [i for i in rows if live[i].any()]
    if not rows:
        return
    on = live[rows].any(axis=0)
    sub = ch.select(on)
    walked = sorted((i for i in rows if keys[i] != "m"), key=keys.__getitem__)
    if walked:
        vals, oks = _side_program(side, tuple(keys[i] for i in walked))(
            [sub.l1, sub.l2, sub.l3, sub.l4])
    for i in rows:
        if keys[i] == "m":
            val, ok = _slope_value(side, sub, floor)
        else:
            r = walked.index(i)
            val, ok = VI(vals.lo[r], vals.hi[r]), oks[r]
        mine = live[i, on]
        done = mine & ok
        if done.any():
            sup[i] = max(sup[i], float(val.mag()[done].max()))
        live[i, on] = mine & ~ok


def _band_region(side, S, A3, eps0, delta1) -> dict:
    small = "(lam2-lam1)^2" if side == "g" else "(lam3-lam2)^2"
    big = "(lam3-lam2)^2" if side == "g" else "(lam2-lam1)^2"
    return {
        "S": str(S), "A3": str(A3), "eps0": str(eps0), "delta1": str(delta1),
        "band": f"0 < {small} < delta1, {big} >= eps0, p3 = A3, sorted",
    }


def _b_sign_certificate(quantity: str, side: str, key: str, region: dict) -> Certificate:
    """Nonpositivity of a singular band coefficient by factor signs.

    B_i is m * sign * (numerator gaps) / (denominator gaps), built by
    `identities.gap_band_quantities` from the entry of
    `identities.BAND_SINGULAR_TERMS` that the notes are rendered from.
    Every gap there is lam_i - lam_j with i > j, so nonnegative on the sorted
    chamber, and `identities.gap_slope_form` makes m0 = 2 g43 (g41/g32 +
    g42/g31) >= 0 and m1 = -2 g41 (g42/g31 + g43/g21) <= 0; with the entry's
    sign the product is <= 0 on the whole band and strictly negative where
    all gaps are positive.  The test suite multiplies the rendered factors
    back out and checks them equal to B_i exactly, and checks the slopes'
    signs by `_coefficient_signs`, so no subdivision is needed.
    """
    sign, num, den = identities.BAND_SINGULAR_TERMS[(side, int(key[1:]))]
    factors = (["-1"] if sign < 0 else []) + ["m0 >= 0" if side == "g" else "m1 <= 0"]
    factors += [f"lam{i}-lam{j} >= 0" for i, j in num]
    powers = "".join(f"(lam{i}-lam{j})" + (f"^{den.count((i, j))}" if den.count((i, j)) > 1 else "")
                     for i, j in dict.fromkeys(den))
    factors.append(f"1/({powers}) > 0")
    return Certificate(
        claim=f"band_{quantity}",
        region=region,
        margin=0.0,
        status="proved",
        notes=[f"{quantity} <= 0 by factor signs on the sorted band",
               "factors: " + "; ".join(factors),
               "strictly negative on the open band (all gaps positive)"],
    )


_CHART = ("l1", "l2", "l3", "l4")     # the symbols of the band rational functions
# Cells per block of a side program: it bounds the (terms x cells) arrays
# a block holds at once, under a megabyte for a side's 277 terms, however
# large the frontier grows.
_CELL_BLOCK = 32
_OUTWARD = np.array([-np.inf, np.inf]).reshape(2, 1)   # the rounding direction of lo, then hi


class _SideProgram:
    """K rational functions in l1..l4 laid out to be enclosed in one pass.

    The 2K polynomials (the K numerators, then the K denominators) are
    sorted by descending term count.  A term is a chain of f factor rows of
    the power table (see `_power_table`), in symbol order, times its
    coefficient rounded outward.  A chain's first k rows are its prefix of
    length k, and each distinct prefix is multiplied out once, level by
    level: `levels[k]` holds the distinct prefixes of length k + 2 as
    (parent, row) index arrays, each the product of its parent prefix and
    one more row.  Prefixes are numbered after the `base` rows of the power
    table, so a parent or row indexes one table, and a one-row prefix is
    its table row.  The terms are grouped by factor count: a group holds
    the table rows of its terms' whole chains (None for the constants),
    their coefficients as a (T, 1) column, and their slots in the
    step-major layout, where step k holds the k-th term of each polynomial
    that has one: a prefix of the sorted polynomials, `steps[k]` = (offset,
    prefix length).  So every polynomial sums exactly its own terms, in
    monomial order, with no padding.
    """

    __slots__ = ("k", "degree", "size", "base", "levels", "groups", "steps", "unsort")

    def __init__(self, pairs: Sequence[tuple[MultiPoly, MultiPoly]]):
        polys = [num for num, _ in pairs] + [den for _, den in pairs]
        terms = [_chart_terms(p) for p in polys]
        rank = sorted(range(len(polys)), key=lambda j: -len(terms[j]))
        self.k = len(pairs)
        self.unsort = np.argsort(rank)
        self.steps, self.degree, self.size = [], 0, 0
        groups: dict[int, list] = {}
        for step in range(len(terms[rank[0]]) if rank else 0):
            width = sum(len(terms[j]) > step for j in rank)
            self.steps.append((self.size, width))
            for j in rank[:width]:
                factors, c = terms[j][step]
                self.degree = max([self.degree] + [e for _, e in factors])
                groups.setdefault(len(factors), []).append(
                    (self.size, tuple((e - 1) * len(_CHART) + i for i, e in factors),
                     np.nextafter(c, -np.inf), np.nextafter(c, np.inf)))
                self.size += 1
        self.base = len(_CHART) * max(self.degree, 1)     # the rows of the power table
        chains = [rows for f in sorted(groups) for _, rows, _, _ in groups[f] if f]
        ids = {rows[:1]: rows[0] for rows in chains}
        self.levels, count = [], self.base
        for length in range(2, max(groups, default=0) + 1):
            parent, row = [], []
            for rows in chains:
                if len(rows) >= length and rows[:length] not in ids:
                    ids[rows[:length]], count = count, count + 1
                    parent.append(ids[rows[:length - 1]])
                    row.append(rows[length - 1])
            self.levels.append((np.array(parent, dtype=np.intp), np.array(row, dtype=np.intp)))
        self.groups = []
        for f in sorted(groups):
            slots, rows, c_lo, c_hi = zip(*groups[f])
            self.groups.append((np.array([ids[r] for r in rows], dtype=np.intp) if f else None,
                                VI(np.reshape(c_lo, (-1, 1)), np.reshape(c_hi, (-1, 1))),
                                np.array(slots, dtype=np.intp)))

    def polys(self, chart: Sequence[VI]) -> VI:
        """Enclosures of the 2K polynomials, numerators first, over the cells
        of l1..l4, as (2K, cells) arrays.

        The power table and the prefixes of each level share one (rows,
        cells) table; each level is one 2-D VI product of its parents and
        rows, and each group of terms one product of their whole chains and
        their coefficients.  Step k then adds the k-th terms to its prefix
        of running sums with one outward rounding.  Every operation is
        elementwise, and each term is the same left-to-right chain of VI
        products a term-by-term walk of its polynomial multiplies out, so the
        enclosures are the walk's to the bit.  The arrays are (rows x cells):
        `__call__` passes the cells in blocks.
        """
        powers = _power_table(chart, self.degree)
        n = powers.lo.shape[1]
        lo = np.empty((self.base + sum(len(parent) for parent, _ in self.levels), n))
        hi = np.empty_like(lo)
        lo[:self.base], hi[:self.base] = powers.lo, powers.hi
        start = self.base
        for parent, row in self.levels:
            prod = VI(lo[parent], hi[parent]) * VI(lo[row], hi[row])
            lo[start:start + len(parent)], hi[start:start + len(parent)] = prod.lo, prod.hi
            start += len(parent)
        # Slot- and polynomial-major, lo then hi: every step is contiguous.
        terms = np.empty((self.size, 2, n))
        for final, coeffs, slots in self.groups:
            term = coeffs if final is None else VI(lo[final], hi[final]) * coeffs
            terms[slots, 0], terms[slots, 1] = term.lo, term.hi
        sums = np.zeros((len(self.unsort), 2, n))
        for offset, width in self.steps:
            part = sums[:width]
            np.add(part, terms[offset:offset + width], out=part)
            np.nextafter(part, _OUTWARD, out=part)
        sums = sums[self.unsort]
        return VI(sums[:, 0], sums[:, 1])

    def __call__(self, chart: Sequence[VI]) -> tuple[VI, np.ndarray]:
        """Enclosures of the K rational functions over the cells of l1..l4,
        as (K, cells) arrays, and a mask of the entries whose denominator
        excludes zero; the other entries are finite placeholders.

        Cells go through in blocks of at most _CELL_BLOCK, which bounds the
        arrays a block holds; every operation is elementwise, so the
        blocking changes no bit.
        """
        n, k = len(chart[0].lo), self.k
        lo, hi, ok = np.empty((k, n)), np.empty((k, n)), np.empty((k, n), dtype=bool)
        for start in range(0, n, _CELL_BLOCK):
            cells = slice(start, start + _CELL_BLOCK)
            sums = self.polys([VI(v.lo[cells], v.hi[cells]) for v in chart])
            num, den = VI(sums.lo[:k], sums.hi[:k]), VI(sums.lo[k:], sums.hi[k:])
            nonzero = (den.lo > 0) | (den.hi < 0)
            safe_den = VI(np.where(nonzero, den.lo, 1.0), np.where(nonzero, den.hi, 2.0))
            val = num / safe_den
            lo[:, cells], hi[:, cells], ok[:, cells] = val.lo, val.hi, nonzero
        return VI(lo, hi), ok


def _chart_terms(poly: MultiPoly) -> list[tuple[list[tuple[int, int]], float]]:
    """The terms of a polynomial in l1..l4 in monomial order: for each, its
    (chart index, exponent) factors in symbol order and its coefficient as
    the nearest float."""
    names = poly.table.names
    return [([(_CHART.index(names[i]), e) for i, e in enumerate(poly.exponents(mono)) if e],
             float(coeff))
            for mono, coeff in poly.sorted_terms()]


@functools.cache
def _side_program(side: str, keys: tuple[str, ...]) -> _SideProgram:
    """The program of a side's quantities `keys`, compiled on first use."""
    quantities = identities.gap_band_quantities(side)
    return _SideProgram([(quantities[key].num, quantities[key].den_poly()) for key in keys])


def _slope_value(side, ch: Chamber, floor: float) -> tuple[VI, np.ndarray]:
    """Enclosure of the side's slope m0 or m1 over the cells.

    Gap enclosures are intersected with the region-implied floors (sorted
    chamber: gaps >= 0; the wide gap >= sqrt(eps0)), which is sound because
    the certified claim quantifies over feasible points only.  Returns the
    values and a mask of cells whose enclosure is finite.
    """
    def gap(i, j):
        return getattr(ch, f"g{i}{j}")

    # Every slope denominator is at least the band's wide gap, >= sqrt(eps0).
    val = identities.gap_slope_form(
        side, lambda i, j: gap(i, j).floor_at(0.0),
        lambda x, pair: x / gap(*pair).floor_at(floor))
    return val, np.isfinite(val.lo) & np.isfinite(val.hi)


def _power_table(chart: list[VI], degree: int) -> VI:
    """Row (e-1)*4 + i is l_{i+1}^e over the cells, for e = 1..degree; each
    power is the previous one times the base."""
    base = VI(np.stack([v.lo for v in chart]), np.stack([v.hi for v in chart]))
    rows = [base]
    for _ in range(degree - 1):
        rows.append(rows[-1] * base)
    return VI(np.concatenate([r.lo for r in rows]), np.concatenate([r.hi for r in rows]))
