"""Interval branch-and-bound certificates for sign and boundedness claims.

All certificates work on the two-parameter chart of the constraint surface

    sum lam_i = 0,   sum lam_i^2 = S,   lam1 <= lam2 <= lam3 <= lam4:

(lam1, lam2) ranges over a rectangle and the top pair is recovered from

    s = -(lam1 + lam2),  disc = 2 (S - lam1^2 - lam2^2) - s^2,
    lam3 = (s - sqrt(disc)) / 2,  lam4 = (s + sqrt(disc)) / 2,

so every point of a cell with real branch satisfies both constraints
exactly and the interval enclosures are containment-correct.  The frontier
of cells is processed as numpy batches (see vinterval); cells split on
their widest coordinate, and a claim is proved when every feasible leaf
clears its margin.  Certified suprema are reported as explicit constants.

The four gamma*L_i products are evaluated in factored gap form (tight for
intervals); the factored forms are proved equal to the engine-extracted
polynomials by the symbolic test suite, so certifying one certifies the
other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import identities
from .algebraic import QuadExt, _sqrt_bounds
from .exactalg import MultiPoly, RatFn
from .vinterval import VI

__all__ = [
    "Certificate", "Chamber", "CellBatch", "certify_Li_negative", "certify_okumura",
    "certify_band_bounds", "band_quantity_names",
    "sample_Li_cross_check", "okumura_equality_case_exact",
]


@dataclass
class Certificate:
    """Outcome of one branch-and-bound proof attempt."""

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

    @classmethod
    def root(cls, a1, b1, a2, b2) -> "CellBatch":
        return cls([a1], [b1], [a2], [b2])

    def __len__(self) -> int:
        return len(self.a1)

    def l1(self) -> VI:
        return VI(self.a1, self.b1)

    def l2(self) -> VI:
        return VI(self.a2, self.b2)

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

    def widths(self) -> np.ndarray:
        return np.maximum(self.b1 - self.a1, self.b2 - self.a2)

    def rows(self) -> list[list[float]]:
        return [
            [float(self.a1[i]), float(self.b1[i]), float(self.a2[i]), float(self.b2[i])]
            for i in range(len(self))
        ]


def _s_bounds(S) -> tuple[float, float, float, float]:
    """Float enclosures of exact S and S/2 for chart construction."""
    S = Fraction(S)
    lo = float(S)
    lo, hi = (lo, lo) if Fraction(lo) == S else (np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf))
    half = S / 2
    hlo = float(half)
    hlo, hhi = (hlo, hlo) if Fraction(hlo) == half else (np.nextafter(hlo, -np.inf), np.nextafter(hlo, np.inf))
    return lo, hi, hlo, hhi


class Chamber:
    """Derived interval quantities of a cell batch on the constraint chart."""

    __slots__ = ("n", "l1", "l2", "l3", "l4", "s", "s_half", "disc",
                 "g21", "g32", "g43", "g31", "g42", "g41")

    def __init__(self, cells: CellBatch, S):
        n = len(cells)
        self.n = n
        s_lo, s_hi, h_lo, h_hi = S if isinstance(S, tuple) else _s_bounds(S)
        l1, l2 = cells.l1(), cells.l2()
        self.l1, self.l2 = l1, l2
        s = -(l1 + l2)
        self.s = s
        self.s_half = VI.scalar(h_lo, h_hi, n)
        q = VI.scalar(s_lo, s_hi, n) - l1.sq() - l2.sq()
        self.disc = q.scale(2.0) - s.sq()
        r = self.disc.sqrt_clamped()
        self.g43 = r
        self.l3 = (s - r).scale(0.5)
        self.l4 = (s + r).scale(0.5)
        self.g21 = l2 - l1
        self.g32 = self.l3 - l2
        self.g31 = self.g32 + self.g21
        self.g42 = self.g43 + self.g32
        self.g41 = self.g43 + self.g32 + self.g21

    def p3(self) -> VI:
        """Cube power sum via the chart identity p3 = 3(l1+l2)(l1^2+l2^2-S/2).

        The closed form follows from eliminating the derived pair with the
        two power-sum constraints; it is sqrt-free, so the enclosure stays
        tight across the disc = 0 branch boundary.
        """
        u = self.l1 + self.l2
        v = self.l1.sq() + self.l2.sq()
        return (u * (v - self.s_half)).scale(3.0)

    def real_branch_possible(self) -> np.ndarray:
        return self.disc.hi >= 0


def _gamma_L_factored(ch: Chamber, gap_floor: float = 0.0) -> list[VI]:
    """gamma*L_i as sums of negated gap monomials.

    Substituting the chain relations g31 = g32+g21, g42 = g43+g32,
    g41 = g43+g32+g21 into the printed products turns every gamma*L_i into
    minus a sum of monomials in the three primitive gaps, so the interval
    enclosure has no cancellation and certifies negativity as soon as a
    cell's feasible gap ranges are known.  The equivalence with the printed
    polynomials is verified exactly by the symbolic test suite.

    With a positive gap_floor the primitive gap enclosures are intersected
    with [floor, inf), sound when the certified claim quantifies only over
    points with gaps >= floor.
    """
    g21 = ch.g21.floor_at(gap_floor)
    g32 = ch.g32.floor_at(gap_floor)
    g43 = ch.g43.floor_at(gap_floor)
    g31 = g32 + g21
    g21sq = g21.sq()
    g32sq = g32.sq()
    g43sq = g43.sq()
    g31sq = g31.sq()
    s31_32 = g31 + g32
    mix = g31sq + g31 * g32 + g32sq
    gL1 = -(
        g43sq.sq() + (g43sq * g43 * g31).scale(2.0) + g43sq * g31sq
        + g32 * g43sq * g43 + (g32 * g43sq * g31).scale(2.0)
        + g43 * g32 * g21sq + g32sq * g21sq
    )
    gL2 = -(
        g43sq.sq() + (g43sq * g43 * g32).scale(2.0) + g43sq * g32sq
        + g31 * g43sq * g43 + (g31 * g43sq * g32).scale(2.0)
        + g43 * g31 * g21sq + g31sq * g21sq
    )
    gL3 = -(
        g21sq * mix + g43 * g21sq * s31_32
        + (g43 + g31) * (g43 + g32) * g43sq
    )
    gL4 = -(
        g43sq * g21sq + (g43 * g21sq * s31_32).scale(2.0)
        + g21sq * mix + g31 * g32 * g43sq
    )
    return [gL1, gL2, gL3, gL4]


def _upper_sqrt(x: Fraction) -> float:
    lo, hi = _sqrt_bounds(Fraction(x), Fraction(1, 10**9))
    return float(Fraction(hi)) * (1 + 1e-12)


def certify_Li_negative(S, tau, margin=1e-9, max_depth=20) -> Certificate:
    """Prove gamma*L_i <= -margin for i = 1..4 on the tau-collared chamber.

    Since gamma > 0 where all gaps are >= tau > 0, this proves L_i < 0
    there.  Cells that cannot contain a point with all gaps >= tau are
    discarded; surviving enclosures must clear the margin for all four
    products.
    """
    S = Fraction(S)
    tau = float(tau)
    margin = float(margin)
    if S <= 0 or tau <= 0:
        raise ValueError("requires S > 0 and a positive gap floor tau"
                         " (the products vanish on the chamber boundary)")
    bound = _upper_sqrt(S)
    sb = _s_bounds(S)
    tau2 = tau * tau
    cells = CellBatch.root(-bound, 0.0, -bound, bound)
    depth = 0
    processed = 0
    open_cells: list[list[float]] = []
    worst_hi = -np.inf
    while len(cells):
        processed += len(cells)
        ch = Chamber(cells, sb)
        feasible = (
            ch.real_branch_possible()
            & (ch.g21.hi >= tau)
            & (ch.g32.hi >= tau)
            & (ch.disc.hi >= tau2)
        )
        vals = _gamma_L_factored(ch, gap_floor=tau)
        all_hi = np.maximum.reduce([v.hi for v in vals])
        proved = feasible & (all_hi <= -margin)
        if proved.any():
            worst_hi = max(worst_hi, float(all_hi[proved].max()))
        undecided = feasible & ~proved
        if not undecided.any():
            break
        if depth >= max_depth:
            open_cells = cells.select(undecided).rows()
            break
        cells = cells.select(undecided).split()
        depth += 1
    status = "proved" if not open_cells else "inconclusive"
    return Certificate(
        claim="gamma_Li_negative",
        region={"S": str(S), "tau": tau, "constraints": "p1 = 0, p2 = S, gaps >= tau"},
        margin=margin,
        status=status,
        cells_processed=processed,
        max_depth_reached=depth,
        bound=(-worst_hi if np.isfinite(worst_hi) else None),
        open_cells=open_cells,
    )


def _pair_sign(a: int, b: int, D: int) -> int:
    """Exact sign of a + b*sqrt(D) for integers with D >= 0."""
    if b == 0 or D == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs, rhs = a * a, b * b * D
    if lhs == rhs:
        return 0
    if a > 0:
        return 1 if lhs > rhs else -1
    return -1 if lhs > rhs else 1


def sample_Li_cross_check(S, tau, count=100_000, seed=20260808) -> dict:
    """Exact-arithmetic spot check: gamma*L_i < 0 at random feasible points.

    Points are sampled as dyadic rationals in the chart and every quantity
    is scaled to integers over a common denominator, so each of the four
    product signs is decided by exact integer arithmetic in the extension
    by sqrt(disc); no floating point enters at all.
    """
    S = Fraction(S)
    tau = Fraction(tau).limit_denominator(10**6)
    rng = random.Random(seed)
    bound = _sqrt_bounds(S, Fraction(1, 1000))[1]
    den = 2**12
    # Common scale q: lam = integer / q with S q^2 an integer.
    q = den * bound.denominator * S.denominator
    bn = bound.numerator * S.denominator
    Sq2 = S.numerator * S.denominator * (den * bound.denominator) ** 2
    tn, td = tau.numerator, tau.denominator
    two_q = 2 * q
    accepted = 0
    attempts = 0
    violations = []
    while accepted < count:
        attempts += 1
        if attempts > 400 * count:
            raise RuntimeError("sampler acceptance rate too low")
        P1 = -rng.randrange(0, den + 1) * bn
        P2 = rng.randrange(-den, den + 1) * bn
        # g21 >= tau  <=>  (P2 - P1) td >= tn q.
        if (P2 - P1) * td < tn * q:
            continue
        s_num = -(P1 + P2)
        D = 2 * (Sq2 - P1 * P1 - P2 * P2) - s_num * s_num   # disc * q^2
        # g43 = sqrt(D)/q >= tau  <=>  D td^2 >= tn^2 q^2.
        if D <= 0 or D * td * td < tn * tn * q * q:
            continue
        # All gaps scaled by 2q: value = a + b sqrt(D).
        g21a = 2 * (P2 - P1)
        g32a, g32b = s_num - 2 * P2, -1
        # g32 >= tau  <=>  (g32a td - 2 q tn) + g32b td sqrt(D) >= 0.
        if _pair_sign(g32a * td - two_q * tn, g32b * td, D) < 0:
            continue
        g31a, g31b = g32a + g21a, g32b
        g42a, g42b = g32a, g32b + 2
        g41a, g41b = g31a, g31b + 2
        accepted += 1

        def mul(xa, xb, ya, yb):
            return xa * ya + xb * yb * D, xa * yb + xb * ya

        def sub(xa, xb, ya, yb):
            return xa - ya, xb - yb

        g21 = (g21a, 0)
        g32 = (g32a, g32b)
        g43 = (0, 2)
        g31 = (g31a, g31b)
        g42 = (g42a, g42b)
        g41 = (g41a, g41b)
        g21sq = mul(*g21, *g21)
        g31sq = mul(*g31, *g31)
        g32sq = mul(*g32, *g32)
        g42sq = mul(*g42, *g42)
        g41sq = mul(*g41, *g41)
        g43sq = mul(*g43, *g43)
        vals = (
            sub(*mul(*g43, *sub(*mul(*g31sq, *g32), *mul(*g42, *g41sq))),
                *mul(*mul(*g42, *g32), *g21sq)),
            sub(*mul(*g43, *sub(*mul(*g32sq, *g31), *mul(*g41, *g42sq))),
                *mul(*mul(*g41, *g31), *g21sq)),
            sub(*mul(*g21, *sub(*mul(*g32sq, *g42), *mul(*g41, *g31sq))),
                *mul(*mul(*g41, *g42), *g43sq)),
            sub(*mul(*g21, *sub(*mul(*g42sq, *g32), *mul(*g31, *g41sq))),
                *mul(*mul(*g31, *g32), *g43sq)),
        )
        for i, (va, vb) in enumerate(vals, start=1):
            if _pair_sign(va, vb, D) >= 0:
                violations.append({"i": i, "P1": P1, "P2": P2, "q": q})
    return {"samples": accepted, "violations": violations, "seed": seed}


# -- the cubic-sum inequality on the unit sphere ------------------------------

def _equality_points() -> list[tuple[str, list[float], list[float], bool]]:
    """Float enclosures of the two sorted equality configurations k/sqrt(12)."""
    lo12, hi12 = _sqrt_bounds(Fraction(12), Fraction(1, 10**12))
    out = []
    for name, coords in (
        ("E_low_triple", (-1, -1, -1, 3)),
        ("E_high_triple", (-3, 1, 1, 1)),
    ):
        los, his = [], []
        for c in coords:
            c = Fraction(c)
            lo_rat, hi_rat = (c / hi12, c / lo12) if c > 0 else (c / lo12, c / hi12)
            los.append(float(np.nextafter(float(lo_rat), -np.inf)))
            his.append(float(np.nextafter(float(hi_rat), np.inf)))
        pair_equal = coords[2] == coords[3]
        out.append((name, los, his, pair_equal))
    return out


def certify_okumura(n=4, tol=1e-6, max_depth=50, near_radius=1e-3) -> Certificate:
    """Prove the cubic-sum bound on zero-sum unit 4-vectors, off equality.

    Claim:  slack = 1/3 - p3^2 >= tol  on the sorted chamber of
    {sum a = 0, sum a^2 = 1}, except on cells within `near_radius` of the
    two equality configurations, where the bound is attained exactly (the
    attained values are checked by exact rational arithmetic separately).
    """
    if n != 4:
        raise ValueError("only the 4-dimensional inequality is certified here")
    tol = float(tol)
    eq_points = _equality_points()
    sb = _s_bounds(1)
    cells = CellBatch.root(-1.0, 0.0, -1.0, 1.0)
    depth = 0
    processed = 0
    near_cells = 0
    max_near_dist = 0.0
    open_cells: list[list[float]] = []
    while len(cells):
        processed += len(cells)
        ch = Chamber(cells, sb)
        s_minus = ch.s - ch.l2.scale(2.0)
        feasible = (
            ch.real_branch_possible()
            & (ch.l2.hi >= ch.l1.lo)
            & (s_minus.hi >= 0)
            & ((s_minus.sq() - ch.disc).hi >= 0)
        )
        slack_lo = _okumura_slack_lo(cells)
        clear = feasible & (slack_lo >= tol)
        undecided = feasible & ~clear
        if undecided.any():
            sub = cells.select(undecided)
            sub_ch = Chamber(sub, sb)
            dist = _distance_to_equality(sub_ch, eq_points)
            small = sub.widths() <= near_radius / 4
            near = (dist <= near_radius) & small
            if near.any():
                near_cells += int(near.sum())
                max_near_dist = max(max_near_dist, float(dist[near].max()))
            rest = sub.select(~near)
            if len(rest):
                if depth >= max_depth:
                    open_cells = rest.rows()
                    break
                cells = rest.split()
                depth += 1
                continue
        break
    status = "proved" if not open_cells else "inconclusive"
    return Certificate(
        claim="okumura_cubic_bound",
        region={"constraints": "p1 = 0, p2 = 1, sorted chamber", "n": 4,
                "near_radius": near_radius},
        margin=tol,
        status=status,
        cells_processed=processed,
        max_depth_reached=depth,
        bound=max_near_dist if near_cells else 0.0,
        notes=[f"near_equality_cells={near_cells}",
               f"max_near_equality_distance={max_near_dist!r}"],
        open_cells=open_cells,
    )


def _okumura_slack_lo(cells: CellBatch) -> np.ndarray:
    """Rigorous lower bound of slack = 1/3 - 9 q^2, q = (l1+l2)(l1^2+l2^2-1/2).

    q is enclosed by the intersection of the plain interval image and a
    first-order centered form; the centered form is second-order tight at
    the interior equality point (where the slack gradient vanishes), which
    is what lets cells near it resolve instead of splitting forever.
    """
    from .vinterval import up as _vup

    l1, l2 = cells.l1(), cells.l2()
    n = len(cells)
    half = VI.point(0.5, n)
    u = l1 + l2
    w = l1.sq() + l2.sq() - half
    q_plain = u * w
    m1 = (cells.a1 + cells.b1) / 2
    m2 = (cells.a2 + cells.b2) / 2
    M1, M2 = VI(m1, m1), VI(m2, m2)
    qm = (M1 + M2) * (M1.sq() + M2.sq() - half)
    dq1 = w + u * l1.scale(2.0)
    dq2 = w + u * l2.scale(2.0)
    r1 = _vup(np.maximum(m1 - cells.a1, cells.b1 - m1))
    r2 = _vup(np.maximum(m2 - cells.a2, cells.b2 - m2))
    q_c = qm + dq1 * VI(-r1, r1) + dq2 * VI(-r2, r2)
    q = VI(np.maximum(q_plain.lo, q_c.lo), np.minimum(q_plain.hi, q_c.hi))
    nine_q_sq = q.sq().scale(9.0)
    third_lo = np.nextafter(1 / 3, 0)
    return np.nextafter(third_lo - nine_q_sq.hi, -np.inf)


def _distance_to_equality(ch: Chamber, eq_points) -> np.ndarray:
    """Per-cell upper bound of the distance to the nearest equality point."""
    n = ch.n
    best = np.full(n, np.inf)
    for _name, los, his, pair_equal in eq_points:
        e = [VI.scalar(los[k], his[k], n) for k in range(4)]
        d2 = (ch.l1 - e[0]).sq() + (ch.l2 - e[1]).sq()
        if pair_equal:
            # (a3-c)^2 + (a4-c)^2 = (a3^2+a4^2) - 2 c (a3+a4) + 2 c^2 is a
            # chart polynomial; immune to the sqrt blow-up at disc = 0.
            qprime = (ch.disc + ch.s.sq()).scale(0.5)
            d2 = d2 + qprime - (e[2] * ch.s).scale(2.0) + e[2].sq().scale(2.0)
        else:
            d2 = d2 + (ch.l3 - e[2]).sq() + (ch.l4 - e[3]).sq()
        best = np.minimum(best, d2.sqrt_clamped().hi)
    return best


def okumura_equality_case_exact() -> dict:
    """Exact check that the normalized (3,-1,-1,-1) pattern attains the bound."""
    a = [QuadExt.make(0, Fraction(3, 12), 12), QuadExt.make(0, Fraction(-1, 12), 12),
         QuadExt.make(0, Fraction(-1, 12), 12), QuadExt.make(0, Fraction(-1, 12), 12)]
    p1 = sum(a[1:], a[0])
    p2 = sum((v * v for v in a[1:]), a[0] * a[0])
    p3 = sum((v * v * v for v in a[1:]), a[0] * a[0] * a[0])
    return {
        "p1_zero": p1.sign() == 0,
        "p2_one": (p2 - QuadExt.rational(1)).sign() == 0,
        "p3_squared_equals_third": (p3 * p3 - QuadExt.rational(Fraction(1, 3))).sign() == 0,
    }


# -- band bounds ---------------------------------------------------------------

_BAND_QUANTITIES = {
    "m0": ("g", "m"), "m1": ("f", "m"),
    "B1g": ("g", "B1"), "B2g": ("g", "B2"),
    "G1g": ("g", "G1"), "G2g": ("g", "G2"), "G3g": ("g", "G3"), "G4g": ("g", "G4"),
    "B2f": ("f", "B2"), "B3f": ("f", "B3"),
    "G1f": ("f", "G1"), "G2f": ("f", "G2"), "G3f": ("f", "G3"), "G4f": ("f", "G4"),
}


def band_quantity_names() -> tuple[str, ...]:
    return tuple(_BAND_QUANTITIES)


_B_FACTORS = {
    ("g", "B1"): ("-1", "m0 >= 0", "lam4-lam3 >= 0", "lam4-lam1 >= 0",
                  "1/((lam3-lam2)(lam2-lam1)^2) > 0"),
    ("g", "B2"): ("-1", "m0 >= 0", "lam4-lam3 >= 0", "lam4-lam2 >= 0",
                  "1/((lam3-lam1)(lam2-lam1)^2) > 0"),
    ("f", "B2"): ("m1 <= 0", "lam4-lam2 >= 0", "lam4-lam1 >= 0",
                  "1/((lam3-lam1)(lam3-lam2)^2) > 0"),
    ("f", "B3"): ("m1 <= 0", "lam4-lam3 >= 0", "lam4-lam1 >= 0",
                  "1/((lam2-lam1)(lam3-lam2)^2) > 0"),
}


def certify_band_bounds(quantity: str, S, A3, eps0, delta1, max_depth=30) -> Certificate:
    """Certify sign or boundedness of one gap-band quantity.

    Band (side g):  {0 < (lam2-lam1)^2 < delta1,  (lam3-lam2)^2 >= eps0},
    band (side f):  {0 < (lam3-lam2)^2 < delta1,  (lam2-lam1)^2 >= eps0},
    both intersected with  p1 = 0, p2 = S, p3 = A3  and the sorted chamber.
    The cube-sum cut is what keeps the top gaps away from zero on the f
    side, so the bounded quantities really are bounded there.

    Slope quantities (m0, m1) get a certified enclosure within [0, C] or
    [-C, 0]; B-quantities are nonpositive by factor signs (no subdivision
    needed); the bounded remainders G get a certified constant C with
    |G| <= C.
    """
    if quantity not in _BAND_QUANTITIES:
        raise ValueError(f"unknown band quantity {quantity!r}")
    side, key = _BAND_QUANTITIES[quantity]
    S = Fraction(S)
    if isinstance(A3, str):
        from .configsolve import parse_value

        A3 = parse_value(A3)
    elif not isinstance(A3, QuadExt):
        A3 = QuadExt.rational(A3)
    eps0 = Fraction(eps0)
    delta1 = Fraction(delta1)
    if not (0 < delta1 < eps0):
        raise ValueError("requires 0 < delta1 < eps0")
    region = _band_region(side, S, A3, eps0, delta1)
    if S <= 0:
        return Certificate(
            claim=f"band_{quantity}", region=region, margin=0.0,
            status="trivial", notes=["empty band: the constraint sphere is a point"],
        )
    if key.startswith("B"):
        return _b_sign_certificate(quantity, side, key, region)
    a3_lo, a3_hi = (float(x) for x in A3.interval(Fraction(1, 10**15)))
    a3_lo, a3_hi = np.nextafter(a3_lo, -np.inf), np.nextafter(a3_hi, np.inf)
    sqrt_eps0_lo = float(_sqrt_bounds(eps0, Fraction(1, 10**12))[0])
    sqrt_delta1_hi = float(_sqrt_bounds(delta1, Fraction(1, 10**12))[1]) * (1 + 1e-12)
    expr = None if key == "m" else identities.gap_band_quantities(side)[key]
    bound = _upper_sqrt(S)
    sb = _s_bounds(S)
    tighten_depth = min(14, max_depth)
    cells = CellBatch.root(-bound, 0.0, -bound, bound)
    depth = 0
    processed = 0
    feasible_seen = 0
    sup = 0.0
    open_cells: list[list[float]] = []
    while len(cells):
        processed += len(cells)
        ch = Chamber(cells, sb)
        small, big = (ch.g21, ch.g32) if side == "g" else (ch.g32, ch.g21)
        p3 = ch.p3()
        feasible = (
            ch.real_branch_possible()
            & (small.hi >= 0)
            & (small.lo <= sqrt_delta1_hi)
            & (big.hi >= sqrt_eps0_lo)
            & (p3.hi >= a3_lo)
            & (p3.lo <= a3_hi)
        )
        feasible_seen += int(feasible.sum())
        if not feasible.any():
            break
        sub = cells.select(feasible)
        sub_ch = Chamber(sub, sb)
        val, ok = _band_value(key, side, sub_ch, expr, sqrt_eps0_lo)
        if depth >= max_depth:
            if ok.any():
                sup = max(sup, float(val.mag()[ok].max()))
            rest = sub.select(~ok)
            if len(rest):
                open_cells = rest.rows()
            break
        # Decided cells keep splitting until tighten_depth: the supremum
        # constant tightens while soundness is unaffected.
        done = ok & (depth >= tighten_depth)
        if done.any():
            sup = max(sup, float(val.mag()[done].max()))
        rest = sub.select(~done)
        if not len(rest):
            break
        cells = rest.split()
        depth += 1
    if feasible_seen == 0 and not open_cells:
        return Certificate(
            claim=f"band_{quantity}", region=region, margin=0.0,
            status="trivial", cells_processed=processed, max_depth_reached=depth,
            notes=["empty band region"],
        )
    status = "proved" if not open_cells else "inconclusive"
    claim_note = (
        f"{quantity} within [0, C], C certified" if quantity == "m0"
        else f"{quantity} within [-C, 0], C certified" if quantity == "m1"
        else f"|{quantity}| <= C with C certified"
    )
    return Certificate(
        claim=f"band_{quantity}",
        region=region,
        margin=0.0,
        status=status,
        cells_processed=processed,
        max_depth_reached=depth,
        bound=sup,
        notes=[claim_note],
        open_cells=open_cells,
    )


def _band_region(side, S, A3, eps0, delta1) -> dict:
    small = "(lam2-lam1)^2" if side == "g" else "(lam3-lam2)^2"
    big = "(lam3-lam2)^2" if side == "g" else "(lam2-lam1)^2"
    return {
        "S": str(S), "A3": str(A3), "eps0": str(eps0), "delta1": str(delta1),
        "band": f"0 < {small} < delta1, {big} >= eps0, p3 = A3, sorted",
    }


def _b_sign_certificate(quantity: str, side: str, key: str, region: dict) -> Certificate:
    """Nonpositivity of a singular band coefficient by factor signs.

    On the sorted chamber every gap is nonnegative and the slope has a
    fixed sign (m0 = 2(lam4-lam3)(...) >= 0, m1 = -2(lam4-lam1)(...) <= 0
    with positive bracket entries), so the displayed product is <= 0 on the
    whole band and strictly negative on its interior where all gaps are
    positive.  The factorization itself is verified against the engine by
    the symbolic identity suite, so no subdivision is needed here.
    """
    factors = _B_FACTORS[(side, key)]
    return Certificate(
        claim=f"band_{quantity}",
        region=region,
        margin=0.0,
        status="proved",
        notes=[f"{quantity} <= 0 by factor signs on the sorted band",
               "factors: " + "; ".join(factors),
               "strictly negative on the open band (all gaps positive)"],
    )


def _band_value(key, side, ch: Chamber, expr: RatFn | None, floor: float) -> tuple[VI, np.ndarray]:
    """Enclosure of one band quantity over the feasible subsets of the cells.

    Gap enclosures are intersected with the region-implied floors (sorted
    chamber: gaps >= 0; the wide gap >= sqrt(eps0)), which is sound because
    the certified claim quantifies over feasible points only.  Returns the
    values and a mask of cells whose enclosure is finite (denominators
    bounded away from zero); unresolved cells must be subdivided.
    """
    if key == "m":
        if side == "g":
            g32 = ch.g32.floor_at(floor)
            g31 = ch.g31.floor_at(floor)
            g41 = ch.g41.floor_at(0.0)
            g42 = ch.g42.floor_at(0.0)
            val = (g41.divide_by_positive(g32) + g42.divide_by_positive(g31)) * ch.g43.floor_at(0.0)
            val = val.scale(2.0)
        else:
            g21 = ch.g21.floor_at(floor)
            g31 = ch.g31.floor_at(floor)
            g42 = ch.g42.floor_at(0.0)
            g41 = ch.g41.floor_at(0.0)
            val = (g42.divide_by_positive(g31) + ch.g43.floor_at(0.0).divide_by_positive(g21)) * g41
            val = val.scale(-2.0)
        ok = np.isfinite(val.lo) & np.isfinite(val.hi)
        return val, ok
    val, ok = _vector_ratfn(expr, ch)
    return val, ok


def _vector_ratfn(expr: RatFn, ch: Chamber) -> tuple[VI, np.ndarray]:
    """Vectorized enclosure of a rational function of l1..l4 over cells."""
    box = {"l1": ch.l1, "l2": ch.l2, "l3": ch.l3, "l4": ch.l4}
    num = _vector_poly(expr.num, box, ch.n)
    den = _vector_poly(expr.den, box, ch.n)
    ok = (den.lo > 0) | (den.hi < 0)
    safe_den = VI(np.where(ok, den.lo, 1.0), np.where(ok, den.hi, 2.0))
    pos = safe_den.lo > 0
    den_pos = VI(np.where(pos, safe_den.lo, -safe_den.hi), np.where(pos, safe_den.hi, -safe_den.lo))
    num_adj = VI(np.where(pos, num.lo, -num.hi), np.where(pos, num.hi, -num.lo))
    val = num_adj.divide_by_positive(den_pos)
    return val, ok


def _vector_poly(poly: MultiPoly, box: dict[str, VI], n: int) -> VI:
    total = VI.point(0.0, n)
    names = poly.table.names
    powers: dict[tuple[int, int], VI] = {}
    for mono, coeff in poly.sorted_terms():
        term = None
        for i, e in enumerate(poly.exponents(mono)):
            if not e:
                continue
            key = (i, e)
            p = powers.get(key)
            if p is None:
                base = box[names[i]]
                p = base
                for _ in range(e - 1):
                    p = p * base
                powers[key] = p
            term = p if term is None else term * p
        c = float(coeff)
        c_lo, c_hi = np.nextafter(c, -np.inf), np.nextafter(c, np.inf)
        if term is None:
            total = total + VI.scalar(c_lo, c_hi, n)
        else:
            total = total + term * VI.scalar(c_lo, c_hi, n)
    return total
