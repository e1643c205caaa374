"""Enumeration of constrained principal-curvature configurations.

A configuration is a real 4-tuple with prescribed power sums p1 = 0,
p2 = S, p3 = A3, plus one coincidence pattern:

  tag I    adjacent gaps equal in the written labels (arithmetic triple),
  tag II   middle pair equal,
  tag III  bottom pair equal.

Each system collapses to one rational cubic in a single variable:

  I        lam2 is a root of  -60 x^3 + 3 S x = A3,  the remaining values
           are lam2 -+ d with d^2 = (S - 12 lam2^2)/2 and lam4 = -3 lam2;
  II, III  the doubled value x is a root of  12 x^3 - 3 S x = A3, and the
           simple pair is  -x +- sqrt(S/2 - 2 x^2).

For irrational A3 of the form b*sqrt(d) the cubic c = base - A3 is paired
with its radical conjugate cbar = base + A3, and the product c*cbar = base^2
- A3^2 (a rational sextic) is isolated instead.  At each of its roots base
is +A3 or -A3, never 0, so a root belongs to c exactly when the exact sign
of base there is the sign of A3.  Everything downstream is exact: root
intervals refine on demand, member coincidences and the sorted order are
decided by exact sign tests in the field of the cubic root, and the
power-sum enclosures a report prints are containment-correct rational
intervals, checked against the inputs.  Every enclosure is a
`upoly.RatInterval`, in integers end to end (see `upoly`): the member
enclosures read the box of the cubic root directly, and sqrt(D) is
enclosed by `algebraic.sqrt_enclosure`.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import upoly as up
from .algebraic import (AlgebraicNumber, QuadExt, cubic_bound_sign, power_sums, root_sum_sign,
                        run_lengths, sqrt_enclosure)
from .upoly import RatInterval


# -- interval evaluation -------------------------------------------------------

def eval_on_interval(poly: up.UPoly, box: RatInterval) -> RatInterval:
    """Exact interval Horner evaluation, in integers over one positive denominator.

    With box = [L, H] / V and poly = num / den, the running interval after
    k steps is an integer pair over den V^k: each product keeps its order
    and each coefficient enters as num_i V^k, so min and max pick the same
    endpoints as Horner in Fraction intervals would.
    """
    num = poly.num
    if not num:
        return RatInterval(0, 0)
    L, H, V = box.a, box.b, box.d
    lo = hi = num[-1]
    w = 1
    for c in num[-2::-1]:
        w *= V
        ends = (lo * L, lo * H, hi * L, hi * H)
        lo, hi = min(ends) + c * w, max(ends) + c * w
    return RatInterval(lo, hi, poly.den * w)


# -- parameters ----------------------------------------------------------------

_SQRT_RE = re.compile(
    r"^\s*(?P<sign>[+-])?\s*(?:(?P<coef>\d+(?:/\d+)?)\s*\*\s*)?"
    r"sqrt\(\s*(?P<rad>\d+(?:/\d+)?)\s*\)\s*(?:/\s*(?P<den>\d+))?\s*$"
)


def parse_value(text: str) -> QuadExt:
    """Parse '3/2', '-1', 'sqrt(2)', '8*sqrt(3)/3' into an exact value."""
    text = text.strip()
    m = _SQRT_RE.match(text)
    if m:
        coef = Fraction(m.group("coef") or 1)
        if m.group("den"):
            coef /= Fraction(m.group("den"))
        if m.group("sign") == "-":
            coef = -coef
        return QuadExt.make(0, coef, Fraction(m.group("rad")))
    try:
        return QuadExt.rational(Fraction(text))
    except ValueError:
        raise ValueError(f"cannot parse exact value {text!r}") from None


@dataclass(frozen=True)
class ScalarParams:
    """Problem constants: S = sum of squares, A3 = sum of cubes (n = 4)."""

    S: Fraction
    A3: QuadExt

    @classmethod
    def make(cls, S, A3) -> "ScalarParams":
        if isinstance(A3, str):
            A3 = parse_value(A3)
        elif not isinstance(A3, QuadExt):
            A3 = QuadExt.rational(A3)
        if isinstance(S, str):
            S_val = parse_value(S)
            if not S_val.is_rational():
                raise ValueError("S must be rational")
            S = S_val.rational_value()
        return cls(Fraction(S), A3)

    def admissibility_warnings(self) -> list[str]:
        """Regime checks for the rigidity range; violations warn, not fail."""
        out = []
        if not (4 < self.S <= 12):
            out.append(f"S={self.S} outside the admissible range 4 < S <= 12")
        if self.A3.sign() < 0:
            out.append(f"A3={self.A3} negative; the standing convention flips signs")
        # A3 < S^{3/2}/sqrt(3)  <=>  3*A3^2 < S^3 for A3 >= 0.
        if cubic_bound_sign(self.S, self.A3) <= 0 and self.A3.sign() >= 0:
            out.append("A3 is at or beyond the strict cubic-bound S^(3/2)/sqrt(3)")
        return out


# -- cubic reduction -----------------------------------------------------------

def _cubic_coeffs(tag: str, S: Fraction) -> up.UPoly:
    """Rational part of the eliminating cubic (the -A3 term handled apart)."""
    if tag == "I":
        return up.upoly([0, 3 * S, 0, -60])
    if tag in ("II", "III"):
        return up.upoly([0, -3 * S, 0, 12])
    raise ValueError(f"unknown system tag {tag!r}")


def _cubic_roots(tag: str, params: ScalarParams) -> tuple[up.UPoly, list[AlgebraicNumber]]:
    """The defining polynomial (the cubic, or the sextic for radical A3) and
    the exact real roots of the eliminating cubic, in ascending order."""
    base = _cubic_coeffs(tag, params.S)
    a3 = params.A3
    if a3.is_rational():
        defining = up.sub(base, up.upoly([a3.rational_value()]))
    elif a3.a != 0:
        raise ValueError("A3 must be rational or a pure square-root multiple")
    else:
        defining = up.sub(up.mul(base, base), up.upoly([(a3 * a3).rational_value()]))
    roots = [
        AlgebraicNumber(chain[0], box, chain)
        for box, _m, chain in up.isolate_with_multiplicity(defining, Fraction(1, 2**20))
    ]
    if not a3.is_rational():
        # base = +-A3 != 0 at a root of the sextic; keep the roots of base - A3.
        roots = [r for r in roots if r.sign_of(base) == a3.sign()]
    return defining, roots


# -- member descriptions ---------------------------------------------------------

@dataclass(frozen=True)
class _Member:
    """Value  p(x0) + q(x0) * sqrt(D(x0))  in the field of the cubic root x0."""

    p: up.UPoly
    q: up.UPoly

    def enclosure(self, box: RatInterval, root: RatInterval) -> RatInterval:
        """Enclosure over box, where root encloses sqrt(D) over it."""
        val = eval_on_interval(self.p, box)
        if not up.is_zero(self.q):
            val = val + eval_on_interval(self.q, box) * root
        return val


_ZERO_MEMBER = _Member(up.ZERO, up.ZERO)


def _sign_member_diff(m1: _Member, m2: _Member, x0: AlgebraicNumber, D: up.UPoly) -> int:
    """Exact sign of (m1 - m2) at x0, where both involve the same sqrt(D)."""
    p = up.sub(m1.p, m2.p)
    q = up.sub(m1.q, m2.q)
    return root_sum_sign(x0.sign_of(p), x0.sign_of(q), lambda: x0.sign_of(D),
                         lambda: x0.sign_of(up.sub(up.mul(p, p), up.mul(up.mul(q, q), D))))


@dataclass
class CurvatureConfig:
    """One solution tuple, exactly represented and refinable on demand."""

    tag: str
    x0: AlgebraicNumber
    D: up.UPoly
    members: list[_Member]          # sorted ascending
    multiplicities: list[int]       # per distinct value, ascending order
    constraint_satisfied: bool
    defining_poly: up.UPoly
    params: ScalarParams
    warnings: list[str] = field(default_factory=list)
    lambdas: list[RatInterval] = field(default_factory=list)   # at solve_system's precision

    def lambda_intervals(self, precision) -> list[RatInterval]:
        """Sorted member enclosures of width <= precision."""
        eps = Fraction(precision)
        x0 = self.x0
        while True:
            root = sqrt_enclosure(eval_on_interval(self.D, x0.box), eps / 8)
            out = [m.enclosure(x0.box, root) for m in self.members]
            if all(o.width_at_most(eps) for o in out):
                self.x0 = x0
                return out
            x0 = x0.refine(x0.box.width / 16)

    def power_sum_intervals(self, precision) -> dict[str, RatInterval]:
        """Containment enclosures of p1..p4 with width <= precision."""
        eps = Fraction(precision)
        attempt = eps / 16
        while True:
            out = _power_sums(self.lambda_intervals(attempt))
            if all(v.width_at_most(eps) for v in out.values()):
                return out
            attempt /= 16

    def verify_constraints(self, power_sums: dict[str, RatInterval]) -> dict[str, bool]:
        """Do the given enclosures of p1, p2, p3 contain 0, S and A3?"""
        return {
            "p1_contains_zero": power_sums["p1"].contains(0),
            "p2_contains_S": power_sums["p2"].contains(self.params.S),
            "p3_contains_A3": power_sums["p3"].contains(self.params.A3),
        }


def _power_sums(lams: list[RatInterval]) -> dict[str, RatInterval]:
    """Enclosures of p1..p4: the sums of the k-th powers of the member enclosures.

    In integers over V^k, V the lcm of the members' denominators; a power of
    an interval is [lo^k, hi^k], [hi^k, lo^k] below 0, or [0, max] for an
    even k across 0, so each sum is the rational interval arithmetic gives.
    """
    V = lcm(*(lam.d for lam in lams))
    ends = [(lam.a * (V // lam.d), lam.b * (V // lam.d)) for lam in lams]
    out = {}
    for k in range(1, 5):
        lo = hi = 0
        for a, b in ends:
            if k % 2 or a >= 0:
                lo, hi = lo + a**k, hi + b**k
            elif b <= 0:
                lo, hi = lo + b**k, hi + a**k
            else:
                hi += max(a**k, b**k)
        out[f"p{k}"] = RatInterval(lo, hi, V**k)
    return out


def _build_config(tag: str, x0: AlgebraicNumber, params: ScalarParams,
                  defining: up.UPoly, warnings: list[str]) -> CurvatureConfig | None:
    S = params.S
    if tag == "I":
        D = up.upoly([S / 2, 0, -6])            # (S - 12 x^2) / 2
        raw = [
            _Member(up.upoly([0, 1]), up.upoly([-1])),   # x0 - d
            _Member(up.upoly([0, 1]), up.ZERO),          # x0
            _Member(up.upoly([0, 1]), up.upoly([1])),    # x0 + d
            _Member(up.upoly([0, -3]), up.ZERO),         # -3 x0
        ]
    else:
        D = up.upoly([S / 2, 0, -2])            # S/2 - 2 x^2
        raw = [
            _Member(up.upoly([0, 1]), up.ZERO),
            _Member(up.upoly([0, 1]), up.ZERO),
            _Member(up.upoly([0, -1]), up.upoly([1])),   # -x0 + sqrt(D)
            _Member(up.upoly([0, -1]), up.upoly([-1])),  # -x0 - sqrt(D)
        ]
    if x0.sign_of(D) < 0:
        return None
    order = sorted(range(4), key=functools.cmp_to_key(
        lambda i, j: _sign_member_diff(raw[i], raw[j], x0, D)))
    members = [raw[i] for i in order]
    # Exact adjacent equalities, once: they give the multiplicities and the
    # II/III patterns; tag I asks for m2 + m0 - 2 m1 = 0.
    equal = [_sign_member_diff(members[i + 1], members[i], x0, D) == 0 for i in range(3)]
    if tag == "I":
        arithmetic = _Member(up.sub(up.add(members[2].p, members[0].p), up.scale(members[1].p, 2)),
                             up.sub(up.add(members[2].q, members[0].q), up.scale(members[1].q, 2)))
        satisfied = _sign_member_diff(arithmetic, _ZERO_MEMBER, x0, D) == 0
    else:
        satisfied = equal[1] if tag == "II" else equal[0]
    return CurvatureConfig(
        tag=tag,
        x0=x0,
        D=D,
        members=members,
        multiplicities=run_lengths(equal),
        constraint_satisfied=satisfied,
        defining_poly=defining,
        params=params,
        warnings=list(warnings),
    )


def _negation_symmetric(cfg: CurvatureConfig) -> bool:
    """Sorted members satisfy m_i = -m_{5-i} (multiset fixed by negation)."""
    for i, j in ((0, 3), (1, 2)):
        p = up.add(cfg.members[i].p, cfg.members[j].p)
        q = up.add(cfg.members[i].q, cfg.members[j].q)
        if _sign_member_diff(_Member(p, q), _ZERO_MEMBER, cfg.x0, cfg.D) != 0:
            return False
    return True


def solve_system(tag: str, params: ScalarParams, precision=Fraction(1, 10**12)) -> list[CurvatureConfig]:
    """Complete solution list of one coincidence system at the given precision.

    Duplicate multisets (which arise exactly when the eliminating cubic has
    the paired roots +-x0 and the configuration is negation symmetric) are
    removed; configurations violating the tag pattern in sorted order are
    flagged, not dropped.  Each configuration keeps its member enclosures at
    the precision as `lambdas`.
    """
    warnings = params.admissibility_warnings()
    defining, roots = _cubic_roots(tag, params)
    configs: list[CurvatureConfig] = []
    for x0 in roots:
        cfg = _build_config(tag, x0, params, defining, warnings)
        if cfg is not None and not any(
                x0.compare(_negated(prev.x0)) == 0 and _negation_symmetric(prev)
                for prev in configs):
            configs.append(cfg)
    for cfg in configs:
        cfg.lambdas = cfg.lambda_intervals(Fraction(precision))
    return configs


def _negated(alg: AlgebraicNumber) -> AlgebraicNumber:
    flipped = up.UPoly([c if i % 2 == 0 else -c for i, c in enumerate(alg.poly.num)], alg.poly.den)
    return AlgebraicNumber(flipped, -alg.box)


# -- branch identities -----------------------------------------------------------

def case_branch_identities(params: ScalarParams) -> dict:
    """Exact symbolic checks for the excluded top-pair branch and the
    equality-pattern cube identity.

    (a) with the top pair equal and the bottom pair  -x -+ d,  the cube sum
        is  -6 x d^2  identically, so  -6 x (S/2 - 2 x^2)  at d = sqrt(S/2 - 2x^2);
    (b) that product is negative whenever  x > 0  and  S/2 - 2 x^2 > 0,
        certified by the signs of its three factors on that region;
    (c) the pattern (3t, -t, -t, -t) satisfies  3 p3^2 = p2^3  identically.
    """
    from .exactalg import MultiPoly, SymbolTable

    tab = SymbolTable(["x", "d"])
    x = MultiPoly.var(tab, "x")
    d = MultiPoly.var(tab, "d")
    p3 = power_sums((-x - d, -x + d, x, x), 3)[2]
    sym_ok = (p3 - x * d**2 * (-6)).is_zero()

    sign_cert = {
        "expression": "-6 * x * (S/2 - 2*x^2)",
        "factors": [
            {"factor": "-6", "sign": "negative"},
            {"factor": "x", "sign": "positive on region"},
            {"factor": "S/2 - 2*x^2", "sign": "positive on region"},
        ],
        "conclusion": "product < 0 on {x > 0, S/2 - 2*x^2 > 0}",
    }
    # Numeric spot grid inside the region for the given S.
    spots = []
    if params.S > 0:
        top = sqrt_enclosure(RatInterval.of(params.S / 4), Fraction(1, 10**6)).lo
        for k in range(1, 8):
            xv = top * Fraction(k, 8)
            if xv <= 0:
                continue
            val = -6 * xv * (params.S / 2 - 2 * xv * xv)
            spots.append(val < 0)
    tab1 = SymbolTable(["t"])
    t = MultiPoly.var(tab1, "t")
    _, p2, p3p = power_sums((t * 3, -t, -t, -t), 3)
    cube_ok = (p3p**2 * 3 - p2**3).is_zero()
    return {
        "top_pair_cube_sum_identity": sym_ok,
        "negativity_certificate": sign_cert,
        "negativity_spot_checks_pass": all(spots) if spots else True,
        "equality_pattern_3p3sq_eq_p2cubed": bool(cube_ok),
        "status": "pass" if (sym_ok and cube_ok and (all(spots) if spots else True)) else "fail",
    }
