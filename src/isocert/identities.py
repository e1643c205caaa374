"""Target formulas and residual checks for the coframe identities.

Each check compares two independently produced objects:

  * the engine side, computed by `frameforms` from the structure equations
    alone, and
  * the target side, transcribed term by term from the closed-form
    coefficient formulas the engine is supposed to reproduce.

A check passes only when the difference is the identically-zero rational
function.  Residuals are exact; there are no tolerances in this module.

Checks run in two modes: "symbolic" keeps the sectional curvatures R_ijij
as opaque symbols, "expanded" replaces them by 1 + l_i l_j through the
Gauss equation (`frameforms.gauss_factor`, also called by the structure
equations).  Both must pass.  The contraction brackets are one table of
transcribed terms, CONTRACTION_TERMS; the band terms B_i are four of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from . import frameforms as ff
from .algebraic import power_sums
from .exactalg import FactoredFn, MultiPoly

_L = {i: ff.lam(i) for i in range(1, 5)}
_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

# Common denominator of the quadratic h_44i blocks.
_D6 = ((1, 2), (1, 2), (1, 3), (1, 3), (2, 3), (2, 3))

DTHETA_NAMES = tuple(f"dtheta_{i}{j}" for i, j in _PAIRS)
CONTRACTION_NAMES = tuple(f"w{i}_phi" for i in range(1, 5))
IDENTITY_NAMES = DTHETA_NAMES + ("dphi",) + CONTRACTION_NAMES + ("dg_phi", "df_phi")
# The checks that take no exterior derivative of a connection form, so no
# sectional curvature: their report is the same in every mode but for its
# mode field.
MODE_FREE_NAMES = CONTRACTION_NAMES + ("dg_phi", "df_phi")


def gamma_polynomial() -> MultiPoly:
    """(l2-l1)^2 (l3-l1)^2 (l3-l2)^2, the scale of the four L_i."""
    l1, l2, l3 = _L[1], _L[2], _L[3]
    return (l2 - l1) ** 2 * (l3 - l1) ** 2 * (l3 - l2) ** 2


def gamma_L_printed(g21, g31, g32, g41, g42, g43):
    """The four printed products gamma * L_i in the gaps g_ij = l_i - l_j.

    Generic over any ring of gap values: only +, - and * are used.
    """
    g21sq, g31sq, g32sq = g21 * g21, g31 * g31, g32 * g32
    g41sq, g42sq, g43sq = g41 * g41, g42 * g42, g43 * g43
    return (
        g43 * (g31sq * g32 - g42 * g41sq) - g42 * g32 * g21sq,
        g43 * (g32sq * g31 - g41 * g42sq) - g41 * g31 * g21sq,
        g21 * (g32sq * g42 - g41 * g31sq) - g41 * g42 * g43sq,
        g21 * (g42sq * g32 - g31 * g41sq) - g31 * g32 * g43sq,
    )


def gamma_L_gap_form(g21, g32, g43):
    """gamma * L_i as minus sums of monomials in the three primitive gaps.

    Substituting g31 = g32+g21, g42 = g43+g32, g41 = g43+g32+g21 into the
    printed products leaves no cancellation: expanded over polynomials,
    every coefficient is negative, which `certify.certify_Li_negative`
    checks.  Doubling is written x + x and squaring x * x, so the function
    stays generic.
    """
    g31 = g32 + g21
    g21sq, g32sq, g43sq, g31sq = g21 * g21, g32 * g32, g43 * g43, g31 * g31
    s31_32, mix = g31 + g32, g31sq + g31 * g32 + g32sq
    a1, a2, b1, b2 = g43sq * g43 * g31, g32 * g43sq * g31, g43sq * g43 * g32, g31 * g43sq * g32
    c4 = g43 * g21sq * s31_32
    return (
        -(g43sq * g43sq + (a1 + a1) + g43sq * g31sq + g32 * g43sq * g43 + (a2 + a2)
          + g43 * g32 * g21sq + g32sq * g21sq),
        -(g43sq * g43sq + (b1 + b1) + g43sq * g32sq + g31 * g43sq * g43 + (b2 + b2)
          + g43 * g31 * g21sq + g31sq * g21sq),
        -(g21sq * mix + g43 * g21sq * s31_32 + (g43 + g31) * (g43 + g32) * g43sq),
        -(g43sq * g21sq + (c4 + c4) + g21sq * mix + g31 * g32 * g43sq),
    )


def gap_power_sums(a, b, c):
    """p2 and p3 of the zero-sum lam1 <= lam2 <= lam3 <= lam4 with gaps
    a = lam2-lam1, b = lam3-lam2, c = lam4-lam3 (p1 = 0 fixes lam1).

    Generic over any ring of gap values that can be divided by 4; over
    polynomials, 4^6 (p2^3 - 3 p3^2) has only positive coefficients, which
    `certify.certify_okumura` checks.
    """
    l1 = -(3 * a + 2 * b + c) / 4
    return power_sums((l1, l1 + a, l1 + a + b, l1 + a + b + c), 3)[1:]


def gaps(g21, g32, g43):
    """The six gaps g_ij = l_i - l_j, i > j, from the three primitive ones:
    (g21, g31, g32, g41, g42, g43) with g31 = g32 + g21, g42 = g43 + g32 and
    g41 = g42 + g21.  Generic over any ring of gap values."""
    g42 = g43 + g32
    return g21, g32 + g21, g32, g42 + g21, g42, g43


def gap_slope_form(which: str, gap, over):
    """The slope m with d(gap^2) = m * h_44i w_i: m0 for g, m1 for f.

    gap(i, j) gives l_i - l_j in the caller's ring and over(x, (i, j))
    divides x by that gap.
    """
    if which == "g":
        t = (over(gap(4, 1), (3, 2)) + over(gap(4, 2), (3, 1))) * gap(4, 3)
        return t + t
    if which == "f":
        t = (over(gap(4, 2), (3, 1)) + over(gap(4, 3), (2, 1))) * gap(4, 1)
        return -(t + t)
    raise ValueError("which must be 'g' or 'f'")


def gamma_L_polynomials() -> dict[int, MultiPoly]:
    """The four printed products gamma * L_i, as exact polynomials."""
    six = (ff.gap(i, j) for i, j in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)))
    return dict(enumerate(gamma_L_printed(*six), start=1))


def dtheta_target(i: int, j: int, mode: str) -> FactoredFn:
    """Transcription of the printed volume coefficient of d(theta_ij)."""
    l1, l2, l3, l4 = (_L[k] for k in range(1, 5))
    h = ff.hsym
    og = ff.over_gaps
    if (i, j) == (1, 2):
        body = (
            og((l3 - l4) * ((l1 - l3) ** 2 * (l2 - l3) - (l1 - l4) ** 2 * (l2 - l4)) * h(4, 4, 1) ** 2, _D6)
            + og((l3 - l4) * ((l2 - l3) ** 2 * (l1 - l3) - (l2 - l4) ** 2 * (l1 - l4)) * h(4, 4, 2) ** 2, _D6)
            + og((l1 - l4) * (l2 - l4) * (l3 - l4) ** 2 * h(4, 4, 3) ** 2, _D6)
            + og((l1 - l3) * (l2 - l3) * (l3 - l4) ** 2 * h(4, 4, 4) ** 2, _D6)
            + og(2 * h(1, 2, 3) ** 2, [(1, 3), (2, 3)])
            + og(2 * h(1, 2, 4) ** 2, [(1, 4), (2, 4)])
        )
    elif (i, j) == (1, 3):
        body = (
            og(-(l2 - l4) * ((l1 - l2) ** 2 * (l2 - l3) + (l1 - l4) ** 2 * (l3 - l4)) * h(4, 4, 1) ** 2, _D6)
            + og((l2 - l4) * ((l1 - l2) * (l2 - l3) ** 2 - (l1 - l4) * (l3 - l4) ** 2) * h(4, 4, 3) ** 2, _D6)
            + og((l1 - l4) * (l2 - l4) ** 2 * (l3 - l4) * h(4, 4, 2) ** 2, _D6)
            + og(-(l1 - l2) * (l2 - l4) ** 2 * (l2 - l3) * h(4, 4, 4) ** 2, _D6)
            + og(-2 * h(1, 2, 3) ** 2, [(1, 2), (2, 3)])
            + og(2 * h(1, 3, 4) ** 2, [(1, 4), (3, 4)])
        )
    elif (i, j) == (1, 4):
        body = (
            og((l2 - l3) * ((l1 - l3) ** 2 * (l3 - l4) - (l1 - l2) ** 2 * (l2 - l4)) * h(4, 4, 1) ** 2, _D6)
            + og(-(l3 - l4) * h(4, 4, 2) ** 2, [(1, 2), (1, 2), (1, 3)])
            + og(-(l2 - l4) * h(4, 4, 3) ** 2, [(1, 2), (1, 3), (1, 3)])
            + og((l2 - l3) * ((l1 - l2) * (l2 - l4) ** 2 - (l1 - l3) * (l3 - l4) ** 2) * h(4, 4, 4) ** 2, _D6)
            + og(-2 * h(1, 2, 4) ** 2, [(1, 2), (2, 4)])
            + og(-2 * h(1, 3, 4) ** 2, [(1, 3), (3, 4)])
        )
    elif (i, j) == (2, 3):
        body = (
            og((l1 - l4) ** 2 * (l2 - l4) * (l3 - l4) * h(4, 4, 1) ** 2, _D6)
            + og((l1 - l4) ** 2 * h(4, 4, 4) ** 2, [(1, 2), (1, 3), (2, 3), (2, 3)])
            + og(-(l1 - l4) * ((l2 - l4) ** 2 * (l3 - l4) + (l1 - l2) ** 2 * (l1 - l3)) * h(4, 4, 2) ** 2, _D6)
            + og(-(l1 - l4) * ((l2 - l4) * (l3 - l4) ** 2 + (l1 - l2) * (l1 - l3) ** 2) * h(4, 4, 3) ** 2, _D6)
            + og(2 * h(1, 2, 3) ** 2, [(1, 2), (1, 3)])
            + og(2 * h(2, 3, 4) ** 2, [(2, 4), (3, 4)])
        )
    elif (i, j) == (2, 4):
        body = (
            og(-(l3 - l4) * h(4, 4, 1) ** 2, [(1, 2), (1, 2), (2, 3)])
            + og((l1 - l4) * h(4, 4, 3) ** 2, [(1, 2), (2, 3), (2, 3)])
            + og((l1 - l3) * ((l3 - l4) * (l2 - l3) ** 2 - (l1 - l4) * (l1 - l2) ** 2) * h(4, 4, 2) ** 2, _D6)
            + og(-(l1 - l3) * ((l2 - l3) * (l3 - l4) ** 2 + (l1 - l2) * (l1 - l4) ** 2) * h(4, 4, 4) ** 2, _D6)
            + og(2 * h(1, 2, 4) ** 2, [(1, 2), (1, 4)])
            + og(-2 * h(2, 3, 4) ** 2, [(2, 3), (3, 4)])
        )
    elif (i, j) == (3, 4):
        body = (
            og((l2 - l4) * h(4, 4, 1) ** 2, [(1, 3), (1, 3), (2, 3)])
            + og((l1 - l4) * h(4, 4, 2) ** 2, [(1, 3), (2, 3), (2, 3)])
            + og((l1 - l2) * ((l2 - l3) ** 2 * (l2 - l4) - (l1 - l3) ** 2 * (l1 - l4)) * h(4, 4, 3) ** 2, _D6)
            + og((l1 - l2) * ((l2 - l3) * (l2 - l4) ** 2 - (l1 - l3) * (l1 - l4) ** 2) * h(4, 4, 4) ** 2, _D6)
            + og(2 * h(1, 3, 4) ** 2, [(1, 3), (1, 4)])
            + og(2 * h(2, 3, 4) ** 2, [(2, 3), (2, 4)])
        )
    else:
        raise ValueError(f"no target for theta_{i}{j}")
    return body - ff.GAP_BASE.from_poly(ff.gauss_factor(i, j, mode))


def dphi_target(mode: str) -> FactoredFn:
    """sum_i L_i h_44i^2 - (1/2) R_M with R_M = 2 sum_{i<j} R_ijij."""
    h = ff.hsym
    og = ff.over_gaps
    gL = gamma_L_polynomials()
    return ff.GAP_BASE.sum([og(gL[i] * h(4, 4, i) ** 2, _D6) for i in range(1, 5)]
                           + [ff.GAP_BASE.from_poly(-ff.gauss_factor(a, b, mode)) for a, b in _PAIRS])


# The bracket of w_i ^ Phi = bracket_i * h_44i * vol, term by term, as
# (sign, numerator gaps, denominator gaps); a gap (i, j) is l_i - l_j with
# i > j, so nonnegative on the sorted chamber.  `certify` renders a band
# note's denominator in the order given here.
CONTRACTION_TERMS: dict[int, tuple[tuple[int, tuple, tuple], ...]] = {
    1: ((-1, ((4, 3), (4, 1)), ((3, 2), (2, 1), (2, 1))),
        (1, ((4, 2), (4, 1)), ((3, 2), (3, 1), (3, 1))),
        (-1, (), ((4, 1),))),
    2: ((1, ((4, 2), (4, 1)), ((3, 1), (3, 2), (3, 2))),
        (-1, (), ((4, 2),)),
        (-1, ((4, 3), (4, 2)), ((3, 1), (2, 1), (2, 1)))),
    3: ((-1, (), ((4, 3),)),
        (1, ((4, 3), (4, 1)), ((2, 1), (3, 2), (3, 2))),
        (-1, ((4, 3), (4, 2)), ((3, 1), (3, 1), (2, 1)))),
    4: ((-1, ((4, 3), (4, 2)), ((3, 1), (2, 1), (4, 1))),
        (1, ((4, 3), (4, 1)), ((2, 1), (3, 2), (4, 2))),
        (-1, ((4, 2), (4, 1)), ((3, 1), (3, 2), (4, 3)))),
}


def _gap_term(sign: int, num: tuple, den: tuple) -> FactoredFn:
    """sign * (product of the numerator gaps) / (product of the denominator gaps)."""
    return ff.over_gaps(math.prod((ff.gap(*pair) for pair in num), start=sign), den)


def contraction_bracket(i: int) -> FactoredFn:
    """The scalar bracket in  w_i ^ Phi = bracket_i * h_44i * vol."""
    return ff.GAP_BASE.sum(_gap_term(*term) for term in CONTRACTION_TERMS[i])


def gap_slope(which: str) -> FactoredFn:
    """The scalar m with d(gap^2) = m * h_44i w_i: m0 for g, m1 for f."""
    return gap_slope_form(which, lambda i, j: ff.GAP_BASE.from_poly(ff.gap(i, j)),
                          lambda x, pair: x * ff.over_gaps(1, [pair]))


# The bracket terms that blow up on each side's vanishing-gap band, as
# (side, i): the entry of CONTRACTION_TERMS[i].
BAND_SINGULAR_TERMS: dict[tuple[str, int], tuple[int, tuple, tuple]] = {
    ("g", 1): CONTRACTION_TERMS[1][0],
    ("g", 2): CONTRACTION_TERMS[2][2],
    ("f", 2): CONTRACTION_TERMS[2][0],
    ("f", 3): CONTRACTION_TERMS[3][1],
}


def gap_band_quantities(which: str) -> dict[str, FactoredFn]:
    """Named normal-form pieces of d(g or f) ^ Phi: slope m, singular B_i, bounded G_i.

    The coefficient of h_44i^2 decomposes as B_i + G_i (B_i present only for
    the two indices whose bracket is singular on the band); the G_i come out
    with every removable gap factor cancelled.
    """
    return dict(_gap_band_quantities_cached(which))


@functools.lru_cache(maxsize=2)
def _gap_band_quantities_cached(which: str) -> tuple[tuple[str, FactoredFn], ...]:
    m = gap_slope(which)
    out: list[tuple[str, FactoredFn]] = [("m", m.normalize())]
    for i in range(1, 5):
        full = m * contraction_bracket(i)
        if (which, i) in BAND_SINGULAR_TERMS:
            b = m * _gap_term(*BAND_SINGULAR_TERMS[which, i])
            out.append((f"B{i}", b.normalize()))
            out.append((f"G{i}", (full - b).normalize()))
        else:
            out.append((f"G{i}", full.normalize()))
    return tuple(out)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one engine-versus-target residual check."""

    name: str
    mode: str
    residual_is_zero: bool
    residual_term_count: int
    extracted: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "pass" if self.residual_is_zero else "fail"

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "mode": self.mode,
            "residual_is_zero": self.residual_is_zero,
            "residual_term_count": self.residual_term_count,
            "status": self.status,
        }
        if self.extracted:
            out["extracted"] = dict(sorted(self.extracted.items()))
        return out


def _report(name: str, mode: str, engine: FactoredFn, target: FactoredFn, extracted=None) -> IdentityReport:
    residual = (engine - target).normalize()
    return IdentityReport(
        name=name,
        mode=mode,
        residual_is_zero=residual.is_zero(),
        residual_term_count=len(residual.num.terms),
        extracted=extracted or {},
    )


def engine_form(name: str, mode: str = "symbolic") -> ff.Form:
    """The top-degree coframe form whose volume coefficient the named check reads."""
    if name.startswith("dtheta_"):
        return ff.exterior_derivative(ff.theta(int(name[-2]), int(name[-1])), mode=mode)
    if name == "dphi":
        return ff.exterior_derivative(ff.phi(), mode=mode)
    if name in ("dg_phi", "df_phi"):
        sq = (_L[2] - _L[1]) ** 2 if name == "dg_phi" else (_L[3] - _L[2]) ** 2
        return ff.scalar_differential(sq).wedge(ff.phi())
    if name in CONTRACTION_NAMES:
        return ff.omega(int(name[1])).wedge(ff.phi())
    raise ValueError(f"unknown identity {name!r}")


def verify_identity(name: str, mode: str = "symbolic") -> IdentityReport:
    """Run one named identity check; residual must be exactly zero to pass."""
    if mode not in ff.MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if name not in IDENTITY_NAMES:
        raise ValueError(f"unknown identity {name!r}; known: {', '.join(IDENTITY_NAMES)}")
    engine = engine_form(name, mode).vol_coefficient()
    if name.startswith("dtheta_"):
        return _report(name, mode, engine, dtheta_target(int(name[-2]), int(name[-1]), mode))
    if name == "dphi":
        gL = gamma_L_polynomials()
        extracted = {f"gamma_L{i}": str(gL[i]) for i in gL}
        extracted["gamma"] = str(gamma_polynomial())
        return _report(name, mode, engine, dphi_target(mode), extracted)
    if name in ("dg_phi", "df_phi"):
        which = "g" if name == "dg_phi" else "f"
        m = gap_slope(which)
        target = ff.GAP_BASE.sum(m * contraction_bracket(i) * ff.GAP_BASE.from_poly(ff.hsym(4, 4, i) ** 2)
                                 for i in range(1, 5))
        extracted = {k: str(v) for k, v in gap_band_quantities(which).items()}
        return _report(name, mode, engine, target, extracted)
    i = int(name[1])
    return _report(name, mode, engine, contraction_bracket(i) * ff.GAP_BASE.from_poly(ff.hsym(4, 4, i)))


def run_identity_suite(modes=("symbolic", "expanded")) -> list[IdentityReport]:
    """Every identity in every requested mode, in deterministic order."""
    return [verify_identity(name, mode) for name in IDENTITY_NAMES for mode in modes]
