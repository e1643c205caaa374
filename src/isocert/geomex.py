"""Catalog of closed-form model spectra and clause-level theorem checks.

Every model's principal curvatures live in a real quadratic field, so all
power sums, the cubic bound, and every clause comparison are decided by
exact arithmetic; isolating intervals of any requested width come from the
same exact values.  The catalog covers the flat sphere, the three product
tori, and the four-curvature tilted example with spectrum cot(pi/8 + k pi/4).

`check_model` evaluates a rigidity statement clause by clause and never
averages.  A failed conclusion clause listed in `DOCUMENTED_DISCREPANCIES`
for that model and theorem is reported as a documented discrepancy together
with the note explaining the tension; any other failed conclusion is a
violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebraic import QuadExt, cubic_bound_sign, run_lengths

_TWO_DISTINCT_NOTE = (
    "catalog note: this example has exactly two distinct principal curvatures "
    "everywhere, constant S = 4, and constant A3 = 8*sqrt(3)/3, which attains "
    "the cubic bound A3 = S^(3/2)/sqrt(3) exactly.  The two-curvature rigidity "
    "statement concludes A3 = 0, so its conclusion clause fails on this "
    "catalogued spectrum; the strict-bound hypothesis of the general rigidity "
    "statement excludes exactly this boundary case.  The discrepancy is "
    "surfaced here deliberately and left unresolved."
)

# (model name, theorem, conclusion clause) -> note explaining why it fails.
DOCUMENTED_DISCREPANCIES: dict[tuple[str, int, str], str] = {
    ("clifford_torus_1", 2, "A3 = 0"): _TWO_DISTINCT_NOTE,
    ("clifford_torus_3", 2, "A3 = 0"): _TWO_DISTINCT_NOTE,
}


@dataclass(frozen=True)
class ModelHypersurface:
    """One closed-form model: exact spectrum plus derived invariants."""

    name: str
    spectrum: tuple          # 4 QuadExt values, ascending
    multiplicities: tuple    # per distinct value, ascending
    h_all_zero: bool         # every second-derivative component vanishes
    notes: tuple = ()

    @property
    def power_sums(self) -> dict[str, QuadExt]:
        out = {}
        for k in range(1, 5):
            total = QuadExt.rational(0)
            for lam in self.spectrum:
                total = total + lam**k
            out[f"p{k}"] = total
        return out

    @property
    def S(self) -> QuadExt:
        return self.power_sums["p2"]

    @property
    def A3(self) -> QuadExt:
        return self.power_sums["p3"]

    @property
    def scalar_curvature(self) -> QuadExt:
        return QuadExt.rational(12) - self.S

    def sum_h_squared(self) -> QuadExt:
        """S(S-4), forced for a constant-S minimal model of this dimension."""
        return self.S * (self.S - QuadExt.rational(4))

    def distinct_count(self) -> int:
        return len(self.multiplicities)

    def power_sum_intervals(self, width=Fraction(1, 10**12)) -> dict[str, tuple[Fraction, Fraction]]:
        return {k: v.interval(Fraction(width)) for k, v in self.power_sums.items()}


def _mults_of(ordered: list[QuadExt]) -> tuple:
    return tuple(run_lengths((a - b).sign() == 0 for a, b in zip(ordered, ordered[1:])))


def equatorial_sphere() -> ModelHypersurface:
    zero = QuadExt.rational(0)
    return ModelHypersurface(
        name="equatorial_sphere",
        spectrum=(zero, zero, zero, zero),
        multiplicities=(4,),
        h_all_zero=True,
    )


def clifford_torus(k: int) -> ModelHypersurface:
    """Product-sphere model: sqrt((4-k)/k) with multiplicity k, rest mirrored.

    The minimality p1 = 0 and S = 4 are intrinsic to the construction; both
    are re-verified exactly by the test suite.
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2, or 3")
    if k == 2:
        pos = QuadExt.rational(1)
        neg = QuadExt.rational(-1)
    else:
        # sqrt(3) and -1/sqrt(3) = -sqrt(3)/3 (or mirrored for k = 3).
        if k == 1:
            pos = QuadExt.make(0, 1, 3)
            neg = QuadExt.make(0, Fraction(-1, 3), 3)
        else:
            pos = QuadExt.make(0, Fraction(1, 3), 3)
            neg = QuadExt.make(0, -1, 3)
    vals = [pos] * k + [neg] * (4 - k)
    ordered = sorted(vals)
    return ModelHypersurface(
        name=f"clifford_torus_{k}",
        spectrum=tuple(ordered),
        multiplicities=_mults_of(ordered),
        h_all_zero=True,
    )


def isoparametric_g4() -> ModelHypersurface:
    """Four distinct curvatures 1+sqrt2, sqrt2-1, 1-sqrt2, -1-sqrt2."""
    vals = [
        QuadExt.make(-1, -1, 2),
        QuadExt.make(1, -1, 2),
        QuadExt.make(-1, 1, 2),
        QuadExt.make(1, 1, 2),
    ]
    ordered = sorted(vals)
    return ModelHypersurface(
        name="isoparametric_g4",
        spectrum=tuple(ordered),
        multiplicities=_mults_of(ordered),
        h_all_zero=False,
        notes=("off-diagonal second-derivative components are nonzero: "
               "sum h_ijk^2 = S(S-4) = 96 here",),
    )


_CATALOG = {
    "equatorial": equatorial_sphere,
    "clifford1": lambda: clifford_torus(1),
    "clifford2": lambda: clifford_torus(2),
    "clifford3": lambda: clifford_torus(3),
    "g4": isoparametric_g4,
}


def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def get_model(name: str) -> ModelHypersurface:
    try:
        return _CATALOG[name]()
    except KeyError:
        raise ValueError(f"unknown model {name!r}; known: {', '.join(_CATALOG)}") from None


def _clause(description: str, holds: bool, detail: str = "") -> dict:
    out = {"clause": description, "holds": bool(holds)}
    if detail:
        out["detail"] = detail
    return out


def _cubic_bound_strict(model: ModelHypersurface) -> bool:
    """A3 in [0, S^(3/2)/sqrt(3)) decided exactly via 3 A3^2 < S^3."""
    if model.A3.sign() < 0:
        return False
    return cubic_bound_sign(model.S, model.A3) > 0


def check_model(model: ModelHypersurface, theorem: int) -> dict:
    """Clause-level evaluation of one rigidity statement on one model."""
    ps = model.power_sums
    S, A3 = model.S, model.A3
    hyps: list[dict] = [
        _clause("minimal: p1 = 0", ps["p1"].sign() == 0),
        _clause("S constant", True, "constant by construction"),
        _clause("A3 constant", True, "constant by construction"),
    ]
    concl: list[dict] = []
    extras: list[dict] = []
    if theorem == 1:
        hyps.append(_clause("scalar curvature nonnegative: S <= 12",
                            (QuadExt.rational(12) - S).sign() >= 0))
        concl.append(_clause("isoparametric", True, "constant spectrum by construction"))
        concl.append(_clause(
            "S in {0, 4, 12}",
            any((S - QuadExt.rational(v)).sign() == 0 for v in (0, 4, 12)),
            f"S = {S}",
        ))
    elif theorem == 2:
        hyps.append(_clause(
            "exactly two distinct principal curvatures at some point",
            model.distinct_count() == 2,
            f"distinct values: {model.distinct_count()}",
        ))
        concl.append(_clause("S = 4", (S - QuadExt.rational(4)).sign() == 0, f"S = {S}"))
        concl.append(_clause("A3 = 0", A3.sign() == 0, f"A3 = {A3}"))
        concl.append(_clause(
            "product-torus spectrum",
            model.name.startswith("clifford_torus"),
        ))
        if model.distinct_count() == 2 and model.h_all_zero:
            val = S * (QuadExt.rational(4) - S) * 2
            extras.append(_clause(
                "laplacian bookkeeping: 2(4-S)S + 2*sum h^2 = 0 forces S in {0, 4}",
                val.sign() == 0 and any((S - QuadExt.rational(v)).sign() == 0 for v in (0, 4)),
                f"2(4-S)S = {val}, sum h^2 = 0",
            ))
    elif theorem == 3:
        hyps.append(_clause("4 < S <= 12",
                            (S - QuadExt.rational(4)).sign() > 0
                            and (QuadExt.rational(12) - S).sign() >= 0,
                            f"S = {S}"))
        hyps.append(_clause("0 <= A3 < S^(3/2)/sqrt(3) (strict)",
                            _cubic_bound_strict(model), f"A3 = {A3}"))
        concl.append(_clause("S = 12", (S - QuadExt.rational(12)).sign() == 0, f"S = {S}"))
        concl.append(_clause("A3 = 0", A3.sign() == 0, f"A3 = {A3}"))
        concl.append(_clause("four distinct curvatures", model.distinct_count() == 4))
    else:
        raise ValueError("theorem must be 1, 2, or 3")

    failed = [(model.name, theorem, c["clause"]) for c in concl if not c["holds"]]
    if not all(c["holds"] for c in hyps):
        status = "hypothesis_not_met"
    elif not failed:
        status = "pass"
    elif all(key in DOCUMENTED_DISCREPANCIES for key in failed):
        status = "documented_discrepancy"
    else:
        status = "violated"
    report = {
        "model": model.name,
        "theorem": theorem,
        "hypotheses": hyps,
        "conclusions": concl,
        "status": status,
    }
    if extras:
        report["extras"] = extras
    if status == "documented_discrepancy":
        report["note"] = DOCUMENTED_DISCREPANCIES[failed[0]]
    return report
