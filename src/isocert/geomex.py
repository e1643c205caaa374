"""Catalog of closed-form model spectra and clause-level theorem checks.

Every model's principal curvatures live in a real quadratic field, so all
power sums, the cubic bound, and every clause comparison are decided by
exact arithmetic; isolating intervals of any requested width come from the
same exact values.  The catalog covers the flat sphere, the three product
tori (from the minimality equation cot^2(theta) = (4-k)/k) and the
four-curvature example +-1 +- sqrt(2) = cot(pi/8 + k pi/4).  One builder,
`_model`, sorts a spectrum and counts its multiplicities; each model
computes its power sums once and derives every fact a check reports from
them or from its spectrum, never from a hand-set flag or its name.

`check_model` evaluates a rigidity statement clause by clause and never
averages.  A failed conclusion clause listed in `DOCUMENTED_DISCREPANCIES`
for that model and theorem is reported as a documented discrepancy together
with the note explaining the tension; any other failed conclusion is a
violation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .algebraic import QuadExt, cubic_bound_sign, power_sums, run_lengths
from .upoly import RatInterval


def _two_distinct_note(a3: str, on_bound: str, excluded: str) -> str:
    return ("catalog note: this example has exactly two distinct principal curvatures "
            f"everywhere, constant S = 4, and constant A3 = {a3}, {on_bound} exactly.  "
            "The two-curvature rigidity statement concludes A3 = 0, so its conclusion "
            f"clause fails on this catalogued spectrum; {excluded}.  The discrepancy is "
            "surfaced here deliberately and left unresolved.")


# (model name, theorem, conclusion clause) -> note explaining why it fails.
DOCUMENTED_DISCREPANCIES: dict[tuple[str, int, str], str] = {
    ("clifford_torus_1", 2, "A3 = 0"): _two_distinct_note(
        "8*sqrt(3)/3", "which attains the cubic bound A3 = S^(3/2)/sqrt(3)",
        "the strict-bound hypothesis of the general rigidity statement excludes "
        "exactly this boundary case"),
    ("clifford_torus_3", 2, "A3 = 0"): _two_distinct_note(
        "-8*sqrt(3)/3", "so -A3 attains the cubic bound -A3 = S^(3/2)/sqrt(3)",
        "the hypothesis 0 <= A3 of the general rigidity statement excludes it by sign"),
}


@dataclass(frozen=True)
class ModelHypersurface:
    """One closed-form model: exact spectrum plus derived invariants."""

    name: str
    spectrum: tuple          # 4 QuadExt values, ascending
    multiplicities: tuple    # per distinct value, ascending

    @functools.cached_property
    def power_sums(self) -> dict[str, QuadExt]:
        """p1..p4 of the spectrum, computed once per model."""
        return {f"p{k}": v for k, v in enumerate(power_sums(self.spectrum, 4), start=1)}

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

    def power_sum_intervals(self, width=Fraction(1, 10**12)) -> dict[str, RatInterval]:
        return {k: v.interval(Fraction(width)) for k, v in self.power_sums.items()}


def _model(name: str, values) -> ModelHypersurface:
    """The model of a spectrum: the values sorted, and the multiplicity of
    each distinct value decided by exact comparison."""
    ordered = sorted(values)
    equal = ((a - b).sign() == 0 for a, b in zip(ordered, ordered[1:]))
    return ModelHypersurface(name, tuple(ordered), tuple(run_lengths(equal)))


def equatorial_sphere() -> ModelHypersurface:
    return _model("equatorial_sphere", [QuadExt.rational(0)] * 4)


def clifford_torus(k: int) -> ModelHypersurface:
    """Product-sphere model S^k(r1) x S^(4-k)(r2): curvature cot(theta) with
    multiplicity k and -tan(theta) with multiplicity 4-k, where minimality,
    k cot(theta) = (4-k) tan(theta), gives cot^2(theta) = (4-k)/k.  So the
    values are sqrt(k(4-k))/k and -sqrt(k(4-k))/(4-k).
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2, or 3")
    r = k * (4 - k)
    return _model(f"clifford_torus_{k}", [QuadExt.make(0, Fraction(1, k), r)] * k
                  + [QuadExt.make(0, Fraction(-1, 4 - k), r)] * (4 - k))


def isoparametric_g4() -> ModelHypersurface:
    """Four distinct curvatures +-1 +- sqrt(2), the roots of x^4 - 6x^2 + 1."""
    return _model("isoparametric_g4", [QuadExt.make(a, b, 2) for a in (1, -1) for b in (1, -1)])


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
        two = model.distinct_count() == 2
        hyps.append(_clause(
            "exactly two distinct principal curvatures at some point", two,
            f"distinct values: {model.distinct_count()}",
        ))
        concl.append(_clause("S = 4", (S - QuadExt.rational(4)).sign() == 0, f"S = {S}"))
        concl.append(_clause("A3 = 0", A3.sign() == 0, f"A3 = {A3}"))
        concl.append(_clause(
            "product-torus spectrum",
            two and model.spectrum == clifford_torus(model.multiplicities[-1]).spectrum,
        ))
        if two and model.sum_h_squared().sign() == 0:
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
