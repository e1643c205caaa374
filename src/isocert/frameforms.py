"""Exterior-calculus rewriting on the moving coframe of a minimal hypersurface.

The engine works with graded forms over ten formal 1-form generators: the
coframe legs w1..w4 and the connection forms c12, c13, c14, c23, c24, c34
(c_ji = -c_ij is normalized away at construction).  Coefficients are exact
rational functions of the principal curvatures l1..l4, the symmetric
second-derivative symbols h_ijk and the sectional curvatures R_ijij.

The exterior derivative is defined structurally:

    d w_i  = sum_j w_ij ^ w_j
    d w_ij = sum_k w_ik ^ w_kj  -  R_ijij w_i ^ w_j
    d l_j  = sum_i h_jji w_i          (applied to scalar coefficients)

after which connection generators are expanded through

    w_ij = sum_k h_ijk w_k / (l_i - l_j).

One substitution expands each distinct generator once and wedges the same
expansion into every term that carries it; nothing is kept between
substitutions, so each check pays for its own expansions, as a one-check
command-line run does.

The diagonal derivative family h_jji (j in 1..3) is eliminated in favor of
h_44i using the three linear constraints that come from differentiating the
constant power sums.  The elimination is applied where an h symbol is
created (h_coeff, called by the d l_j rule and the connection expansion), so
no form ever carries h_11i, h_22i or h_33i; this is sound because the
substitution commutes with sums, wedges and scaling and d never
differentiates an h symbol.  The result is a pure coframe form whose
top-degree coefficient can be compared, exactly, against an independently
transcribed target formula.

Every denominator that can occur on this pipeline is a product of the six
curvature gaps l_i - l_j, so coefficients are carried as FactoredFn over
that base: no polynomial gcd is ever needed mid-computation, and the final
normalization (trial division by the base factors) is exact.

Sign conventions: wedge monomials are kept with strictly increasing
generator order and the reordering parity absorbed into the coefficient;
the volume form is w1^w2^w3^w4.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .exactalg import FactorBase, FactoredFn, MultiPoly, SymbolTable

# Generator encoding: coframe legs are 1..4, connection forms are 10*i + j
# with i < j.  Plain integer comparison then gives the canonical order.
_W = (1, 2, 3, 4)
_C_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

GEOMETRY = SymbolTable.geometry()

MODES = ("symbolic", "expanded")


def lam(i: int) -> MultiPoly:
    return MultiPoly.var(GEOMETRY, f"l{i}")


def hsym(i: int, j: int, k: int) -> MultiPoly:
    return MultiPoly.var(GEOMETRY, SymbolTable.h_name(i, j, k))


def rsym(i: int, j: int) -> MultiPoly:
    return MultiPoly.var(GEOMETRY, SymbolTable.r_name(i, j))


GAP_BASE = FactorBase([lam(i) - lam(j) for i, j in _C_PAIRS])
_GAP_INDEX = {pair: k for k, pair in enumerate(_C_PAIRS)}

_ONE = GAP_BASE.one()
_ZERO = GAP_BASE.zero()
_POLY_ONE = MultiPoly.const(GEOMETRY, 1)


def gap(i: int, j: int) -> MultiPoly:
    """The polynomial l_i - l_j."""
    return lam(i) - lam(j)


def over_gaps(num: MultiPoly | int, pairs: Iterable[tuple[int, int]] = ()) -> FactoredFn:
    """num divided by a product of gap factors; (i, j) may come in any order.

    A pair given as (j, i) with j > i contributes the sign of l_j - l_i
    relative to the monic base factor l_i - l_j to the numerator.
    """
    if isinstance(num, int):
        num = MultiPoly.const(GEOMETRY, num)
    den = [0] * len(_C_PAIRS)
    sign = 1
    for a, b in pairs:
        if a < b:
            den[_GAP_INDEX[(a, b)]] += 1
        else:
            den[_GAP_INDEX[(b, a)]] += 1
            sign = -sign
    return FactoredFn(GAP_BASE, num if sign > 0 else -num, tuple(den))


def _coerce_coeff(c) -> FactoredFn:
    if isinstance(c, FactoredFn):
        return c
    if isinstance(c, MultiPoly):
        return GAP_BASE.from_poly(c)
    if isinstance(c, (int, Fraction)):
        return GAP_BASE.from_poly(MultiPoly.const(GEOMETRY, c))
    raise TypeError(f"bad coefficient type {type(c).__name__}")


def _sort_gens(gens: Iterable[int]) -> tuple[tuple[int, ...], int]:
    """Insertion sort with parity; returns (sorted tuple, sign), sign 0 if repeated."""
    lst = list(gens)
    if len(lst) < 2:
        return tuple(lst), 1
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b:
            return tuple(lst), 0
    return tuple(lst), sign


def _gen_c(i: int, j: int) -> tuple[int, int]:
    """Canonical connection generator and the sign of w_ij relative to it."""
    if i == j:
        raise ValueError("w_ii is not a connection form")
    if i < j:
        return 10 * i + j, 1
    return 10 * j + i, -1


class Form:
    """Graded exterior form with FactoredFn coefficients over the mixed generators."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], FactoredFn] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def zero(cls) -> "Form":
        return cls()

    @classmethod
    def monomial(cls, gens: Iterable[int], coeff=1) -> "Form":
        coeff = _coerce_coeff(coeff)
        key, sign = _sort_gens(gens)
        if sign == 0:
            return cls()
        return cls({key: coeff if sign > 0 else -coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Form") -> "Form":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s.is_zero():
                    del out[m]
                else:
                    out[m] = s
        return Form(out)

    def __sub__(self, other: "Form") -> "Form":
        return self + other.scale(-1)

    def scale(self, c) -> "Form":
        c = _coerce_coeff(c)
        if c.is_zero():
            return Form()
        return Form({m: coeff * c for m, coeff in self.terms.items()})

    def wedge(self, other: "Form") -> "Form":
        out: dict[tuple[int, ...], FactoredFn] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key, sign = _sort_gens(m1 + m2)
                if sign == 0:
                    continue
                c = c1 * c2 if sign > 0 else -(c1 * c2)
                s = out.get(key)
                if s is None:
                    out[key] = c
                else:
                    s = s + c
                    if s.is_zero():
                        del out[key]
                    else:
                        out[key] = s
        return Form(out)

    def coefficient_raw(self, gens: Iterable[int]) -> FactoredFn:
        """Coefficient of the given wedge monomial, as stored (not normalized)."""
        key, sign = _sort_gens(gens)
        if sign == 0:
            return _ZERO
        c = self.terms.get(key)
        return _ZERO if c is None else c if sign > 0 else -c

    def vol_coefficient_raw(self) -> FactoredFn:
        """Coefficient of w1^w2^w3^w4 (requires a pure coframe form)."""
        for m in self.terms:
            if any(g >= 10 for g in m):
                raise ValueError("form still contains connection generators")
        return self.coefficient_raw((1, 2, 3, 4))

    def __repr__(self) -> str:
        if not self.terms:
            return "Form(0)"
        names = {i: f"w{i}" for i in _W}
        names.update({10 * i + j: f"w{i}{j}" for i, j in _C_PAIRS})
        parts = []
        for m in sorted(self.terms):
            mono = "^".join(names[g] for g in m) or "1"
            parts.append(f"({self.terms[m].normalize()}) {mono}")
        return "Form(" + " + ".join(parts) + ")"


def omega(i: int) -> Form:
    """Coframe leg w_i as a degree-1 form."""
    return Form.monomial((i,))


def connection_generator(i: int, j: int) -> Form:
    """Formal connection form w_ij (antisymmetric by construction)."""
    g, s = _gen_c(i, j)
    return Form.monomial((g,), s)


def connection_form(i: int, j: int) -> Form:
    """w_ij expanded on the coframe: sum_k h_ijk w_k / (l_i - l_j).

    The k = i and k = j terms are diagonal derivatives; those with index
    below 4 enter already rewritten as multiples of h_44i (see h_coeff).
    """
    if i == j:
        raise ValueError("w_ii is undefined: the expansion requires i != j")
    out = Form.zero()
    inv_gap = over_gaps(1, [(i, j)])
    for k in _W:
        out = out + Form.monomial((k,), h_coeff(i, j, k) * inv_gap)
    return out


def gauss_factor(i: int, j: int, mode: str) -> MultiPoly:
    """R_ijij (i < j) as a symbol, or expanded through the Gauss equation
    R_ijij = 1 + l_i l_j; the one copy of that equation in the package."""
    if mode == "symbolic":
        return rsym(i, j)
    if mode == "expanded":
        return _POLY_ONE + lam(i) * lam(j)
    raise ValueError(f"unknown mode {mode!r}")


def _diagonal_coeffs() -> dict[str, FactoredFn]:
    l1, l2, l3, l4 = (lam(k) for k in _W)
    return {
        "h11": over_gaps(-(l4 - l3) * (l4 - l2), [(3, 1), (2, 1)]),
        "h22": over_gaps((l4 - l3) * (l4 - l1), [(2, 1), (3, 2)]),
        "h33": over_gaps(-(l4 - l2) * (l4 - l1), [(3, 1), (3, 2)]),
    }


def _build_diagonal_map() -> dict[str, FactoredFn]:
    """Substitution h_jji -> (coefficient) * h_44i for j in 1..3, all i."""
    coeffs = _diagonal_coeffs()
    out: dict[str, FactoredFn] = {}
    for i in _W:
        h44i = GAP_BASE.from_poly(hsym(4, 4, i))
        for j in (1, 2, 3):
            out[SymbolTable.h_name(j, j, i)] = coeffs[f"h{j}{j}"] * h44i
    return out


_DIAGONAL_MAP = _build_diagonal_map()


def h_coeff(i: int, j: int, k: int) -> FactoredFn:
    """h_ijk as a coefficient, with h_11i, h_22i, h_33i already eliminated via h_44i.

    Every h symbol the engine creates comes from here, so no form ever
    carries the eliminated diagonal family.
    """
    sub = _DIAGONAL_MAP.get(SymbolTable.h_name(i, j, k))
    return sub if sub is not None else GAP_BASE.from_poly(hsym(i, j, k))


def substitute_connections(form: Form) -> Form:
    """Expand every connection generator on the coframe via h_ijk/(l_i - l_j).

    Generators sort with coframe legs first, so the split below preserves
    the stored sign.  Each distinct generator is expanded once per call.
    """
    expansions: dict[int, Form] = {}
    out = Form.zero()
    for m, coeff in form.terms.items():
        ws = tuple(g for g in m if g < 10)
        piece = Form({ws: coeff})
        for g in m[len(ws):]:
            c = expansions.get(g)
            if c is None:
                c = expansions[g] = connection_form(g // 10, g % 10)
            piece = piece.wedge(c)
        out = out + piece
    return out


_LAMBDA_NAMES = frozenset(f"l{i}" for i in _W)


def scalar_differential(expr: MultiPoly) -> Form:
    """d of a polynomial in the principal curvatures, as a coframe 1-form.

    Applies d l_j = sum_i h_jji w_i with the diagonal family already
    eliminated, so each w_i coefficient is a multiple of h_44i.
    """
    return _d_coeff(GAP_BASE.from_poly(expr))


def _d_coeff(coeff: FactoredFn) -> Form:
    """Scalar exterior derivative of a coefficient rational in l1..l4 only.

    d l_j = sum_i h_jji w_i, with h_jji taken from h_coeff.
    """
    extra = coeff.num.symbols_used() - _LAMBDA_NAMES
    if extra:
        raise ValueError(f"cannot differentiate symbols {sorted(extra)}")
    out = Form.zero()
    for j in _W:
        name = f"l{j}"
        # d(num / prod g_k^e_k) with d/dl_j applied: quotient rule over the
        # factored denominator; each gap derivative is 0 or +-1.
        pieces: list[FactoredFn] = []
        dn = coeff.num.derivative(name)
        if not dn.is_zero():
            pieces.append(FactoredFn(GAP_BASE, dn, coeff.den))
        for k, (a, b) in enumerate(_C_PAIRS):
            e = coeff.den[k]
            if not e:
                continue
            dg = (1 if a == j else 0) - (1 if b == j else 0)
            if not dg:
                continue
            den = list(coeff.den)
            den[k] += 1
            pieces.append(FactoredFn(GAP_BASE, coeff.num * (-e * dg), tuple(den)))
        if not pieces:
            continue
        dj = pieces[0]
        for p in pieces[1:]:
            dj = dj + p
        for i in _W:
            out = out + Form.monomial((i,), dj * h_coeff(j, j, i))
    return out


def _d_generator(g: int, mode: str) -> Form:
    """Structure equation for one generator."""
    if g < 10:
        i = g
        out = Form.zero()
        for j in _W:
            if j == i:
                continue
            out = out + connection_generator(i, j).wedge(omega(j))
        return out
    i, j = g // 10, g % 10
    out = Form.zero()
    for k in _W:
        if k in (i, j):
            continue
        out = out + connection_generator(i, k).wedge(connection_generator(k, j))
    return out + Form.monomial((i, j), -gauss_factor(i, j, mode))


def exterior_derivative(form: Form, mode: str = "symbolic") -> Form:
    """d on the closure of {w_i, w_ij, curvature scalars} under wedge and sum.

    The result is in the mixed generators, before connection substitution
    (`substitute_connections`); its coefficients already carry h_44i in
    place of h_11i, h_22i, h_33i.
    """
    out = Form.zero()
    for m, coeff in form.terms.items():
        dc = _d_coeff(coeff)
        out = out + dc.wedge(Form({m: _ONE}))
        for pos, g in enumerate(m):
            rest = m[:pos] + m[pos + 1 :]
            piece = _d_generator(g, mode).wedge(Form({rest: _ONE}))
            out = out + piece.scale(-coeff if pos % 2 else coeff)
    return out


# -- the 3-form built from the six theta blocks ------------------------------

_THETA_LEGS = {
    (1, 2): (3, 4),
    (1, 3): (4, 2),
    (1, 4): (2, 3),
    (2, 3): (1, 4),
    (2, 4): (3, 1),
    (3, 4): (1, 2),
}


def theta(i: int, j: int) -> Form:
    """theta_ij = w_a ^ w_b ^ w_ij with (a, b) the oriented complementary pair."""
    a, b = _THETA_LEGS[(i, j)]
    g, s = _gen_c(i, j)
    return Form.monomial((a, b, g), s)


def phi() -> Form:
    """The 3-form summing all six theta blocks."""
    out = Form.zero()
    for pair in _THETA_LEGS:
        out = out + theta(*pair)
    return out
