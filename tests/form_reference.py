"""Term-by-term sums of forms: the tests' reference for `frameforms._collect`.

Each piece is merged into the result as soon as it is made, and two
coefficients of one monomial are added by lifting both numerators to their
common denominator with `FactorBase.factor_power` and adding them with
`MultiPoly.__add__`; a sum that vanishes drops its monomial.  `FactorBase.sum`
and `_collect` are never called, so `add`, `wedge` and `exterior_derivative`
check the engine's grouping of like terms independently.  The structure
equations and the quotient rule are those of `frameforms`, restated here.
"""

from __future__ import annotations

from isocert import frameforms as ff

_W = (1, 2, 3, 4)


def coefficient_sum(a: ff.FactoredFn, b: ff.FactoredFn) -> ff.FactoredFn:
    """a + b over the elementwise maximum of the denominators, at the MultiPoly level."""
    den = tuple(map(max, a.den, b.den))
    n1, n2 = (f.num * ff.GAP_BASE.factor_power(tuple(c - e for e, c in zip(f.den, den))) for f in (a, b))
    return ff.FactoredFn(ff.GAP_BASE, n1 + n2, den)


def _merge(out: dict, key: tuple[int, ...], c: ff.FactoredFn) -> None:
    s = out.get(key)
    if s is None:
        out[key] = c
    else:
        s = coefficient_sum(s, c)
        if s.is_zero():
            del out[key]
        else:
            out[key] = s


def add(a: ff.Form, b: ff.Form) -> ff.Form:
    out = dict(a.terms)
    for m, c in b.terms.items():
        _merge(out, m, c)
    return ff.Form(out)


def wedge(a: ff.Form, b: ff.Form) -> ff.Form:
    out: dict = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            key, sign = ff._sort_gens(m1 + m2)
            if sign:
                _merge(out, key, c1 * c2 if sign > 0 else -(c1 * c2))
    return ff.Form(out)


def d_coeff(coeff: ff.FactoredFn) -> ff.Form:
    """d of a coefficient in l1..l4: d l_j = sum_i h_jji w_i, quotient rule over the gaps."""
    out = ff.Form()
    for j in _W:
        dj = ff.FactoredFn(ff.GAP_BASE, coeff.num.derivative(f"l{j}"), coeff.den)
        for k, (a, b) in enumerate(((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))):
            e, dg = coeff.den[k], (a == j) - (b == j)
            if e and dg:
                den = list(coeff.den)
                den[k] += 1
                dj = coefficient_sum(dj, ff.FactoredFn(ff.GAP_BASE, coeff.num * (-e * dg), tuple(den)))
        for i in _W:
            out = add(out, ff.Form.monomial((i,), dj * ff.h_coeff(j, j, i)))
    return out


def d_generator(g: int, mode: str) -> ff.Form:
    """d w_i = sum_j w_ij ^ w_j;  d w_ij = sum_k w_ik ^ w_kj - R_ijij w_i ^ w_j."""
    out = ff.Form()
    if g < 10:
        for j in _W:
            if j != g:
                out = add(out, wedge(ff.connection_generator(g, j), ff.omega(j)))
        return out
    i, j = g // 10, g % 10
    for k in _W:
        if k not in (i, j):
            out = add(out, wedge(ff.connection_generator(i, k), ff.connection_generator(k, j)))
    return add(out, ff.Form.monomial((i, j), -ff.gauss_factor(i, j, mode)))


def exterior_derivative(form: ff.Form, mode: str = "symbolic") -> ff.Form:
    """d(c w_g1 ^ ... ^ w_gr) = dc ^ w_g1 ^ ... + sum_pos (-1)^pos c ... ^ d w_g ^ ..."""
    one = ff.GAP_BASE.one()
    out = ff.Form()
    for m, coeff in form.terms.items():
        out = add(out, wedge(d_coeff(coeff), ff.Form({m: one})))
        for pos, g in enumerate(m):
            piece = wedge(d_generator(g, mode), ff.Form({m[:pos] + m[pos + 1:]: one}))
            out = add(out, piece.scale(-coeff if pos % 2 else coeff))
    return out
