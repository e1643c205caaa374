"""The generic connection substitution: the tests' reference for `Form.vol_coefficient`.

Each connection generator of a form is replaced by its whole expansion
w_ij = sum_k h_ijk w_k / (l_i - l_j), built as a 1-form and wedged into
the term, and the volume coefficient is then read off the pure coframe
form.  It shares with the kernel only `Form.wedge`, `h_coeff` and
`over_gaps`, so it checks the kernel's leg orderings, signs and common
denominator independently.
"""

from __future__ import annotations

from isocert import frameforms as ff


def coefficient(form: ff.Form, gens) -> ff.FactoredFn:
    """Coefficient of the given wedge monomial, as stored (not normalized)."""
    key, sign = ff._sort_gens(gens)
    c = form.terms.get(key) if sign else None
    if c is None:
        return ff.GAP_BASE.sum([])
    return c if sign > 0 else -c


def connection_form(i: int, j: int) -> ff.Form:
    """w_ij expanded on the coframe: sum_k h_ijk w_k / (l_i - l_j)."""
    if i == j:
        raise ValueError("w_ii is undefined: the expansion requires i != j")
    out = ff.Form()
    inv_gap = ff.over_gaps(1, [(i, j)])
    for k in (1, 2, 3, 4):
        out = out + ff.Form.monomial((k,), ff.h_coeff(i, j, k) * inv_gap)
    return out


def substitute_connections(form: ff.Form) -> ff.Form:
    """Expand every connection generator on the coframe, one wedge at a time.

    Generators sort with coframe legs first, so splitting a monomial into
    its legs and its generators keeps the stored sign.
    """
    out = ff.Form()
    for m, coeff in form.terms.items():
        ws = tuple(g for g in m if g < 10)
        piece = ff.Form({ws: coeff})
        for g in m[len(ws):]:
            piece = piece.wedge(connection_form(g // 10, g % 10))
        out = out + piece
    return out


def vol_coefficient(form: ff.Form) -> ff.FactoredFn:
    """Coefficient of w1^w2^w3^w4 after substitution."""
    return coefficient(substitute_connections(form), (1, 2, 3, 4))
