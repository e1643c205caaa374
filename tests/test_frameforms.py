"""Coframe engine: structure equations, eliminations, and identity checks.

The expensive full identity suite (every identity, both curvature modes)
lives in the acceptance module; here each piece of machinery is exercised
once, plus the independent oracles: the diagonal elimination is re-derived
by solving the 3x3 linear system with explicit determinants, and the
factored gap forms used by the interval certifier are proved equal to the
engine-extracted polynomials.
"""

from fractions import Fraction as F
from itertools import combinations

import pytest

from isocert import frameforms as ff
from isocert import identities as idn
from isocert.exactalg import MultiPoly, SymbolTable, divexact
from normal_form import value

L = {i: ff.lam(i) for i in range(1, 5)}
PROBE = {"l1": -3, "l2": -1, "l3": 1, "l4": 3}


def test_connection_antisymmetry():
    total = ff.connection_form(1, 2) + ff.connection_form(2, 1)
    assert total.is_zero()
    with pytest.raises(ValueError):
        ff.connection_form(2, 2)


def test_connection_coefficients():
    w12 = ff.connection_form(1, 2)
    c = w12.coefficient_raw((3,)).normalize()
    # c == h123 / (l1 - l2), decided by cross-multiplication.
    assert c.num * (L[1] - L[2]) == ff.hsym(1, 2, 3) * c.den_poly()


def test_connection_value_at_probe():
    w34 = ff.connection_form(3, 4)
    coeff = w34.coefficient_raw((4,)).normalize()
    val = value(coeff, {**PROBE, SymbolTable.h_name(3, 4, 4): 1})
    assert val == F(-1, 2)


def test_gauss_components():
    # The curvature term of d w_12 is -R_1212 w1^w2, and the Gauss equation
    # expands R_1212 = 1 + l1 l2.
    one = MultiPoly.const(ff.GEOMETRY, 1)
    for mode, r12 in (("symbolic", ff.rsym(1, 2)), ("expanded", one + L[1] * L[2])):
        d = ff.exterior_derivative(ff.connection_generator(1, 2), mode=mode)
        c12 = d.coefficient_raw((1, 2)).normalize()
        c21 = d.coefficient_raw((2, 1)).normalize()
        assert (c12.num, c12.den) == (-r12, ff.GAP_BASE.zero_den)
        assert (c21.num, c21.den) == (r12, ff.GAP_BASE.zero_den)
        assert d.coefficient_raw((3, 4)).normalize().is_zero()


def diagonal_derivative_relations(i: int) -> dict:
    """Normal-form coefficients of h_44i in the eliminated diagonal derivatives h_jji.

    These are the engine's printed coefficients (the solution of
    sum_j h_jji = sum_j l_j h_jji = sum_j l_j^2 h_jji = 0 for h_11i, h_22i,
    h_33i in terms of h_44i), which the tests below check independently.
    """
    coeffs = ff._diagonal_coeffs()
    return {
        SymbolTable.h_name(j, j, i): coeffs[f"h{j}{j}"].normalize() for j in (1, 2, 3)
    }


def _vandermonde_oracle(i: int) -> dict[str, tuple[MultiPoly, MultiPoly]]:
    """Solve sum_j h_jji = sum_j l_j h_jji = sum_j l_j^2 h_jji = 0 directly.

    Cramer's rule on the 3x3 system for (h_11i, h_22i, h_33i) with the
    h_44i column moved to the right-hand side; fully independent of the
    engine's printed coefficients.  Returns (numerator, determinant) pairs.
    """
    cols = [L[1], L[2], L[3]]
    rhs = L[4]

    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    one = MultiPoly.const(ff.GEOMETRY, 1)
    A = [[one, one, one], cols[:], [c * c for c in cols]]
    b = [-one, -rhs, -(rhs * rhs)]
    det = det3(A)
    out = {}
    for j in range(3):
        Aj = [row[:] for row in A]
        for r in range(3):
            Aj[r][j] = b[r]
        out[SymbolTable.h_name(j + 1, j + 1, i)] = (det3(Aj), det)
    return out


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_diagonal_relations_match_independent_solve(i):
    printed = diagonal_derivative_relations(i)
    oracle = _vandermonde_oracle(i)
    assert set(printed) == set(oracle)
    for name in printed:
        num, den = oracle[name]
        assert printed[name].num * den == num * printed[name].den_poly()


def test_diagonal_relations_at_probe():
    rel = diagonal_derivative_relations(2)
    vals = {name: value(r, PROBE) for name, r in rel.items()}
    assert vals[SymbolTable.h_name(1, 1, 2)] == -1
    assert vals[SymbolTable.h_name(2, 2, 2)] == 3
    assert vals[SymbolTable.h_name(3, 3, 2)] == -3


def test_diagonal_relations_satisfy_linear_constraints():
    # After substitution, the three differentiated power-sum constraints
    # vanish identically as rational functions.  Multiplied through by the
    # Vandermonde determinant of l1, l2, l3, every coefficient of h_44i is a
    # polynomial and each constraint a polynomial identity.
    vdm = (L[2] - L[1]) * (L[3] - L[1]) * (L[3] - L[2])
    for i in range(1, 5):
        rel = diagonal_derivative_relations(i)
        h44 = ff.hsym(4, 4, i)
        terms = []
        for j in (1, 2, 3):
            r = rel[SymbolTable.h_name(j, j, i)]
            cleared = divexact(r.num * vdm, r.den_poly())
            assert cleared is not None
            terms.append(cleared * h44)
        terms.append(vdm * h44)
        for power in (0, 1, 2):
            total = MultiPoly.zero(ff.GEOMETRY)
            for j, t in enumerate(terms, start=1):
                total = total + t * L[j] ** power
            assert total.is_zero()


_ELIMINATED = frozenset(SymbolTable.h_name(j, j, i) for j in (1, 2, 3) for i in range(1, 5))


def _eliminated_symbols(form):
    return set().union(*(c.num.symbols_used() for c in form.terms.values())) & _ELIMINATED


def test_no_form_carries_eliminated_diagonal_symbols():
    # h_11i, h_22i, h_33i are replaced where they are created, so no engine
    # output mentions them, with or without connection substitution.
    assert len(_ELIMINATED) == 12
    forms = [ff.connection_form(i, j) for i in range(1, 5) for j in range(1, 5) if i != j]
    forms += [ff.scalar_differential((L[2] - L[1]) ** 2), ff.scalar_differential((L[3] - L[2]) ** 2)]
    for source in [ff.theta(i, j) for i, j in combinations(range(1, 5), 2)] + [ff.phi()]:
        forms += [ff.exterior_derivative(source), ff.substitute_connections(ff.exterior_derivative(source))]
    assert len(forms) == 12 + 2 + 14
    for form in forms:
        assert not form.is_zero()
        assert not _eliminated_symbols(form), form


def test_scalar_differential_of_constant_power_sums():
    assert ff.scalar_differential(L[1] + L[2] + L[3] + L[4]).is_zero()
    assert ff.scalar_differential(L[1] ** 2 + L[2] ** 2 + L[3] ** 2 + L[4] ** 2).is_zero()
    assert ff.scalar_differential(
        L[1] ** 3 + L[2] ** 3 + L[3] ** 3 + L[4] ** 3
    ).is_zero()


def test_scalar_differential_slopes():
    for which, sq in (("g", (L[2] - L[1]) ** 2), ("f", (L[3] - L[2]) ** 2)):
        d = ff.scalar_differential(sq)
        m = idn.gap_slope(which)
        for i in range(1, 5):
            coeff = d.coefficient_raw((i,))
            target = m * ff.GAP_BASE.from_poly(ff.hsym(4, 4, i))
            assert (coeff - target).is_zero()


def test_scalar_differential_rejects_foreign_symbols():
    with pytest.raises(ValueError):
        ff.scalar_differential(ff.hsym(1, 2, 3))


def test_m0_value_at_probe():
    m0 = idn.gap_slope("g").normalize()
    assert value(m0, PROBE) == 16


def test_b1g_value_at_probe():
    # Direct evaluation of the printed singular coefficient; with m0 = 16
    # the value is -16 * (2*6) / (2*4) = -24.
    q = idn.gap_band_quantities("g")
    assert value(q["m"], PROBE) == 16
    assert value(q["B1"], PROBE) == -24
    assert value(q["B2"], PROBE) == -8


def test_coefficient_access_respects_orientation():
    form = ff.omega(1).wedge(ff.omega(2))
    c12 = form.coefficient_raw((1, 2)).normalize()
    c21 = form.coefficient_raw((2, 1)).normalize()
    one = MultiPoly.const(ff.GEOMETRY, 1)
    assert (c12.num, c12.den) == (one, ff.GAP_BASE.zero_den)
    assert (c21.num, c21.den) == (-one, ff.GAP_BASE.zero_den)
    assert form.coefficient_raw((1, 1)).normalize().is_zero()


def test_wedge_anticommutativity():
    a = ff.omega(1).wedge(ff.omega(2))
    b = ff.omega(2).wedge(ff.omega(1))
    assert (a + b).is_zero()
    assert ff.omega(3).wedge(ff.omega(3)).is_zero()
    # degree-1 ^ degree-2 commutes
    two = ff.omega(1).wedge(ff.omega(2))
    assert (ff.omega(3).wedge(two) - two.wedge(ff.omega(3))).is_zero()


def _typed(c):
    return [(m, v, type(v)) for m, v in c.num.terms.items()], c.den


def test_reorderings_negate_like_the_product_by_the_sign():
    # monomial, wedge, coefficient_raw and over_gaps negate a coefficient
    # for an odd reordering and keep it for an even one, where they once
    # multiplied it by the scalar sign.  The types agree as well while no
    # coefficient is an integral Fraction, which the product by the sign
    # turned into an int; the engine's checks hold no Fraction at all.
    num = ff.hsym(1, 2, 3) * 3 - ff.lam(1) * ff.lam(2) * F(1, 2) + 5
    c = ff.over_gaps(num, [(1, 2)])
    d = ff.over_gaps(ff.lam(4) * F(2, 7) + 1, [(3, 4), (2, 3)])
    mono = ff.Form.monomial
    cases = [
        (mono((2, 1), c).terms[(1, 2)], c * -1),
        (mono((1, 2), c).terms[(1, 2)], c * 1),
        (mono((2,), c).wedge(mono((1,), d)).terms[(1, 2)], c * d * -1),
        (mono((1, 3), c).wedge(mono((2, 4), d)).terms[(1, 2, 3, 4)], c * d * -1),
        (mono((3,), c).wedge(mono((1, 2), d)).terms[(1, 2, 3)], c * d * 1),
        (mono((1, 2), c).coefficient_raw((2, 1)), c * -1),
        (mono((1, 2), c).coefficient_raw((1, 2)), c * 1),
        (ff.over_gaps(num, [(2, 1)]), ff.over_gaps(num, [(1, 2)]) * -1),
        (ff.over_gaps(num, [(2, 1), (4, 3)]), ff.over_gaps(num, [(1, 2), (3, 4)]) * 1),
    ]
    for got, product in cases:
        assert _typed(got) == _typed(product)


def test_wedge_bilinearity():
    a = ff.omega(1).scale(ff.lam(2)) + ff.omega(2).scale(3)
    b = ff.omega(3)
    c = ff.omega(4).scale(ff.lam(1))
    lhs = a.wedge(b + c)
    rhs = a.wedge(b) + a.wedge(c)
    assert (lhs - rhs).is_zero()


def test_anti_derivation_law():
    # d(alpha ^ beta) = d(alpha) ^ beta + (-1)^deg(alpha) alpha ^ d(beta)
    cases = [
        (ff.omega(1).scale(ff.lam(2) ** 2), ff.omega(3)),
        (ff.theta(1, 2), ff.omega(2)),
        (ff.connection_generator(1, 3), ff.connection_generator(2, 4)),
        (ff.omega(2).scale(ff.lam(1) * ff.lam(3)), ff.theta(3, 4)),
    ]
    for alpha, beta in cases:
        deg = next(iter({len(m) for m in alpha.terms}))
        lhs = ff.exterior_derivative(alpha.wedge(beta))
        rhs = ff.exterior_derivative(alpha).wedge(beta)
        tail = alpha.wedge(ff.exterior_derivative(beta)).scale((-1) ** deg)
        assert (lhs - (rhs + tail)).is_zero()


def test_derivative_of_top_degree_form():
    vol = ff.omega(1).wedge(ff.omega(2)).wedge(ff.omega(3)).wedge(ff.omega(4))
    assert ff.substitute_connections(ff.exterior_derivative(vol)).is_zero()


def test_dtheta_12_exact():
    rep = idn.verify_identity("dtheta_12", "symbolic")
    assert rep.residual_is_zero
    assert rep.status == "pass"
    assert rep.residual_term_count == 0


def test_dphi_isoparametric_specialization():
    # With every second-derivative symbol sent to zero the volume
    # coefficient of d(Phi) is minus the sum of the six curvature symbols.
    dphi = ff.substitute_connections(ff.exterior_derivative(ff.phi(), mode="symbolic"))
    engine = dphi.vol_coefficient_raw().normalize()
    num = engine.num
    h_fields = [i for i, name in enumerate(ff.GEOMETRY.names) if name.startswith("h")]
    specialized = MultiPoly(ff.GEOMETRY, {
        m: c for m, c in num.terms.items()
        if not any(num.exponents(m)[i] for i in h_fields)
    })
    expected = MultiPoly.zero(ff.GEOMETRY)
    for i in range(1, 5):
        for j in range(i + 1, 5):
            expected = expected - ff.rsym(i, j)
    # The denominator is a product of gaps, free of every h symbol.
    assert not any(n.startswith("h") for n in engine.den_poly().symbols_used())
    assert specialized == expected * engine.den_poly()


def test_gamma_Li_all_minus_one_at_probe():
    gamma = idn.gamma_polynomial()
    gL = idn.gamma_L_polynomials()
    assert gamma.evaluate(PROBE) == 256
    for i in range(1, 5):
        assert gL[i].evaluate(PROBE) == -256
        assert gL[i].evaluate(PROBE) / gamma.evaluate(PROBE) == -1


def test_gamma_Li_negated_monomial_forms():
    """The certifier's cancellation-free gap form equals the printed products."""
    forms = idn.gamma_L_gap_form(ff.gap(2, 1), ff.gap(3, 2), ff.gap(4, 3))
    gL = idn.gamma_L_polynomials()
    for i in range(1, 5):
        assert forms[i - 1] == gL[i]


def test_contraction_identity_w1():
    rep = idn.verify_identity("w1_phi", "symbolic")
    assert rep.residual_is_zero


def test_gap_derivative_identity_g():
    rep = idn.verify_identity("dg_phi", "symbolic")
    assert rep.residual_is_zero
    assert "B1" in rep.extracted and "G3" in rep.extracted


def test_expanded_mode_single_identity():
    rep = idn.verify_identity("dtheta_34", "expanded")
    assert rep.residual_is_zero


def test_bounded_parts_have_no_vanishing_gap_denominators():
    # The named bounded remainders stay finite where the band's small gap
    # closes: evaluate G's of the g side at a point with lam2 = lam1.
    q = idn.gap_band_quantities("g")
    degenerate = {"l1": -1, "l2": -1, "l3": F(1, 2), "l4": F(3, 2)}
    for key in ("G1", "G2", "G3", "G4"):
        value(q[key], degenerate)  # must not raise ZeroDivisionError
    # And the f side where lam3 = lam2.
    qf = idn.gap_band_quantities("f")
    degenerate_f = {"l1": -F(3, 2), "l2": -F(1, 2), "l3": -F(1, 2), "l4": F(5, 2)}
    for key in ("G1", "G4"):
        value(qf[key], degenerate_f)


def test_unknown_identity_name_rejected():
    with pytest.raises(ValueError):
        idn.verify_identity("dtheta_99")
    with pytest.raises(ValueError):
        idn.verify_identity("dphi", mode="numeric")


@pytest.mark.parametrize("name", idn.DTHETA_NAMES + ("dphi",))
@pytest.mark.parametrize("mode", ff.MODES)
def test_substitution_expands_each_connection_form_once(monkeypatch, name, mode):
    # One check substitutes once, and that substitution builds each
    # generator's expansion at most once.
    built = []
    expand = ff.connection_form

    def spy(i, j):
        built.append((i, j))
        return expand(i, j)

    monkeypatch.setattr(ff, "connection_form", spy)
    assert idn.verify_identity(name, mode).residual_is_zero
    assert built and len(built) == len(set(built))
