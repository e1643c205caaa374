"""Exact algebra substrate: ring axioms, canonical forms, frozen values."""

import functools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isocert.exactalg import (
    MAX_EXPONENT,
    FactorBase,
    FactoredFn,
    MonomialOverflowError,
    MultiPoly,
    SymbolMismatchError,
    SymbolTable,
    divexact,
)
from isocert.identities import gamma_L_printed
from normal_form import value

T = SymbolTable.geometry()
L = {i: MultiPoly.var(T, f"l{i}") for i in range(1, 5)}
PROBE = {"l1": -3, "l2": -1, "l3": 1, "l4": 3}


def test_symbol_table_interning():
    assert SymbolTable.h_name(4, 1, 4) == "h144"
    assert SymbolTable.h_name(2, 1, 1) == "h112"
    assert SymbolTable.r_name(3, 1) == "R1313"
    assert len(T) == 4 + 20 + 6


def test_symbol_table_rejects_duplicates():
    with pytest.raises(ValueError):
        SymbolTable(["a", "a"])


def test_additive_inverse():
    p = L[1] + L[2]
    assert (p + (-p)).is_zero()
    assert (p - p).is_zero()


def test_difference_of_squares():
    assert (L[2] - L[1]) * (L[2] + L[1]) == L[2] ** 2 - L[1] ** 2


def test_gap_product_at_probe():
    prod = (L[4] - L[3]) * (L[4] - L[2]) * (L[4] - L[1])
    assert prod.evaluate(PROBE) == 48


def test_mismatched_tables_rejected():
    other = SymbolTable(["x", "y"])
    with pytest.raises(SymbolMismatchError):
        L[1] + MultiPoly.var(other, "x")


# Monic gap factors: l_i is more significant than l_j for i < j.
GAPS = FactorBase([L[1] - L[2], L[1] - L[3], L[2] - L[3]])


def test_ratfn_cancels_common_factor():
    # The expanded numerator hides the factor (l1 - l2); normalize finds it.
    r = FactoredFn(GAPS, L[1] ** 2 - L[2] ** 2, (1, 0, 0)).normalize()
    assert r.num == L[1] + L[2] and r.den == (0, 0, 0)
    assert r.den_poly() == MultiPoly.const(T, 1)


def test_ratfn_zero_numerator():
    r = FactoredFn(GAPS, MultiPoly(T), (0, 1, 2)).normalize()
    assert r.is_zero()
    assert r.den_poly() == MultiPoly.const(T, 1)
    assert r.num == MultiPoly(T) and r.den == GAPS.zero_den


def test_str_renders_num_over_den_poly():
    assert str(FactoredFn(GAPS, L[1] + L[2], (0, 0, 0))) == "l1 + l2"
    assert str(FactoredFn(GAPS, L[3], (1, 0, 0))) == "(l3) / (l1 - l2)"


def test_gamma_L1_over_gamma_at_probe():
    gamma = (L[2] - L[1]) ** 2 * (L[3] - L[1]) ** 2 * (L[3] - L[2]) ** 2
    gap = {(i, j): L[i] - L[j] for i in range(1, 5) for j in range(1, i)}
    gL1 = gamma_L_printed(*(gap[p] for p in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3))))[0]
    assert gL1.evaluate(PROBE) == -256
    assert gamma.evaluate(PROBE) == 256
    r = FactoredFn(GAPS, gL1, (2, 2, 2)).normalize()
    assert r.den_poly() == gamma
    assert value(r, PROBE) == -1


def test_evaluate_trace_and_square_sum():
    assert (L[1] + L[2] + L[3] + L[4]).evaluate(PROBE) == 0
    assert (L[1] ** 2 + L[2] ** 2 + L[3] ** 2 + L[4] ** 2).evaluate(PROBE) == 20


def test_evaluate_pole_names_denominator():
    r = FactoredFn(GAPS, MultiPoly.const(T, 1), (1, 0, 0)).normalize()
    with pytest.raises(ZeroDivisionError) as err:
        value(r, {"l1": 0, "l2": 0})
    assert "l1 - l2" in str(err.value)


def test_evaluate_unbound_symbol():
    with pytest.raises(KeyError):
        (L[1] + L[2]).evaluate({"l1": 1})


def test_divexact_round_trip():
    a = (L[1] + 2 * L[2]) * (L[3] - L[4]) ** 2
    b = L[3] - L[4]
    q = divexact(a, b)
    assert q is not None and q * b == a
    assert divexact(L[1] + 1, L[2]) is None


def test_ratfn_subtraction_cross_cancel():
    # (a/b) - (a/b) must be the canonical zero, denominator 1.
    r = FactoredFn(GAPS, L[1] ** 2 + L[2], (1, 0, 1))
    zero = (r - r).normalize()
    assert zero.num == MultiPoly(T) and zero.den == GAPS.zero_den


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        L[1] ** -1


# -- property tests -------------------------------------------------------------

_small_table = SymbolTable(["x", "y", "z"])
_vars = [MultiPoly.var(_small_table, n) for n in ("x", "y", "z")]


@st.composite
def small_polys(draw):
    n_terms = draw(st.integers(0, 4))
    p = MultiPoly(_small_table)
    for _ in range(n_terms):
        coeff = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        mono = MultiPoly.const(_small_table, coeff)
        for v in _vars:
            mono = mono * v ** draw(st.integers(0, 2))
        p = p + mono
    return p


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


_small_base = FactorBase([_vars[0] - _vars[1], _vars[0] + 1])
_exps = st.tuples(st.integers(0, 2), st.integers(0, 2))


@given(small_polys(), _exps, _exps)
@settings(max_examples=40, deadline=None)
def test_canonical_form_of_quotients(p, den, extra):
    # Multiplying through by common base factors leaves one normal form.
    padded = FactoredFn(_small_base, p * _small_base.factor_power(extra),
                        tuple(d + e for d, e in zip(den, extra)))
    got, want = padded.normalize(), FactoredFn(_small_base, p, den).normalize()
    assert (got.num, got.den) == (want.num, want.den)


@given(small_polys(), small_polys(),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)))
@settings(max_examples=60, deadline=None)
def test_evaluate_is_a_homomorphism(a, b, pt):
    point = dict(zip(("x", "y", "z"), pt))
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
    assert (a / 3).evaluate(point) == a.evaluate(point) / 3


# -- factored-denominator pipeline ---------------------------------------------

def _same_quotient(r, num, den):
    """r == num / den as rational functions, decided by cross-multiplication."""
    return r.num * den == num * r.den_poly()


def test_factored_fn_matches_ratfn():
    base = FactorBase([L[1] - L[2], L[2] - L[3]])
    x = FactoredFn(base, L[1] + L[2], (1, 0))
    y = FactoredFn(base, L[3] ** 2, (0, 2))
    total = (x + y).normalize()
    num = (L[1] + L[2]) * (L[2] - L[3]) ** 2 + L[3] ** 2 * (L[1] - L[2])
    assert _same_quotient(total, num, (L[1] - L[2]) * (L[2] - L[3]) ** 2)


def test_factored_fn_normalizes_removable_factors():
    base = FactorBase([L[1] - L[2]])
    v = FactoredFn(base, (L[1] - L[2]) ** 2 * L[3], (1,))
    r = v.normalize()
    assert r.num == (L[1] - L[2]) * L[3] and r.den == (0,)


@given(small_polys(), small_polys(), _exps, _exps)
@settings(max_examples=30, deadline=None)
def test_factored_fn_field_ops_match_ratfn(p, q, ea, eb):
    # Layered denominators: each base factor up to the second power.
    x, y = _vars[0], _vars[1]
    (e1, e2), (f1, f2) = ea, eb
    a = FactoredFn(_small_base, p, ea)
    b = FactoredFn(_small_base, q, eb)
    den_a = (x - y) ** e1 * (x + 1) ** e2
    den_b = (x - y) ** f1 * (x + 1) ** f2
    for r, num in (((a + b).normalize(), p * den_b + q * den_a),
                   ((a * b).normalize(), p * q),
                   ((a - b).normalize(), p * den_b - q * den_a)):
        assert _same_quotient(r, num, den_a * den_b)
        # Normal form: monic denominator, no base factor left on both sides.
        assert r.den_poly().leading()[1] == 1
        for f in _small_base.factors:
            if divexact(r.den_poly(), f) is not None:
                assert divexact(r.num, f) is None


# -- coefficient types and packed monomials -------------------------------------
#
# The references below are written independently of the engine: tuple-keyed
# exponent vectors and Fraction-only coefficients.

def _ref(p):
    """Tuple-keyed, Fraction-valued copy of p."""
    return {p.exponents(m): Fraction(c) for m, c in p.terms.items()}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def _ref_div(a, b):
    """Exact quotient by leading-term elimination in graded lex order, or None."""
    order = lambda e: (sum(e), e)  # noqa: E731
    lead = max(b, key=order)
    rem, q = dict(a), {}
    while rem:
        m = max(rem, key=order)
        d = tuple(x - y for x, y in zip(m, lead))
        if min(d) < 0:
            return None
        c = rem[m] / b[lead]
        q[d] = c
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(d, eb))
            v = rem.get(e, Fraction(0)) - c * cb
            if v:
                rem[e] = v
            else:
                rem.pop(e, None)
    return q


def _exact_types(p):
    return all(type(c) is int or type(c) is Fraction for c in p.terms.values())


_scalars = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
)


def _mono(exps):
    """The packed monomial x^a*y^b*z^c, built through the public API."""
    m = MultiPoly.const(_small_table, 1)
    for v, e in zip(_vars, exps):
        m = m * v ** e
    return m.leading()[0]


@st.composite
def typed_polys(draw, exps=st.integers(0, 3), max_terms=4, int_only=False):
    coeffs = st.integers(-6, 6) if int_only else _scalars
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        c = draw(coeffs)
        if c:
            terms[_mono([draw(exps) for _ in range(3)])] = c
    return MultiPoly(_small_table, terms)


@given(typed_polys(), typed_polys(), _scalars.filter(bool))
@settings(max_examples=80, deadline=None)
def test_coefficients_stay_exact(a, b, s):
    ra, rb = _ref(a), _ref(b)
    assert _exact_types(a + b) and _ref(a + b) == _ref_add(ra, rb)
    assert _exact_types(a - b) and _ref(a - b) == _ref_add(ra, rb, -1)
    assert _exact_types(a * b) and _ref(a * b) == _ref_mul(ra, rb)
    assert _exact_types(a / s) and _ref(a / s) == {e: c / s for e, c in ra.items()}
    if not b.is_zero():
        # A non-unit leading coefficient takes the Fraction route in divexact.
        lead_m, lead_c = b.leading()
        if lead_c in (1, -1):
            b = b * 3
            rb = _ref(b)
        prod = a * b
        q = divexact(prod, b)
        assert q is not None and _exact_types(q) and _ref(q) == ra


@given(typed_polys(int_only=True), typed_polys(int_only=True))
@settings(max_examples=40, deadline=None)
def test_integer_coefficients_stay_int(a, b):
    # Integral scalar products are ints too: (12 a) / 4 and (a / 2) * 4.
    for p in (a + b, a - b, a * b, -a, a * 7, (a * 12) / 4, (a / 2) * 4, (a * 6) * Fraction(1, 3)):
        assert all(type(c) is int for c in p.terms.values())


def test_monomial_order_is_graded_lex():
    # Total degree first, then exponents from the first symbol on.
    x, y, z = _vars
    p = z ** 3 + x * y + y ** 2 + x ** 2 + x * z + 1
    assert str(p) == "z^3 + x^2 + x*y + x*z + y^2 + 1"
    assert p.leading() == (_mono([0, 0, 3]), 1)


# Exponents near the 127 limit, so sums overflow often.
_high_exps = st.one_of(st.integers(0, 3), st.integers(60, MAX_EXPONENT))


@given(typed_polys(_high_exps, 3), typed_polys(_high_exps, 3))
@settings(max_examples=150, deadline=None)
def test_packed_multiply_matches_tuple_reference(a, b):
    ref = _ref_mul(_ref(a), _ref(b))
    if any(e > MAX_EXPONENT for mono in ref for e in mono):
        with pytest.raises(MonomialOverflowError):
            a * b
    else:
        assert _ref(a * b) == ref


@given(typed_polys(_high_exps, 3), typed_polys(_high_exps, 3),
       typed_polys(st.one_of(st.integers(0, 3), st.integers(40, 63)), 3),
       typed_polys(st.one_of(st.integers(0, 3), st.integers(40, 63)), 3))
@settings(max_examples=150, deadline=None)
def test_packed_divide_matches_tuple_reference(a, b, q, d):
    # Random pairs (mostly not divisible) and exact products q*d.
    for num, den in ((a, b), (q * d, d)):
        if den.is_zero():
            continue
        expected = _ref_div(_ref(num), _ref(den))
        got = divexact(num, den)
        assert (None if got is None else _ref(got)) == expected


def test_exponent_overflow_raises():
    x, y, _ = _vars
    with pytest.raises(MonomialOverflowError):
        x ** 100 * x ** 28
    with pytest.raises(MonomialOverflowError):
        (x ** 64 + y) * (x ** 64 - y)
    with pytest.raises(MonomialOverflowError):
        x ** (MAX_EXPONENT + 1)
    [m] = (x ** 100 * x ** 27).terms
    assert x.exponents(m)[0] == MAX_EXPONENT
    # The overflowing partial product x^127 * x^2 proves non-divisibility.
    assert divexact(x ** 126 * y ** 3, y ** 3 + x ** 2) is None


def _loop_mul(a, b):
    """The general product loop of MultiPoly.__mul__, smaller operand outside."""
    a_terms, b_terms = a.terms, b.terms
    if len(a_terms) > len(b_terms):
        a_terms, b_terms = b_terms, a_terms
    out = {}
    for m1, c1 in a_terms.items():
        for m2, c2 in b_terms.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return [(m, c) for m, c in out.items() if c]


def _typed_items(p):
    return [(m, c, type(c)) for m, c in p.terms.items()]


@given(typed_polys())
@settings(max_examples=80, deadline=None)
def test_product_by_int_one_matches_the_loop(p):
    # The int constant 1 returns the other operand's terms: the loop's order,
    # values and coefficient types, in a dict of its own.
    one = MultiPoly.const(_small_table, 1)
    before = dict(p.terms)
    for prod in (p * one, one * p):
        expected = _loop_mul(p, one)
        assert _typed_items(prod) == [(m, c, type(c)) for m, c in expected]
        assert all(prod.terms[m] is c for m, c in p.terms.items())   # no product taken
        assert prod.terms is not p.terms and prod.terms is not one.terms
        prod.terms[0] = 99
    assert p.terms == before and one.terms == {0: 1}


@given(typed_polys())
@settings(max_examples=60, deadline=None)
def test_product_by_fraction_one_takes_the_loop(p):
    # Fraction(1) * c is a Fraction for an int c, so this constant must not
    # take the int-one shortcut.
    one = MultiPoly.const(_small_table, Fraction(1))
    assert type(one.terms[0]) is Fraction
    for prod in (p * one, one * p):
        assert _typed_items(prod) == [(m, c, type(c)) for m, c in _loop_mul(p, one)]


@given(typed_polys(), typed_polys(max_terms=1))
@settings(max_examples=80, deadline=None)
def test_product_by_one_term_matches_the_loop(p, t):
    # A one-term operand takes one dict comprehension in place of the loop.
    for prod in (p * t, t * p):
        assert _typed_items(prod) == [(m, c, type(c)) for m, c in _loop_mul(p, t)]


_x, _y, _z = _vars
_SMALL_GAPS = FactorBase([_x - _y, _x - _z, _y - _z])
_dens = st.tuples(*[st.integers(0, 2)] * 3)


def _lifted_sum(fns) -> FactoredFn:
    """The sum of fns at the MultiPoly level: every numerator term lifted to the
    common denominator by its `factor_power` cofactor and added, in order,
    with `MultiPoly.__add__`.

    Lifting term by term adds the products in the order the sum does, so
    the coefficient types agree too: where a running sum vanishes part way,
    an integral coefficient is an int or a Fraction by the terms added
    after that.
    """
    fns = list(fns)
    den = functools.reduce(lambda x, y: tuple(map(max, x, y)), (f.den for f in fns), _SMALL_GAPS.zero_den)
    total = MultiPoly(_small_table)
    for f in fns:
        cofactor = _SMALL_GAPS.factor_power(tuple(c - e for e, c in zip(f.den, den)))
        for m, c in f.num.terms.items():
            total = total + MultiPoly(_small_table, {m: c}) * cofactor
    return FactoredFn(_SMALL_GAPS, total, den)


def _sorted_typed(f: FactoredFn) -> tuple[list, tuple[int, ...]]:
    return sorted(_typed_items(f.num)), f.den


@given(typed_polys(), typed_polys(), _dens, _dens)
@settings(max_examples=100, deadline=None)
def test_factored_sum_over_equal_or_one_sided_denominators_matches_the_lifted_sum(p, q, d, e):
    # Equal denominators, and one side's dividing the other's, in both
    # orders: the same monomials, values and coefficient types as the
    # MultiPoly-level sum, over the same denominator.
    below = tuple(min(x, y) for x, y in zip(d, e))
    for da, db in ((d, d), (d, below), (below, d)):
        a, b = FactoredFn(_SMALL_GAPS, p, da), FactoredFn(_SMALL_GAPS, q, db)
        assert _sorted_typed(a + b) == _sorted_typed(_lifted_sum([a, b]))
    # A unit numerator leaves the other factor's numerator as it is.
    f, unit = FactoredFn(_SMALL_GAPS, p, d), FactoredFn(_SMALL_GAPS, MultiPoly.const(_small_table, 1), e)
    for prod in (unit * f, f * unit):
        assert _typed_items(prod.num) == [(m, c, type(c)) for m, c in _loop_mul(p, unit.num)]


@st.composite
def _factored_pieces(draw):
    """Up to five pieces, some of them zero, and the negations of some of them."""
    pieces = [FactoredFn(_SMALL_GAPS, p, d) for p, d in draw(st.lists(st.tuples(typed_polys(), _dens), max_size=5))]
    return pieces + [-f for f in pieces if draw(st.booleans())]


@given(_factored_pieces())
@settings(max_examples=100, deadline=None)
def test_sum_over_one_denominator_matches_chained_addition(fns):
    got, want = _SMALL_GAPS.sum(fns).normalize(), _lifted_sum(fns).normalize()
    assert (got.num, got.den) == (want.num, want.den)


@given(st.lists(typed_polys(), max_size=5), _dens)
@settings(max_examples=80, deadline=None)
def test_sum_over_equal_denominators_adds_the_numerators_as_chained_addition_does(nums, d):
    # Nothing is lifted: the terms, their order and their types are those
    # of the chain of MultiPoly.__add__, zero numerators included.
    fns = [FactoredFn(_SMALL_GAPS, p, d) for p in nums]
    got = _SMALL_GAPS.sum(fns)
    want = FactoredFn(_SMALL_GAPS, functools.reduce(operator.add, nums, MultiPoly(_small_table)), d)
    assert (_typed_items(got.num), got.den) == (_typed_items(want.num), want.den)


def test_sum_of_nothing_and_of_cancelling_pieces_is_zero():
    assert _SMALL_GAPS.sum([]).is_zero()
    f = FactoredFn(_SMALL_GAPS, _x * _y + 3, (1, 0, 2))
    g = FactoredFn(_SMALL_GAPS, _z, (0, 2, 0))
    total = _SMALL_GAPS.sum([f, g, -f, _SMALL_GAPS.sum([]), -g])
    assert total.is_zero() and total.den == _SMALL_GAPS.zero_den


def test_sum_raises_where_a_lift_overflows_an_exponent():
    # x^127 lifted by (x - y) needs x^128, in the sum, in its MultiPoly-level
    # reference and in a + b.
    fns = [FactoredFn(_SMALL_GAPS, _x ** MAX_EXPONENT, (0, 0, 0)),
           FactoredFn(_SMALL_GAPS, _z, (1, 0, 0))]
    for add in (_SMALL_GAPS.sum, _lifted_sum, lambda fns: fns[0] + fns[1]):
        with pytest.raises(MonomialOverflowError):
            add(fns)
