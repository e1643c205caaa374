"""Exact algebra substrate: ring axioms, canonical forms, frozen values."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isocert.exactalg import (
    MAX_EXPONENT,
    FactorBase,
    FactoredFn,
    MonomialOverflowError,
    MultiPoly,
    PoleError,
    RatFn,
    SymbolMismatchError,
    SymbolTable,
    divexact,
)

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
    # The expanded numerator hides the factor (l1 - l2); to_ratfn finds it.
    r = FactoredFn(GAPS, L[1] ** 2 - L[2] ** 2, (1, 0, 0)).to_ratfn()
    assert r == RatFn.from_poly(L[1] + L[2])
    assert r.is_poly()


def test_ratfn_zero_numerator():
    r = FactoredFn(GAPS, MultiPoly.zero(T), (0, 1, 2)).to_ratfn()
    assert r.is_zero()
    assert r.den == MultiPoly.const(T, 1)
    assert r == RatFn.zero(T)


def test_gamma_L1_over_gamma_at_probe():
    gamma = (L[2] - L[1]) ** 2 * (L[3] - L[1]) ** 2 * (L[3] - L[2]) ** 2
    gL1 = (L[4] - L[3]) * ((L[3] - L[1]) ** 2 * (L[3] - L[2]) - (L[4] - L[2]) * (L[4] - L[1]) ** 2) \
        - (L[4] - L[2]) * (L[3] - L[2]) * (L[2] - L[1]) ** 2
    assert gL1.evaluate(PROBE) == -256
    assert gamma.evaluate(PROBE) == 256
    r = FactoredFn(GAPS, gL1, (2, 2, 2)).to_ratfn()
    assert r.den == gamma
    assert r.evaluate(PROBE) == -1


def test_evaluate_trace_and_square_sum():
    assert (L[1] + L[2] + L[3] + L[4]).evaluate(PROBE) == 0
    assert (L[1] ** 2 + L[2] ** 2 + L[3] ** 2 + L[4] ** 2).evaluate(PROBE) == 20


def test_evaluate_pole_names_denominator():
    r = FactoredFn(GAPS, MultiPoly.const(T, 1), (1, 0, 0)).to_ratfn()
    with pytest.raises(PoleError) as err:
        r.evaluate({"l1": 0, "l2": 0})
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
    assert (r - r).to_ratfn() == RatFn.zero(T)


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        L[1] ** -1


# -- property tests -------------------------------------------------------------

_small_table = SymbolTable(["x", "y", "z"])
_vars = [MultiPoly.var(_small_table, n) for n in ("x", "y", "z")]


@st.composite
def small_polys(draw):
    n_terms = draw(st.integers(0, 4))
    p = MultiPoly.zero(_small_table)
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
    assert padded.to_ratfn() == FactoredFn(_small_base, p, den).to_ratfn()


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
    return r.num * den == num * r.den


def test_factored_fn_matches_ratfn():
    base = FactorBase([L[1] - L[2], L[2] - L[3]])
    x = FactoredFn(base, L[1] + L[2], (1, 0))
    y = FactoredFn(base, L[3] ** 2, (0, 2))
    total = (x + y).to_ratfn()
    num = (L[1] + L[2]) * (L[2] - L[3]) ** 2 + L[3] ** 2 * (L[1] - L[2])
    assert _same_quotient(total, num, (L[1] - L[2]) * (L[2] - L[3]) ** 2)


def test_factored_fn_normalizes_removable_factors():
    base = FactorBase([L[1] - L[2]])
    v = FactoredFn(base, (L[1] - L[2]) ** 2 * L[3], (1,))
    r = v.to_ratfn()
    assert r == RatFn.from_poly((L[1] - L[2]) * L[3])


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
    for r, num in (((a + b).to_ratfn(), p * den_b + q * den_a),
                   ((a * b).to_ratfn(), p * q),
                   ((a - b).to_ratfn(), p * den_b - q * den_a)):
        assert _same_quotient(r, num, den_a * den_b)
        # Normal form: monic denominator, no base factor left on both sides.
        assert r.den.leading()[1] == 1
        for f in _small_base.factors:
            if divexact(r.den, f) is not None:
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
    for p in (a + b, a - b, a * b, -a, a * 7):
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
    assert (x ** 100 * x ** 27).degree_in("x") == MAX_EXPONENT
    # The overflowing partial product x^127 * x^2 proves non-divisibility.
    assert divexact(x ** 126 * y ** 3, y ** 3 + x ** 2) is None
