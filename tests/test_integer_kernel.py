"""The integer kernel of `upoly` and `configsolve`'s integer intervals against
the Fraction kernel they replaced (`fraction_reference`).

Values, signs, interval enclosures, root counts and isolating intervals
must be the same rationals; Sturm chain members, gcds and squarefree
factors may differ from the Euclidean ones only by a positive factor.
"""

from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

import fraction_reference as ref
from isocert import configsolve as cs
from isocert import upoly as up
from isocert.algebraic import AlgebraicNumber, QuadExt

_BIG = 10**30

# Rationals with small, large and huge numerators and denominators.
_RATIONALS = (st.integers(-50, 50).map(F)
              | st.fractions(min_value=-100, max_value=100, max_denominator=1000)
              | st.builds(F, st.integers(-_BIG**2, _BIG**2), st.integers(1, _BIG)))
_NONZERO = _RATIONALS.filter(bool)


def _poly(coeffs, lead):
    return ref.upoly([*coeffs, lead])


# Any leading sign, any size; degree 0 to 6.
_POLYS = st.builds(_poly, st.lists(_RATIONALS, max_size=6), _NONZERO)

# Products of simple factors with multiplicities 1-3, times a constant of
# either sign: repeated factors, and roots that are (often dyadic) rationals.
_ROOTS = (st.builds(lambda k, j: F(k, 2**j), st.integers(-64, 64), st.integers(0, 6))
          | st.fractions(min_value=-10, max_value=10, max_denominator=10**12))
_FACTOR = (_ROOTS.map(lambda r: ref.upoly([-r, 1]))
           | st.sampled_from([ref.upoly([-2, 0, 1]), ref.upoly([1, 0, 1]), ref.upoly([-3, 1, 1])]))
_FACTORED = st.builds(
    lambda parts, c: _product([f for f, m in parts for _ in range(m)], c),
    st.lists(st.tuples(_FACTOR, st.integers(1, 3)), min_size=1, max_size=3), _NONZERO)


def _product(factors, c):
    p = ref.upoly([c])
    for f in factors:
        p = ref.mul(p, f)
    return p


def _positive_multiple(q: up.UPoly, p_ref) -> bool:
    """q = c * p_ref for some rational c > 0."""
    coeffs = list(q)
    if len(coeffs) != len(p_ref):
        return False
    if not coeffs:
        return True
    c = coeffs[-1] / p_ref[-1]
    return c > 0 and all(a == c * b for a, b in zip(coeffs, p_ref))


def _sign(v) -> int:
    return (v > 0) - (v < 0)


@settings(max_examples=100, deadline=None)
@given(_POLYS | _FACTORED, _RATIONALS)
@example(ref.upoly([-2, 0, 1]), F(3, 2))
@example(ref.upoly([F(1, 3), -1]), F(1, 3))                     # x is the root
@example(_product([ref.upoly([-F(1, 7), 1])] * 3, F(-5, _BIG)), F(1, 7))
def test_values_and_signs_match_fraction_horner(p, x):
    P = up.upoly(p)
    assert list(P) == list(p)
    expect = ref.evaluate(p, x)
    h = up.homogeneous_value(P, x.numerator, x.denominator)
    assert F(h, P.den * x.denominator ** max(up.degree(P), 0)) == expect
    assert up.sign_at(P, x) == _sign(expect)


_INTERVALS = st.tuples(_RATIONALS, _RATIONALS).map(lambda t: ref.RatInterval(min(t), max(t)))
# Integer intervals need not be in lowest terms: each is drawn at a scale.
_SCALES = st.integers(1, 10**6)
_PRECISIONS = (st.fractions(min_value=F(1, 10**15), max_value=1, max_denominator=10**15)
               | st.fractions(min_value=1, max_value=10**7, max_denominator=100))
_QUADS = st.builds(QuadExt.make, _RATIONALS, st.fractions(-5, 5, max_denominator=100),
                   st.sampled_from([2, 3, F(5, 4)]))


def _integer(iv: ref.RatInterval, k: int = 1) -> cs.RatInterval:
    """The same interval as integers over k times the lcm of its denominators."""
    (a, b), d = up.over_common_denominator((iv.lo, iv.hi))
    return cs.RatInterval(a * k, b * k, d * k)


def _same(got: cs.RatInterval, expect: ref.RatInterval) -> bool:
    return (got.lo, got.hi) == (expect.lo, expect.hi)


@settings(max_examples=60, deadline=None)
@given(_INTERVALS, _INTERVALS, _SCALES, _SCALES, _PRECISIONS, _RATIONALS | _QUADS)
@example(ref.RatInterval(F(-1, 3), F(1, 6)), ref.RatInterval(-2, F(-1, 7)), 6, 1, F(1, 2), F(1, 6))
@example(ref.RatInterval(0, F(1, 2)), ref.RatInterval(F(1, 7)), 4, 3, F(1, 2), QuadExt.make(0, F(1, 4), 2))
def test_integer_intervals_match_fraction_intervals(x, y, k, j, eps, point):
    # Sums, products, width tests and containment (of a rational or a
    # QuadExt, endpoints included) are those of Fraction intervals.
    X, Y = _integer(x, k), _integer(y, j)
    assert _same(X, x) and _same(X + Y, x + y) and _same(X * Y, x * y)
    assert X.width_at_most(eps) == (x.width() <= eps)
    assert X.contains(point) == x.contains(point)
    assert X.contains(x.lo) and X.contains(x.hi)


@settings(max_examples=100, deadline=None)
@given(_POLYS | _FACTORED, _INTERVALS, _SCALES)
@example(ref.upoly([0, 0, 1]), ref.RatInterval(-1, 1), 1)                  # x^2 across 0
@example(ref.upoly([-1, 0, 0, 1]), ref.RatInterval(1, 1), 3)               # a point box on a root
def test_interval_horner_matches_ratinterval_horner(p, box, k):
    got = cs.eval_on_interval(up.upoly(p), _integer(box, k))
    assert _same(got, ref.eval_on_interval(p, box))


@settings(max_examples=40, deadline=None)
@given(_POLYS, _POLYS, _INTERVALS, _INTERVALS, _SCALES, _SCALES)
@example(ref.upoly([0, 1]), ref.upoly([]), ref.RatInterval(F(1, 3), F(1, 2)), ref.RatInterval(0), 1, 1)
def test_member_enclosure_matches_fraction_intervals(p, q, box, root, k, j):
    got = cs._Member(up.upoly(p), up.upoly(q)).enclosure(_integer(box, k), _integer(root, j))
    expect = ref.eval_on_interval(p, box)
    if q:
        expect = expect + ref.eval_on_interval(q, box) * root
    assert _same(got, expect)


@settings(max_examples=60, deadline=None)
@given(_INTERVALS, _SCALES, _PRECISIONS)
@example(ref.RatInterval(-3, 0), 5, F(1, 7))                 # clamped to [0, 0]
@example(ref.RatInterval(F(-1, 2), F(9, 4)), 2, F(1, 10**9))  # lo clamped, hi a square
def test_sqrt_enclosure_matches_fraction_bounds(box, k, eps):
    assert _same(cs.sqrt_enclosure(_integer(box, k), eps), ref.sqrt_enclosure(box, eps))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_INTERVALS, _SCALES), min_size=1, max_size=4))
@example([(ref.RatInterval(F(-1, 3), F(1, 2)), 1), (ref.RatInterval(-2, F(-1, 7)), 9),
          (ref.RatInterval(0, F(5, 3)), 2), (ref.RatInterval(F(-5, 4), F(1, 10**20)), 1)])
def test_power_sums_match_ratinterval_powers(lams):
    # Intervals below 0, above 0 and across it, for odd and even powers.
    got = cs._power_sums([_integer(lam, k) for lam, k in lams])
    expect = ref.power_sums([lam for lam, _ in lams])
    assert all(_same(got[key], v) for key, v in expect.items()) and got.keys() == expect.keys()


@settings(max_examples=40, deadline=None)
@given(_FACTORED | _POLYS, st.sampled_from([F(1, 2), F(1, 64), F(1, 3**9)]),
       st.sampled_from([F(1, 2**30), F(1, 10**12)]))
@example(ref.upoly([0, 1]), F(1, 64), F(1, 2**30))                # the root is the first midpoint
@example(_product([ref.upoly([-F(1, 2), 1]), ref.upoly([-F(3, 8), 1])], F(-1)), F(1, 3**9), F(1, 10**12))
def test_isolation_and_refinement_endpoints_match(p, eps, fine):
    sf = ref.squarefree_part(p)
    if ref.degree(sf) < 1:
        return
    P = up.upoly(sf)
    got = up.isolate_squarefree(P, eps)
    assert got == ref.isolate_squarefree(sf, eps)
    assert [up.refine(P, iv, fine) for iv in got] == [ref.refine(sf, iv, fine) for iv in got]


def test_refinement_nudges_off_a_root_midpoint_like_fraction_bisection():
    # 1/2 is the first midpoint of [0, 1]; 3/8 is the second one of [0, 1/2].
    for root, iv in ((F(1, 2), (F(0), F(1))), (F(3, 8), (F(0), F(1, 2)))):
        p = _product([ref.upoly([-root, 1]), ref.upoly([-2, 0, 1])], F(-3))
        assert up.refine(up.upoly(p), iv, F(1, 10**9)) == ref.refine(p, iv, F(1, 10**9))


@settings(max_examples=80, deadline=None)
@given(_POLYS | _FACTORED, _RATIONALS, _RATIONALS, st.builds(F, st.integers(1, _BIG), st.integers(1, _BIG)))
def test_sturm_chains_and_counts_match(p, a, b, c):
    P = up.upoly(p)
    chain, expect = up.sturm_chain(P), ref.sturm_chain(p)
    assert len(chain) == len(expect)
    assert all(_positive_multiple(m, e) for m, e in zip(chain, expect))
    a, b = min(a, b), max(a, b)
    if ref.evaluate(p, a) and ref.evaluate(p, b):
        count = ref.sturm_count(expect, a, b)
        assert up.sturm_count(chain, a, b) == count
        # A positive multiple has the same chain signs, so the same count.
        assert up.sturm_count(up.sturm_chain(up.scale(P, c)), a, b) == count


@settings(max_examples=80, deadline=None)
@given(_FACTORED | _POLYS, _FACTORED | _POLYS)
@example(ref.upoly([-1, 1]), ref.upoly([]))
@example(ref.upoly([1, -2, 1]), ref.upoly([-1, 0, 1]))           # (x-1)^2 and x^2 - 1
def test_gcd_and_squarefree_factors_match(p, q):
    g = up.gcd(up.upoly(p), up.upoly(q))
    assert _positive_multiple(g, ref.gcd(p, q))
    assert g == up.gcd(up.upoly(q), up.upoly(p))
    assert _positive_multiple(up.squarefree_part(up.upoly(p)), ref.squarefree_part(p))
    got = up.squarefree_decomposition(up.upoly(p))
    expect = ref.squarefree_decomposition(p)
    assert [m for m, _ in got] == [m for m, _ in expect]
    assert all(_positive_multiple(f, e) for (_, f), (_, e) in zip(got, expect))


def _ref_root_in_closed(g, lo, hi) -> bool:
    """The Fraction kernel's test: does g have a root in [lo, hi]?"""
    if ref.evaluate(g, lo) == 0 or ref.evaluate(g, hi) == 0:
        return True
    return lo < hi and ref.sturm_count(ref.sturm_chain(ref.squarefree_part(g)), lo, hi) > 0


@settings(max_examples=50, deadline=None)
@given(_FACTORED, _FACTORED)
@example(ref.upoly([-2, 0, 1]), ref.upoly([2, 0, -1]))
@example(_product([ref.upoly([-1, 1])] * 2 + [ref.upoly([1, 1])], F(-1)), ref.upoly([1, 1]))
def test_gcd_zero_decisions_match(p, q):
    # Each isolating interval holds one root of p, so q vanishes there
    # exactly when gcd(p, q) has a root in it.
    g = ref.gcd(p, q)
    for lo, hi, _m, chain in up.isolate_with_multiplicity(up.upoly(p), F(1, 2**10)):
        root = AlgebraicNumber(chain[0], lo, hi, chain)
        vanishes = ref.degree(g) > 0 and _ref_root_in_closed(g, lo, hi)
        assert (root.sign_of(up.upoly(q)) == 0) == vanishes


@settings(max_examples=50, deadline=None)
@given(_FACTORED | _POLYS, st.sampled_from([F(1, 2), F(1, 64), F(1, 2**20)]),
       st.builds(F, st.integers(1, _BIG), st.integers(1, _BIG)))
@example(ref.upoly([-2, 0, 1]), F(1, 2**20), F(1))
@example(_product([ref.upoly([0, 1]), ref.upoly([-F(1, 128), 1])] * 2, F(-3)), F(1, 4), F(7, _BIG))
def test_isolation_with_multiplicity_matches(p, eps, c):
    if ref.degree(p) < 1:
        return
    got = up.isolate_with_multiplicity(up.upoly(p), eps)
    expect = ref.isolate_with_multiplicity(p, eps)
    assert [r[:3] for r in got] == [r[:3] for r in expect]
    for (*_, chain), (*_, ref_chain) in zip(got, expect):
        assert all(_positive_multiple(m, e) for m, e in zip(chain, ref_chain))
    # The intervals depend on signs and on the ratio-only root bound alone,
    # so a positive multiple of p isolates the same way.
    scaled = up.isolate_with_multiplicity(up.scale(up.upoly(p), c), eps)
    assert [r[:3] for r in scaled] == [r[:3] for r in got]
