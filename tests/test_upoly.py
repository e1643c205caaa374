"""Univariate layer: Sturm isolation, multiplicities, refinement."""

import itertools
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import fraction_reference as ref
from isocert import upoly as up
from isocert.algebraic import (AlgebraicNumber, QuadExt, cubic_bound_sign, power_sums, quad_sign,
                               sqrt_enclosure)


def test_isolate_sqrt_two():
    p = up.upoly([-2, 0, 1])
    roots = up.isolate_squarefree(p, F(1, 10**6))
    assert len(roots) == 2
    for (lo, hi), sign in zip(roots, (-1, 1)):
        assert hi - lo <= F(1, 10**6)
        target = F(1414213562373, 10**12) * sign  # sqrt(2) to 1e-12
        assert lo <= target <= hi or abs(float(lo) - sign * 2**0.5) < 1e-6


def test_no_real_roots():
    assert up.isolate_squarefree(up.upoly([1, 0, 0, 0, 1]), F(1, 100)) == []


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        up.isolate_squarefree(up.upoly([]), F(1, 10))
    with pytest.raises(ValueError):
        up.isolate_with_multiplicity(up.upoly([]), F(1, 10))


def test_multiplicity_via_squarefree_decomposition():
    # (x - 1)^2 (x + 1)
    p = up.mul(up.mul(up.upoly([-1, 1]), up.upoly([-1, 1])), up.upoly([1, 1]))
    roots = up.isolate_with_multiplicity(p, F(1, 1000))
    assert [m for _, m, _ in roots] == [1, 2]
    ((lo1, hi1), _, _), ((lo2, hi2), _, _) = roots
    assert lo1 <= -1 <= hi1
    assert lo2 <= 1 <= hi2
    assert hi1 < lo2  # pairwise disjoint


def test_isolating_intervals_disjoint_for_close_roots():
    # roots at 0 and 1/128
    p = up.mul(up.upoly([0, 1]), up.upoly([-F(1, 128), 1]))
    roots = up.isolate_squarefree(p, F(1, 4))
    assert len(roots) == 2
    assert roots[0].hi < roots[1].lo


def _nudge(p, x, step):
    """Move x by step until it is not a root of p."""
    while up.homogeneous_value(p, x.numerator, x.denominator) == 0:
        x += step
    return x


def _isolate_by_sturm_counts(p, eps):
    """Reference: isolate_squarefree with a Sturm count at every bisection."""
    chain = up.sturm_chain(p)
    bound = up.root_bound(p)
    lo = _nudge(p, -bound, F(-1, 7))
    hi = _nudge(p, bound, F(1, 7))
    out, stack = [], [(lo, hi, up.sturm_count(chain, up.RatInterval.of(lo, hi)))]
    while stack:
        a, b, n = stack.pop()
        if n == 0:
            continue
        if n == 1 and b - a <= eps:
            out.append((a, b))
            continue
        mid = _nudge(p, (a + b) / 2, (b - a) / 1024)
        n_left = up.sturm_count(chain, up.RatInterval.of(a, mid))
        stack += [(a, mid, n_left), (mid, b, n - n_left)]
    out.sort()
    for i in range(len(out) - 1):
        while out[i][1] >= out[i + 1][0]:
            out[i] = tuple(up.refine(p, up.RatInterval.of(*out[i]), (out[i][1] - out[i][0]) / 4))
            out[i + 1] = tuple(up.refine(p, up.RatInterval.of(*out[i + 1]),
                                         (out[i + 1][1] - out[i + 1][0]) / 4))
    return out


_DYADIC_ROOTS = st.lists(st.builds(lambda k, j: F(k, 2**j), st.integers(-64, 64), st.integers(0, 6)),
                         min_size=1, max_size=5, unique=True)


@given(_DYADIC_ROOTS, st.booleans(), st.sampled_from([F(1, 2), F(1, 64), F(1, 2**20)]))
@example([F(0), F(1, 128)], False, F(1, 4))
@example([F(0)], False, F(1, 64))        # the lone root is the first midpoint
@example([F(1)], False, F(1, 64))        # and the second one: B = 2
@example([F(-1), F(1, 2), F(3, 4)], True, F(1, 2**20))
def test_isolation_matches_all_sturm_bisection(roots, with_sqrt2, eps):
    # Dyadic roots can land on bisection midpoints, where the nudge must
    # move mid the same way whichever test splits the interval.
    p = up.upoly([1])
    for r in roots:
        p = up.mul(p, up.upoly([-r, 1]))
    if with_sqrt2:
        p = up.mul(p, up.upoly([-2, 0, 1]))
    expected = _isolate_by_sturm_counts(p, eps)
    # A few sign evaluations per bisection; a miscounted interval would bisect forever.
    steps = itertools.count()
    value = up.homogeneous_value

    def bounded(*args):
        assert next(steps) < 200_000, "bisection does not end"
        return value(*args)

    with mock.patch.object(up, "homogeneous_value", bounded):
        got = up.isolate_squarefree(p, eps)
    assert [tuple(box) for box in got] == expected
    assert len(got) == len(roots) + 2 * with_sqrt2


def test_refine_to_tolerance():
    p = up.upoly([-2, 0, 1])
    box = up.isolate_squarefree(p, F(1, 4))[1]
    lo, hi = up.refine(p, box, F(1, 10**14))
    assert hi - lo <= F(1, 10**14)
    assert lo * lo < 2 < hi * hi


def test_sturm_counts_distinct_roots():
    p = up.mul(up.mul(up.upoly([0, 1]), up.upoly([-1, 1])), up.upoly([-4, 1]))
    chain = up.sturm_chain(p)
    assert up.sturm_count(chain, up.RatInterval.of(F(-1, 2), F(9, 2))) == 3
    assert up.sturm_count(chain, up.RatInterval.of(F(1, 2), F(9, 2))) == 2


def test_yun_decomposition():
    # x^2 (x-1)^3 (x+2)
    p = up.upoly([1])
    for factor, mult in ((up.upoly([0, 1]), 2), (up.upoly([-1, 1]), 3), (up.upoly([2, 1]), 1)):
        for _ in range(mult):
            p = up.mul(p, factor)
    dec = dict((m, f) for m, f in up.squarefree_decomposition(p))
    assert set(dec) == {1, 2, 3}
    # Monic factors with integer coefficients: the primitive ones.
    assert dec[2] == up.upoly(ref.monic(ref.upoly([0, 1])))
    assert dec[3] == up.upoly(ref.monic(ref.upoly([-1, 1])))


def test_every_exact_enclosure_is_a_ratinterval():
    """One interval type per number domain: every exact enclosure the package
    returns is a `upoly.RatInterval`, and the float side has only `VI`."""
    import importlib
    import pkgutil

    import isocert
    from isocert import certify, configsolve, geomex

    p = up.mul(up.upoly([-2, 0, 1]), up.mul(up.upoly([-1, 1]), up.upoly([-1, 1])))
    boxes = up.isolate_squarefree(up.squarefree_part(p), F(1, 8))
    roots = up.isolate_with_multiplicity(p, F(1, 8))
    enclosures = [*boxes, *(box for box, _m, _chain in roots),
                  up.refine(up.squarefree_part(p), boxes[0], F(1, 10**6)),
                  sqrt_enclosure(up.RatInterval(-1, 5, 2), F(1, 100)),
                  QuadExt.make(1, 2, 3).interval(F(1, 10**6)), QuadExt.rational(F(1, 3)).interval(F(1, 10)),
                  *geomex.get_model("g4").power_sum_intervals().values()]
    cfg = configsolve.solve_system("I", configsolve.ScalarParams.make(12, 0))[0]
    enclosures += [cfg.x0.box, *cfg.lambdas, *cfg.lambda_intervals(F(1, 10**6)),
                   *cfg.power_sum_intervals(F(1, 10**6)).values()]
    assert all(type(e) is up.RatInterval for e in enclosures)
    modules = [importlib.import_module(f"isocert.{info.name}")
               for info in pkgutil.iter_modules(isocert.__path__) if info.name != "__main__"]
    classes = {name for mod in modules
               for name, obj in vars(mod).items()
               if isinstance(obj, type) and obj.__module__ == mod.__name__}
    assert {name for name in classes if "Interval" in name or name == "VI"} == {"RatInterval", "VI"}
    assert not hasattr(certify, "CellBatch") and "CellBatch" not in certify.__all__


def test_algebraic_compare_and_sign():
    sqrt2 = AlgebraicNumber(up.upoly([-2, 0, 1]), up.RatInterval.of(1, 2))
    sqrt2_again = AlgebraicNumber(up.upoly([-2, 0, 1]), up.RatInterval.of(F(5, 4), F(3, 2)))
    minus = AlgebraicNumber(up.upoly([-2, 0, 1]), up.RatInterval.of(-2, -1))
    assert sqrt2.compare(sqrt2_again) == 0
    assert minus.compare(sqrt2) == -1
    # sign of x^2 - 2 at sqrt(2) is exactly zero
    assert sqrt2.sign_of(up.upoly([-2, 0, 1])) == 0
    assert sqrt2.sign_of(up.upoly([-1, 1])) == 1  # sqrt2 - 1 > 0


def test_algebraic_number_needs_an_isolating_interval():
    # (x-1)(x-2)(x-3) changes sign over [0, 4] but has three roots there.
    cubic = up.upoly([-6, 11, -6, 1])
    with pytest.raises(ValueError):
        AlgebraicNumber(cubic, up.RatInterval.of(0, 4))
    two = AlgebraicNumber(cubic, up.RatInterval.of(F(3, 2), F(5, 2)))
    assert two.refine(F(1, 1000)).compare(AlgebraicNumber(up.upoly([-2, 1]), up.RatInterval.of(2))) == 0


def test_refined_numbers_share_the_sturm_chain(monkeypatch):
    # The chain is built once per number; every refined copy still runs the
    # count-of-1 isolation check with it.
    calls = {"chain": 0, "count": 0}
    chain, count = up.sturm_chain, up.sturm_count

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(up, "sturm_chain", counted("chain", chain))
    monkeypatch.setattr(up, "sturm_count", counted("count", count))
    root = cur = AlgebraicNumber(up.upoly([-6, 11, -6, 1]), up.RatInterval.of(F(3, 2), F(5, 2)))
    for _ in range(5):
        cur = cur.refine(cur.box.width / 16)
    assert calls == {"chain": 1, "count": 6}
    assert cur.chain is root.chain and cur.box.width <= F(1, 16**5)


_RADICANDS = (st.fractions(min_value=-5, max_value=10**6, max_denominator=10**4)
              | st.integers(0, 1000).map(lambda r: F(r * r))               # perfect squares
              | st.tuples(st.integers(0, 300), st.integers(1, 40)).map(lambda t: F(*t) ** 2))
_PRECISIONS = (st.fractions(min_value=F(1, 10**15), max_value=1, max_denominator=10**15)
               | st.fractions(min_value=1, max_value=10**7, max_denominator=100))   # eps >= H too


@given(_RADICANDS, _PRECISIONS)
@example(F(0), F(1, 10))
@example(F(1), F(1, 10**9))        # bisection never moves hi = 1
@example(F(16), F(1, 2**10))       # sqrt(d) on the bisection grid
@example(F(9, 4), F(1, 3))
@example(F(-3), F(1, 7))           # d < 0: lo never moves
@example(F(5), F(5))               # eps = H: no halving
@example(F(1, 4), F(3))
def test_sqrt_bounds_match_bisection(d, eps):
    # On a point box [d, d], sqrt_enclosure is the cell bisection leaves.
    lo, hi = sqrt_enclosure(up.RatInterval.of(d), eps)
    assert (lo, hi) == ref.sqrt_bounds(d, eps)
    assert hi - lo <= eps
    if d >= 0:
        assert lo * lo <= d <= hi * hi


def test_quadext_arithmetic_and_sign():
    a = QuadExt.make(1, 1, 2)   # 1 + sqrt(2)
    b = QuadExt.make(1, -1, 2)  # 1 - sqrt(2)
    assert (a * b - QuadExt.rational(-1)).sign() == 0
    assert (a + b - QuadExt.rational(2)).sign() == 0
    assert b.sign() == -1
    assert (a ** 2 - QuadExt.make(3, 2, 2)).sign() == 0
    lo, hi = a.interval(F(1, 10**12))
    assert hi - lo <= F(1, 10**12)
    assert lo <= F(24142135623731, 10**13) <= hi


_RATIONALS = st.integers(-10**6, 10**6) | st.fractions(max_denominator=10**4)


@given(_RATIONALS, st.integers(0, 10**3) | st.fractions(min_value=0, max_denominator=50),
       st.sampled_from([0, 1, -1, F(1, 10**9), F(-1, 10**9)]) | _RATIONALS)
def test_quad_sign_matches_square_radicand(b, k, value):
    """With d = k^2, a + b*sqrt(d) is the rational a + b*k; a is chosen so
    that this value is drawn directly, often zero or tiny."""
    a = value - b * k
    expected = (value > 0) - (value < 0)
    assert quad_sign(a, b, k * k) == expected
    assert QuadExt.make(a, b, k * k).sign() == expected


def test_cubic_bound_sign():
    """S^3 - 3 A3^2 for rational and QuadExt arguments: inside, on and beyond the bound."""
    assert cubic_bound_sign(8, 1) == 1
    assert cubic_bound_sign(F(12), QuadExt.rational(24)) == 0
    assert cubic_bound_sign(QuadExt.rational(8), QuadExt.rational(14)) == -1
    assert cubic_bound_sign(F(37, 4), QuadExt.make(0, F(5, 2), 3)) == 1
    assert cubic_bound_sign(4, QuadExt.make(0, F(8, 3), 3)) == 0    # 3 (8/sqrt(3))^2 = 64


_SMALL = st.fractions(-5, 5, max_denominator=12)


@given(st.lists(st.tuples(_SMALL, _SMALL), min_size=1, max_size=5), st.integers(1, 5))
def test_power_sums_match_sums_of_powers(pairs, top):
    """p1..p_top by + and * alone, against sum(v**k), over Fractions and
    over QuadExt in Q(sqrt(3))."""
    rationals = [a for a, _ in pairs]
    quads = [QuadExt.make(a, b, 3) for a, b in pairs]
    ks = range(1, top + 1)
    assert power_sums(rationals, top) == tuple(sum(v**k for v in rationals) for k in ks)
    assert power_sums(quads, top) == tuple(sum((v**k for v in quads), QuadExt.rational(0)) for k in ks)


def test_quadext_mixed_radicand_rejected():
    with pytest.raises(ValueError):
        QuadExt.make(0, 1, 2) + QuadExt.make(0, 1, 3)
