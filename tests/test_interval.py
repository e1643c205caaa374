"""Outward-rounded intervals (vinterval.VI) on the path the band certificates
use: containment, poles, refinement monotonicity, tight squares."""

import random
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
from hypothesis import given, strategies as st

from isocert.certify import _compile_poly, _power_table, _vector_poly, _vector_ratfn
from isocert.exactalg import FactorBase, FactoredFn, MultiPoly, SymbolTable
from isocert.identities import gamma_L_polynomials, gap_band_quantities
from isocert.vinterval import VI, float_down, float_up

T = SymbolTable.geometry()
L = {i: MultiPoly.var(T, f"l{i}") for i in range(1, 5)}
GAMMA_L1 = gamma_L_polynomials()[1]


def _box(**bounds) -> dict[str, VI]:
    """One cell per column: name -> (lo list, hi list); unnamed l's are [0, 0]."""
    n = len(next(iter(bounds.values()))[0])
    box = {f"l{i}": VI(np.zeros(n), np.zeros(n)) for i in range(1, 5)}
    for name, (lo, hi) in bounds.items():
        box[name] = VI(lo, hi)
    return box


def _enclose(poly: MultiPoly, box: dict[str, VI]) -> VI:
    compiled = _compile_poly(poly)
    return _vector_poly(compiled, _power_table([box[f"l{i}"] for i in range(1, 5)], compiled.degree))


def _contains(enc: VI, k: int, x) -> bool:
    """Exact test: python floats compare exactly with Fractions."""
    return float(enc.lo[k]) <= x <= float(enc.hi[k])


def test_sum_over_unit_boxes():
    out = _enclose(L[1] + L[2], _box(l1=([0.0], [1.0]), l2=([0.0], [1.0])))
    assert out.lo[0] <= 0.0 and out.hi[0] >= 2.0
    assert out.hi[0] < 2.0 + 1e-12


def test_gamma_L1_point_enclosure():
    eps = 1e-9
    probe = {"l1": -3, "l2": -1, "l3": 1, "l4": 3}
    box = _box(**{k: ([v - eps], [v + eps]) for k, v in probe.items()})
    out = _enclose(GAMMA_L1, box)
    assert out.lo[0] <= -256 <= out.hi[0]
    assert out.hi[0] - out.lo[0] < 1e-5


def test_possible_pole():
    # 1 / (l1 - l2): the first cell's denominator box straddles 0, the
    # second's does not.
    expr = FactoredFn(FactorBase([L[1] - L[2]]), MultiPoly.const(T, 1), (1,)).to_ratfn()
    box = _box(l1=([-0.5, 1.0], [0.5, 2.0]), l2=([-0.5, -0.5], [0.5, 0.5]))
    val, ok = _vector_ratfn((_compile_poly(expr.num), _compile_poly(expr.den)),
                           SimpleNamespace(n=2, **box))
    assert list(ok) == [False, True]
    # 1 / [1/2, 5/2] = [2/5, 2]
    assert _contains(val, 1, F(2, 5)) and _contains(val, 1, 2)


def test_from_fraction_containment():
    # Coefficients enter _vector_poly as floats widened one ulp outward.
    for q in (F(1, 3), F(-7, 11), F(2), F(10**18 + 1, 3)):
        enc = _enclose(MultiPoly.const(T, q), _box(l1=([0.0], [0.0])))
        assert _contains(enc, 0, q)


def test_containment_random_points():
    # 60 random rational boxes, one cell each, evaluated in one batch.
    rng = random.Random(7)
    lo = {f"l{i}": [] for i in range(1, 5)}
    hi = {f"l{i}": [] for i in range(1, 5)}
    points = []
    for _ in range(60):
        pt = {}
        for i in range(1, 5):
            a = F(rng.randrange(-8, 8), 4)
            b = a + F(rng.randrange(0, 4), 4)
            pt[f"l{i}"] = a + (b - a) * F(rng.randrange(0, 5), 4)
            lo[f"l{i}"].append(float(a))
            hi[f"l{i}"].append(float(b))
        points.append(pt)
    enc = _enclose(GAMMA_L1, _box(**{k: (lo[k], hi[k]) for k in lo}))
    for k, pt in enumerate(points):
        assert _contains(enc, k, GAMMA_L1.evaluate(pt))


def test_monotone_refinement():
    # The union of the child enclosures never exceeds the parent enclosure.
    expr = (L[1] * L[2] - L[1] ** 2) * (L[2] + 2)
    parent = _enclose(expr, _box(l1=([-1.0], [1.0]), l2=([0.0], [2.0])))
    kids = _enclose(expr, _box(l1=([-1.0, 0.0], [0.0, 1.0]), l2=([0.0, 0.0], [2.0, 2.0])))
    assert parent.lo[0] <= kids.lo.min() and kids.hi.max() <= parent.hi[0]


def _term_walk(poly: MultiPoly, box: dict[str, VI], n: int) -> VI:
    """Reference: read every exponent field of every term on each call."""
    total = VI(np.zeros(n), np.zeros(n))
    powers = {}
    for mono, coeff in poly.sorted_terms():
        term = None
        for i, e in enumerate(poly.exponents(mono)):
            if e:
                if (i, e) not in powers:
                    base = p = box[poly.table.names[i]]
                    for _ in range(e - 1):
                        p = p * base
                    powers[i, e] = p
                term = powers[i, e] if term is None else term * powers[i, e]
        c = VI.scalar(np.nextafter(float(coeff), -np.inf), np.nextafter(float(coeff), np.inf), n)
        total = total + (c if term is None else term * c)
    return total


def test_compiled_polys_match_term_walk_bitwise():
    # Batching reorders no float operation, so enclosures are bit-identical,
    # signed zeros included; numerator and denominator share one power table.
    for n in (1, 50, 400):
        rng = random.Random(11 + n)
        lo = {f"l{i}": [rng.uniform(-3, 3) for _ in range(n)] for i in range(1, 5)}
        hi = {k: [x + rng.uniform(0, 0.5) for x in v] for k, v in lo.items()}
        for k in range(0, n, 5):   # some degenerate and zero-touching boxes
            name = f"l{rng.randint(1, 4)}"
            lo[name][k], hi[name][k] = rng.choice([(0.0, 0.0), (-0.0, 0.0), (-0.0, 1.0), (-1.0, 0.0)])
        box = _box(**{k: (lo[k], hi[k]) for k in lo})
        chart = [box[f"l{i}"] for i in range(1, 5)]
        for side in ("g", "f"):
            for expr in gap_band_quantities(side).values():
                num, den = _compile_poly(expr.num), _compile_poly(expr.den)
                powers = _power_table(chart, max(num.degree, den.degree))
                for poly, compiled in ((expr.num, num), (expr.den, den)):
                    want, got = _term_walk(poly, box, n), _vector_poly(compiled, powers)
                    assert np.array_equal(want.lo.view(np.int64), got.lo.view(np.int64))
                    assert np.array_equal(want.hi.view(np.int64), got.hi.view(np.int64))


def test_ratfn_enclosures_do_not_depend_on_cell_blocks():
    # 400 cells in one call cross several cell-block boundaries; the same
    # cells split 150 + 250 cross them elsewhere.  Every bit must agree.
    rng = random.Random(5)
    lo = {f"l{i}": [rng.uniform(-3, 3) for _ in range(400)] for i in range(1, 5)}
    box = _box(**{k: (v, [x + rng.uniform(0, 0.5) for x in v]) for k, v in lo.items()})

    def cells(part):
        return SimpleNamespace(n=len(range(400)[part]),
                               **{k: VI(v.lo[part], v.hi[part]) for k, v in box.items()})

    for expr in gap_band_quantities("g").values():
        compiled = (_compile_poly(expr.num), _compile_poly(expr.den))
        whole, ok = _vector_ratfn(compiled, cells(slice(None)))
        parts = [_vector_ratfn(compiled, cells(p)) for p in (slice(0, 150), slice(150, None))]
        for got, want in ((whole.lo, [v.lo for v, _ in parts]), (whole.hi, [v.hi for v, _ in parts]),
                          (ok, [k for _, k in parts])):
            assert np.array_equal(got.view(np.int8), np.concatenate(want).view(np.int8))


def test_power_tightness():
    x = VI([-2.0], [1.0])
    sq = x.sq()
    assert sq.lo[0] == 0.0 and sq.hi[0] >= 4.0
    cube = x * sq
    assert cube.lo[0] <= -8.0 and cube.hi[0] >= 1.0


def test_sqrt_clamps_tiny_negative():
    r = VI([-1e-18], [4.0]).sqrt_clamped()
    assert r.lo[0] == 0.0 and r.hi[0] >= 2.0


@given(st.fractions(min_value=-10**9, max_value=10**9)
       | st.floats(allow_nan=False, allow_infinity=False).map(F))
def test_float_down_up_bracket_fractions(q):
    lo, hi = float_down(q), float_up(q)
    assert F(lo) <= q <= F(hi)
    if F(float(q)) == q:
        assert lo == hi == float(q)
    else:
        assert hi == np.nextafter(lo, np.inf)
