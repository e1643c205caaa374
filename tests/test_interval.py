"""Outward-rounded intervals (vinterval.VI) on the path the band certificates
use: containment, poles, refinement monotonicity, tight squares."""

import random
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np

from isocert.certify import _vector_poly, _vector_ratfn
from isocert.exactalg import FactorBase, FactoredFn, MultiPoly, SymbolTable
from isocert.vinterval import VI

T = SymbolTable.geometry()
L = {i: MultiPoly.var(T, f"l{i}") for i in range(1, 5)}
GAMMA_L1 = (L[4] - L[3]) * ((L[3] - L[1]) ** 2 * (L[3] - L[2]) - (L[4] - L[2]) * (L[4] - L[1]) ** 2) \
    - (L[4] - L[2]) * (L[3] - L[2]) * (L[2] - L[1]) ** 2


def _box(**bounds) -> dict[str, VI]:
    """One cell per column: name -> (lo list, hi list); unnamed l's are [0, 0]."""
    n = len(next(iter(bounds.values()))[0])
    box = {f"l{i}": VI(np.zeros(n), np.zeros(n)) for i in range(1, 5)}
    for name, (lo, hi) in bounds.items():
        box[name] = VI(lo, hi)
    return box


def _contains(enc: VI, k: int, x) -> bool:
    """Exact test: python floats compare exactly with Fractions."""
    return float(enc.lo[k]) <= x <= float(enc.hi[k])


def test_sum_over_unit_boxes():
    out = _vector_poly(L[1] + L[2], _box(l1=([0.0], [1.0]), l2=([0.0], [1.0])), 1)
    assert out.lo[0] <= 0.0 and out.hi[0] >= 2.0
    assert out.hi[0] < 2.0 + 1e-12


def test_gamma_L1_point_enclosure():
    eps = 1e-9
    probe = {"l1": -3, "l2": -1, "l3": 1, "l4": 3}
    box = _box(**{k: ([v - eps], [v + eps]) for k, v in probe.items()})
    out = _vector_poly(GAMMA_L1, box, 1)
    assert out.lo[0] <= -256 <= out.hi[0]
    assert out.hi[0] - out.lo[0] < 1e-5


def test_possible_pole():
    # 1 / (l1 - l2): the first cell's denominator box straddles 0, the
    # second's does not.
    expr = FactoredFn(FactorBase([L[1] - L[2]]), MultiPoly.const(T, 1), (1,)).to_ratfn()
    box = _box(l1=([-0.5, 1.0], [0.5, 2.0]), l2=([-0.5, -0.5], [0.5, 0.5]))
    val, ok = _vector_ratfn(expr, SimpleNamespace(n=2, **box))
    assert list(ok) == [False, True]
    # 1 / [1/2, 5/2] = [2/5, 2]
    assert _contains(val, 1, F(2, 5)) and _contains(val, 1, 2)


def test_from_fraction_containment():
    # Coefficients enter _vector_poly as floats widened one ulp outward.
    for q in (F(1, 3), F(-7, 11), F(2), F(10**18 + 1, 3)):
        enc = _vector_poly(MultiPoly.const(T, q), _box(l1=([0.0], [0.0])), 1)
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
    enc = _vector_poly(GAMMA_L1, _box(**{k: (lo[k], hi[k]) for k in lo}), 60)
    for k, pt in enumerate(points):
        assert _contains(enc, k, GAMMA_L1.evaluate(pt))


def test_monotone_refinement():
    # The union of the child enclosures never exceeds the parent enclosure.
    expr = (L[1] * L[2] - L[1] ** 2) * (L[2] + 2)
    parent = _vector_poly(expr, _box(l1=([-1.0], [1.0]), l2=([0.0], [2.0])), 1)
    kids = _vector_poly(expr, _box(l1=([-1.0, 0.0], [0.0, 1.0]), l2=([0.0, 0.0], [2.0, 2.0])), 2)
    assert parent.lo[0] <= kids.lo.min() and kids.hi.max() <= parent.hi[0]


def test_power_tightness():
    x = VI([-2.0], [1.0])
    sq = x.sq()
    assert sq.lo[0] == 0.0 and sq.hi[0] >= 4.0
    cube = x * sq
    assert cube.lo[0] <= -8.0 and cube.hi[0] >= 1.0


def test_sqrt_clamps_tiny_negative():
    r = VI([-1e-18], [4.0]).sqrt_clamped()
    assert r.lo[0] == 0.0 and r.hi[0] >= 2.0
