"""Branch-and-bound certificates: proofs, cross-checks, determinism."""

from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isocert import certify as ct
from isocert import identities as idn
from isocert.vinterval import VI


def test_li_certificate_wide_collar():
    cert = ct.certify_Li_negative(20, 0.5, margin=1e-9, max_depth=20)
    assert cert.status == "proved"
    assert cert.bound is not None and cert.bound > 0


def test_li_certificate_acceptance_params():
    cert = ct.certify_Li_negative(8, 0.05, margin=1e-9, max_depth=20)
    assert cert.status == "proved"
    assert cert.max_depth_reached <= 20


def test_li_rejects_degenerate_floor():
    with pytest.raises(ValueError):
        ct.certify_Li_negative(8, 0.0)
    with pytest.raises(ValueError):
        ct.certify_Li_negative(0, 0.1)


def test_li_cross_check_no_violations():
    out = ct.sample_Li_cross_check(8, 0.05, count=2000)
    assert out["samples"] == 2000
    assert out["violations"] == []


def test_li_cross_check_deterministic():
    a = ct.sample_Li_cross_check(12, 0.3, count=500)
    b = ct.sample_Li_cross_check(12, 0.3, count=500)
    assert a == b


def test_okumura_certificate():
    cert = ct.certify_okumura(4, tol=1e-6)
    assert cert.status == "proved"
    assert cert.bound <= 1e-3  # farthest low-slack cell distance
    with pytest.raises(ValueError):
        ct.certify_okumura(5)


def test_okumura_equality_case_exact():
    eq = ct.okumura_equality_case_exact()
    assert all(eq.values())


def test_okumura_zero_cube_sum_case():
    # a = (1, 1, -1, -1)/2 has p3 = 0, comfortably below the bound.
    a = [F(1, 2), F(1, 2), F(-1, 2), F(-1, 2)]
    assert sum(a) == 0
    assert sum(x * x for x in a) == 1
    assert sum(x**3 for x in a) == 0


def test_okumura_homogeneous_sampling_oracle():
    # The scale-free inequality 3 p3^2 <= p2^3 on random zero-sum rationals,
    # strict except near the one-repeated-triple pattern.
    import random

    rng = random.Random(3)
    for _ in range(400):
        a = [F(rng.randrange(-20, 21), rng.randrange(1, 7)) for _ in range(3)]
        a.append(-sum(a))
        p2 = sum(x * x for x in a)
        p3 = sum(x**3 for x in a)
        assert 3 * p3**2 <= p2**3
        if 3 * p3**2 == p2**3 and p2 != 0:
            values = sorted(set(a))
            assert len(values) <= 2


def test_band_bounds_all_quantities():
    for q in ct.band_quantity_names():
        cert = ct.certify_band_bounds(q, 8, 1, F(1, 10), F(1, 20), max_depth=30)
        assert cert.status == "proved", q
        if q.startswith("G") or q in ("m0", "m1"):
            assert cert.bound is not None and cert.bound < 1e5


_BAND_RATFNS = [(side, key, expr) for side in ("g", "f")
                for key, expr in idn.gap_band_quantities(side).items()]


@st.composite
def _rational_cells(draw):
    """A batch of random rational boxes in l1..l4 and one point in each."""
    n = draw(st.integers(1, 6))
    lo = {f"l{i}": [] for i in range(1, 5)}
    hi = {f"l{i}": [] for i in range(1, 5)}
    points = []
    for _ in range(n):
        pt = {}
        for name in lo:
            den = draw(st.integers(1, 7))
            a = F(draw(st.integers(-3 * den, 3 * den)), den)
            b = a + F(draw(st.integers(0, den)), den * draw(st.integers(1, 4)))
            pt[name] = a + (b - a) * F(draw(st.integers(0, 6)), 6)
            # Rational endpoints enter as floats rounded outward.
            lo[name].append(np.nextafter(float(a), -np.inf))
            hi[name].append(np.nextafter(float(b), np.inf))
        points.append(pt)
    box = {name: VI(lo[name], hi[name]) for name in lo}
    return SimpleNamespace(n=n, **box), points


@given(_rational_cells())
@settings(max_examples=40, deadline=None)
def test_band_quantity_enclosures_contain_exact_values(cells):
    """Every cell _vector_ratfn marks ok encloses the exact value at its point."""
    ch, points = cells
    assert len(_BAND_RATFNS) == 14
    for side, key, expr in _BAND_RATFNS:
        val, ok = ct._vector_ratfn(expr, ch)
        for k, pt in enumerate(points):
            if ok[k]:
                exact = expr.evaluate(pt)
                assert float(val.lo[k]) <= exact <= float(val.hi[k]), (side, key, pt)


def test_band_empty_region_trivial():
    cert = ct.certify_band_bounds("m0", F(1, 10**6), 0, F(1, 10), F(1, 20))
    assert cert.status == "trivial"


def test_band_parameter_validation():
    with pytest.raises(ValueError):
        ct.certify_band_bounds("m0", 8, 0, F(1, 20), F(1, 10))  # delta1 >= eps0
    with pytest.raises(ValueError):
        ct.certify_band_bounds("nope", 8, 0, F(1, 10), F(1, 20))


def test_band_radical_a3():
    cert = ct.certify_band_bounds("m0", 8, "sqrt(2)", F(1, 10), F(1, 20), max_depth=24)
    assert cert.status in ("proved", "trivial")


def test_certificates_deterministic():
    a = ct.certify_Li_negative(8, 0.05, margin=1e-9, max_depth=20).to_json()
    b = ct.certify_Li_negative(8, 0.05, margin=1e-9, max_depth=20).to_json()
    assert a == b
    c = ct.certify_okumura(4, tol=1e-6).to_json()
    d = ct.certify_okumura(4, tol=1e-6).to_json()
    assert c == d


def test_factored_forms_match_engine_extraction():
    """Dual-route guard: the interval certifier evaluates factored gap
    forms; they must agree with the engine-extracted polynomials, which the
    frameforms suite separately proves equal to the printed targets."""
    gL = idn.gamma_L_polynomials()
    probe = {"l1": F(-3, 2), "l2": F(-1, 4), "l3": F(3, 4), "l4": F(1)}
    from isocert.certify import CellBatch, Chamber, _gamma_L_factored, _s_bounds

    S = sum(v * v for v in probe.values())
    cb = CellBatch.root(float(probe["l1"]), float(probe["l1"]),
                        float(probe["l2"]), float(probe["l2"]))
    ch = Chamber(cb, _s_bounds(S))
    vals = _gamma_L_factored(ch)
    for i in range(1, 5):
        exact = gL[i].evaluate({k: v for k, v in probe.items()})
        lo, hi = float(vals[i - 1].lo[0]), float(vals[i - 1].hi[0])
        assert lo - 1e-9 <= float(exact) <= hi + 1e-9


def test_chamber_constraints_hold_exactly():
    # Points of a cell with real branch satisfy p1 = 0 and p2 = S by
    # construction; check via the enclosure of p1 and p2 on a sample cell.
    from isocert.certify import CellBatch, Chamber, _s_bounds

    cb = CellBatch.root(-2.0, -1.9, 0.1, 0.2)
    ch = Chamber(cb, _s_bounds(8))
    p1 = ch.l1 + ch.l2 + ch.l3 + ch.l4
    assert p1.lo[0] <= 0 <= p1.hi[0]
    p2 = ch.l1.sq() + ch.l2.sq() + ch.l3.sq() + ch.l4.sq()
    assert p2.lo[0] <= 8 <= p2.hi[0]
