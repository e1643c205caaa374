"""Certificates: exact sign proofs, band branch and bound, cross-checks, determinism."""

import itertools
import math
import random
import re
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from isocert import certify as ct
from isocert import frameforms as ff
from isocert import identities as idn
from isocert.algebraic import QuadExt, _sqrt_bounds, quad_sign
from isocert.configsolve import parse_value
from isocert.exactalg import MultiPoly
from isocert.vinterval import VI, float_down, float_up
from normal_form import value


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


def test_li_bound_is_the_value_at_the_collar():
    # Every coefficient of gamma*L_i is negative and they sum to -16, so
    # gamma*L_i <= -16 tau^4 where all gaps are >= tau; no cell is split.
    for S, tau in ((8, 0.05), (8, 0.05 * 8**0.5), (20, 0.5), (F(41, 4), 0.3)):
        cert = ct.certify_Li_negative(S, tau, max_depth=7)
        assert cert.status == "proved"
        assert cert.bound == float_down(16 * F(tau) ** 4)
        assert cert.cells_processed == cert.max_depth_reached == 0
        assert cert.region["max_depth"] == 7
    assert ct.certify_Li_negative(8, 0.05 * 8**0.5).bound == 0.006400000000000005


def test_li_margin_above_the_bound_is_inconclusive():
    cert = ct.certify_Li_negative(8, 0.05, margin=1.0)
    assert cert.status == "inconclusive"
    assert cert.bound < 1.0


def _okumura_form(a, b, c):
    p2, p3 = idn.gap_power_sums(a, b, c)
    return 4**6 * (p2**3 - 3 * p3**2)


def _certified_forms():
    """The polynomials of the two exact certificates, with their required sign."""
    return ([(p, -1) for p in idn.gamma_L_gap_form(*ct.GAP_VARS)]
            + [(_okumura_form(*ct.GAP_VARS), 1)])


def test_certified_forms_have_one_coefficient_sign():
    forms = _certified_forms()
    assert [ct._coefficient_signs(p, sign) for p, sign in forms] == [
        (True, 8, -1), (True, 10, -1), (True, 10, -1), (True, 8, -1), (True, 22, 4096)]
    assert [sum(p.terms.values()) for p, _ in forms[:4]] == [-16] * 4
    # certify_okumura's form: from the power sums of the gaps 4a, 4b, 4c, all in ints.
    P2, P3 = idn.gap_power_sums(*(4 * g for g in ct.GAP_VARS))
    scaled = P2**3 - 3 * P3**2
    assert scaled == forms[-1][0] and all(type(c) is int for c in scaled.terms.values())


def test_one_flipped_coefficient_is_refused():
    for poly, sign in _certified_forms():
        for m, c in poly.terms.items():
            assert not ct._coefficient_signs(MultiPoly(poly.table, {**poly.terms, m: -c}), sign)[0]
    assert not ct._coefficient_signs(MultiPoly.zero(ct.GAP_TABLE), 1)[0]


@given(st.lists(st.fractions(-5, 5, max_denominator=12), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_gap_power_sums_match_direct_sums(xs):
    mean = sum(xs) / 4
    lam = sorted(x - mean for x in xs)
    a, b, c = (lam[k + 1] - lam[k] for k in range(3))
    p2, p3 = sum(x**2 for x in lam), sum(x**3 for x in lam)
    assert idn.gap_power_sums(a, b, c) == (p2, p3)
    form = _okumura_form(*ct.GAP_VARS)
    assert form.evaluate({"a": a, "b": b, "c": c}) == 4**6 * (p2**3 - 3 * p3**2)


@given(st.lists(st.fractions(-5, 5, max_denominator=12), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_gaps_match_direct_differences(xs):
    lam = sorted(xs)
    direct = tuple(lam[i] - lam[j] for i, j in ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)))
    assert idn.gaps(lam[1] - lam[0], lam[2] - lam[1], lam[3] - lam[2]) == direct


def test_okumura_form_vanishes_on_the_equality_set():
    form = _okumura_form
    assert form(F(1), F(0), F(0)) == 0 == form(F(0), F(0), F(1))
    assert form(F(1), F(1), F(1)) > 0
    # Every coefficient is positive, so on gaps >= 0 the form vanishes exactly
    # where every monomial does, which depends only on which gaps are 0: the
    # 0/1 gap patterns decide the whole equality set.
    poly = form(*ct.GAP_VARS)
    for pattern in itertools.product((0, 1), repeat=3):
        a, b, c = pattern
        zero = poly.evaluate(dict(zip("abc", pattern))) == 0
        assert zero == (b == 0 and (a == 0 or c == 0)), pattern
    assert ct.certify_okumura().notes[-1] == (
        "equality exactly where a = b = 0 (lam1 = lam2 = lam3 <= lam4)"
        " or b = c = 0 (lam1 <= lam2 = lam3 = lam4)")


def test_band_slope_halves_have_one_sign():
    """m0 g31 g32 and m1 g31 g21, the slopes multiplied through by their gap
    denominators, have coefficients of one sign: the m0 >= 0 and m1 <= 0
    factors of the B certificates."""
    a, b, c = ct.GAP_VARS
    gap = {(2, 1): a, (3, 2): b, (4, 3): c, (3, 1): a + b, (4, 2): b + c, (4, 1): a + b + c}
    cleared = {"g": {(3, 2): gap[3, 1], (3, 1): gap[3, 2]},
               "f": {(3, 1): gap[2, 1], (2, 1): gap[3, 1]}}
    found = {}
    for side, sign in (("g", 1), ("f", -1)):
        poly = idn.gap_slope_form(side, lambda i, j: gap[i, j],
                                  lambda x, pair: x * cleared[side][pair])
        found[side] = ct._coefficient_signs(poly, sign)[:2]
        den = math.prod(cleared[side].values())
        for pt in ({"a": 1, "b": 2, "c": 3}, {"a": F(1, 3), "b": F(5, 2), "c": F(1, 7)}):
            lams = {"l1": 0, "l2": pt["a"], "l3": pt["a"] + pt["b"], "l4": pt["a"] + pt["b"] + pt["c"]}
            slope = value(idn.gap_band_quantities(side)["m"], lams)
            assert poly.evaluate(pt) == slope * den.evaluate(pt)
    assert found == {"g": (True, 5), "f": (True, 7)}


def test_li_cross_check_no_violations():
    out = ct.sample_Li_cross_check(8, 0.05, count=2000)
    assert out["samples"] == 2000
    assert out["violations"] == []


def test_li_cross_check_deterministic():
    a = ct.sample_Li_cross_check(12, 0.3, count=500)
    b = ct.sample_Li_cross_check(12, 0.3, count=500)
    assert a == b


class _QuadInt:
    """a + b*sqrt(D) with integers a, b: the reference loop's own exact ring."""

    def __init__(self, a: int, b: int, D: int):
        self.a, self.b, self.D = a, b, D

    def __add__(self, o):
        return _QuadInt(self.a + o.a, self.b + o.b, self.D)

    def __sub__(self, o):
        return _QuadInt(self.a - o.a, self.b - o.b, self.D)

    def __mul__(self, o):
        return _QuadInt(self.a * o.a + self.b * o.b * self.D, self.a * o.b + self.b * o.a, self.D)


def _li_cross_check_reference(S, tau, count=100_000, seed=20260808) -> dict:
    """Reference: the one-point-at-a-time exact loop the bulk sampler replaced."""
    S = F(S)
    tau = F(tau).limit_denominator(10**6)
    rng = random.Random(seed)
    bound = _sqrt_bounds(S, F(1, 1000))[1]
    den = 2**12
    q = den * bound.denominator * S.denominator
    bn = bound.numerator * S.denominator
    Sq2 = S.numerator * S.denominator * (den * bound.denominator) ** 2
    tn, td = tau.numerator, tau.denominator
    two_q = 2 * q
    accepted = 0
    attempts = 0
    violations = []
    while accepted < count:
        attempts += 1
        if attempts > 400 * count:
            raise RuntimeError("sampler acceptance rate too low")
        P1 = -rng.randrange(0, den + 1) * bn
        P2 = rng.randrange(-den, den + 1) * bn
        if (P2 - P1) * td < tn * q:
            continue
        s_num = -(P1 + P2)
        D = 2 * (Sq2 - P1 * P1 - P2 * P2) - s_num * s_num
        if D <= 0 or D * td * td < tn * tn * q * q:
            continue
        g32a = s_num - 2 * P2
        if quad_sign(g32a * td - two_q * tn, -td, D) < 0:
            continue
        accepted += 1
        g21 = _QuadInt(2 * (P2 - P1), 0, D)
        g32 = _QuadInt(g32a, -1, D)
        g43 = _QuadInt(0, 2, D)
        g31, g42 = g32 + g21, g43 + g32
        vals = idn.gamma_L_printed(g21, g31, g32, g42 + g21, g42, g43)
        for i, v in enumerate(vals, start=1):
            if quad_sign(v.a, v.b, D) >= 0:
                violations.append({"i": i, "P1": P1, "P2": P2, "q": q})
    return {"samples": accepted, "violations": violations, "seed": seed}


def _outcome(sampler, *args):
    try:
        return sampler(*args)
    except RuntimeError as exc:
        return f"RuntimeError: {exc}"


@pytest.mark.parametrize("draw_words", [7, 2**13])
def test_pair_draws_match_randrange(monkeypatch, draw_words):
    monkeypatch.setattr(ct, "_DRAW_WORDS", draw_words)
    rare = 0
    for seed in (1, 20260808, 99):
        n = 20_000
        draws = ct._pair_draws(random.Random(seed))
        chunks, x, y = 0, [], []
        while len(x) < n:
            cx, cy = next(draws)
            chunks += 1
            x += cx.tolist()
            y += cy.tolist()
        rng = random.Random(seed)
        expect = [(rng.randrange(0, 4097), rng.randrange(-4096, 4097)) for _ in range(n)]
        assert list(zip(x[:n], y[:n])) == expect
        assert chunks > 2
        # Replay the words one by one: count second draws that reject a word
        # the first draw would keep, the case the scan shifts slots for.
        words = random.Random(seed)
        for _ in range(n):
            while words.getrandbits(32) >= ct._P1_TOP:
                pass
            while (w := words.getrandbits(32)) >= ct._P2_TOP:
                rare += w < ct._P1_TOP
    assert rare > 0


_TAU_41_4 = 0.05 * math.sqrt(41 / 4)      # the pipeline's default tau at S = 41/4
_S_WIDE = F(8 * 10**20 + 1, 10**20 + 39)   # bn far above 2^53


def test_li_chart_constants_are_rounded_outward():
    assert F(_TAU_41_4).limit_denominator(10**6).denominator > 10**5
    chart = ct._LiChart(_S_WIDE, F(1, 20))
    assert 4096 * chart.bn >= 2**53
    c1 = F(chart.tn * chart.q, chart.bn * chart.td)
    r = F(2 * chart.Sq2, chart.bn**2)
    filt, exact_ring = chart.filter, chart.exact
    for enc, exact in ((filt.c1, c1), (filt.c3, 2 * c1), (filt.r, r), (filt.r_tau, r - c1 * c1)):
        assert F(float(enc.lo)) <= exact <= F(float(enc.hi))
        assert F(float(enc.lo)) < F(float(enc.hi))      # none of these is a float
    # The exact route's constants are the same rationals at x bn td, y bn td.
    k = chart.bn * chart.td
    assert (exact_ring.c1, exact_ring.c3) == (c1 * k, 2 * c1 * k)
    assert (exact_ring.r, exact_ring.r_tau) == (r * k * k, (r - c1 * c1) * k * k)
    # The int64 stage's thresholds are the integers that decide the polynomial
    # tests, and the integers below and above 2 c1 and r for the root test.
    for ring in (chart.integer, chart.integer_strict):
        assert (ring.c1, ring.r_tau) == (math.ceil(c1), math.floor(r - c1 * c1))
    assert (chart.integer.c3, chart.integer.r) == (math.floor(2 * c1), math.floor(r))
    assert (chart.integer_strict.c3, chart.integer_strict.r) == (math.ceil(2 * c1), math.ceil(r))


def _on_conic(w: int, shift: int, R: int) -> list:
    """Candidates (x, y) with w (x - 3y - shift)^2 + m = R, m = 3x^2 + 3y^2 - 2xy:
    for each x, a quadratic in y."""
    out = []
    for x in range(4097):
        a = x - shift
        b, c = 6 * w * a + 2 * x, 9 * w + 3
        d = b * b - 4 * c * (w * a * a + 3 * x * x - R)
        if d >= 0 and math.isqrt(d) ** 2 == d:
            out += [(x, (b + e) // (2 * c)) for e in {math.isqrt(d), -math.isqrt(d)}
                    if (b + e) % (2 * c) == 0 and abs(b + e) <= 2 * c * 4096]
    return out


def _on_the_thresholds(chart) -> tuple[list, list, list, list]:
    """Candidates (x, y) on the integer thresholds of the three tests, t = x - 3y:
    x + y = ceil(c1); m = floor(r - c1^2); t = floor(2 c1); and
    (t - floor(2 c1))^2 = floor(r) - m or (t - ceil(2 c1))^2 = ceil(r) - m."""
    c1 = F(chart.tn * chart.q, chart.bn * chart.td)
    s, m = math.ceil(c1), math.floor(F(2 * chart.Sq2, chart.bn**2) - c1 * c1)
    line = [(x, s - x) for x in range(0, 4097, 7) if abs(s - x) <= 4096]
    lo, hi = chart.integer, chart.integer_strict
    root_line = [(lo.c3 + 3 * y, y) for y in range(-4096, 4097, 5) if 0 <= lo.c3 + 3 * y <= 4096]
    root_circle = _on_conic(1, lo.c3, lo.r) + _on_conic(1, hi.c3, hi.r)
    return line, _on_conic(0, 0, m), root_line, root_circle


@pytest.mark.parametrize("S, tau", [(8, 0.05), (1, F(1, 64)), (8, 1.0), (6, 0.2), (_S_WIDE, 0.05),
                                    (8, 5.0), (8, F(7, 20)), (8, F(16, 25))])
def test_staged_collar_tests_match_the_unstaged_ones(S, tau):
    # The int64 stage and the square-root test on its survivors accept the
    # candidates all three tests of the filter and exact route accept,
    # including those exactly on each integer threshold.  The int64 bounds of
    # the root test alone are sound on every candidate: it holds where the
    # strict one holds, and fails where the loose one fails.
    chart = ct._LiChart(F(S), ct.sampler_tau(tau))
    line, circle, root_line, root_circle = on = _on_the_thresholds(chart)
    assert circle or (S, tau) not in ((8, 1.0), (6, 0.2))
    assert root_circle or (S, tau) not in ((8, F(7, 20)), (8, F(16, 25)))
    x, y = next(ct._pair_draws(random.Random(9)))
    x = np.concatenate([x, np.array([p[0] for ps in on for p in ps], np.int64)])
    y = np.concatenate([y, np.array([p[1] for ps in on for p in ps], np.int64)])
    unstaged = chart._holds(x, y, lambda c, ring: ct._polynomial_tests(c, ring) + ct._root_test(c, ring))
    assert np.array_equal(chart.accepted(x, y), unstaged.all(axis=0))
    ints = ct._li_chart(x, y, chart.integer)
    loose, strict = (ct._squared_root_test(ints, ring) for ring in (chart.integer, chart.integer_strict))
    holds = chart._holds(x, y, ct._root_test)[0]
    assert np.array_equal(strict | (loose & holds), holds)


@pytest.mark.parametrize("c3", [-2**62, -2**62 + 1, 0, 2**62 - 1, 2**62])
@pytest.mark.parametrize("r", [-2**62, 0, 2**62 - 1, 2**62])
def test_int64_root_test_at_clamped_thresholds(c3, r):
    # The root test in int64 is the same comparison in Python integers, with
    # thresholds at the ends of the clamp: no int64 product wraps.
    x, y = next(ct._pair_draws(random.Random(3)))
    x = np.concatenate([x[:200], [0, 4096, 4096, 0, 0]])
    y = np.concatenate([y[:200], [-4096, 4096, -4096, 4096, 0]])
    ring = ct._Ring(np.asarray, None, None, c3, r, None)
    _, t, m = chart = ct._li_chart(x, y, ring)
    want = [u >= 0 and u * u >= r - mm for u, mm in zip((t - c3).tolist(), m.tolist())]
    assert ct._squared_root_test(chart, ring).tolist() == want


@pytest.mark.parametrize("S, tau, count, seed", [
    (8, 0.05, 2000, 20260808),
    (F(17, 4), 0.05, 700, 3),
    (F(37, 4), 0.1, 700, 5),
    (12, 0.3, 500, 20260808),
    (5, 0.01, 400, 11),
    (F(41, 4), _TAU_41_4, 600, 1),
    (_S_WIDE, 0.05, 600, 2),
    (_S_WIDE, 0.05 * math.sqrt(8), 300, 4),
    (8, 0.05, 1, 7),
    (8, 0.05, 0, 8),
    (1, F(1, 64), 2000, 5),
])
def test_li_cross_check_matches_the_exact_loop(monkeypatch, S, tau, count, seed):
    exact_points = []
    li_chart = ct._li_chart

    def spy(x, y, ring):
        if isinstance(x, int):      # the exact route: one point, at x bn td, y bn td
            exact_points.append((x, y))
        return li_chart(x, y, ring)

    monkeypatch.setattr(ct, "_li_chart", spy)
    assert ct.sample_Li_cross_check(S, tau, count, seed) == _li_cross_check_reference(S, tau, count, seed)
    if (S, tau) == (1, F(1, 64)):
        # c1 = tau q / bn is the integer 64, so g21 >= tau is an equality on
        # the line x + y = 64, where no enclosure excludes 0; the int64 stage
        # decides it exactly, so no point takes the exact route.
        assert not exact_points


@pytest.mark.parametrize("tau", [1e-9, 4e-7, 0.0])
def test_li_cross_check_refuses_a_tau_that_rounds_to_zero(tau):
    # At a denominator of at most 10^6 these are 0: points with a zero gap
    # would be sampled, outside the collar.
    with pytest.raises(ValueError, match="resolution"):
        ct.sample_Li_cross_check(8, tau, 300, 6)
    assert ct.sampler_tau(6e-7) == F(1, 10**6)


def test_li_certificate_on_an_empty_collar_is_trivial():
    # The least p2 over sorted zero-sum points with every gap >= tau is
    # 5 tau^2, at the evenly spaced point; 2 sqrt(2/5) = 1.2649... at S = 8.
    for S, tau, status in ((8, 5.0, "trivial"), (8, 1.27, "trivial"), (8, 1.26, "proved"),
                           (5, 1.0, "proved"), (F(5) - F(1, 10**30), 1.0, "trivial")):
        cert = ct.certify_Li_negative(S, tau)
        assert cert.status == status, (S, tau)
        assert (cert.bound is None) == (status == "trivial")
        assert ("empty collar: 5 tau^2 > S" in cert.notes) == (status == "trivial")
    assert [ct.collar_sign(5, t) for t in (0.999, 1.0, 1.001)] == [1, 0, -1]


def _filter_deciding_nothing(monkeypatch) -> list[bool]:
    """Make every filter result undecided; the list records whether the real
    filter would have decided something."""
    filter_decides = ct._excludes_zero
    decided = []

    def undecided(v):
        decided.append(filter_decides(v)[0].any())
        return np.zeros(v.lo.shape, bool), np.zeros(v.lo.shape, bool)

    monkeypatch.setattr(ct, "_excludes_zero", undecided)
    return decided


def test_li_cross_check_with_the_filter_deciding_nothing(monkeypatch):
    expect = _li_cross_check_reference(F(37, 4), 0.1, 300, 12)
    decided = _filter_deciding_nothing(monkeypatch)
    assert ct.sample_Li_cross_check(F(37, 4), 0.1, 300, 12) == expect
    assert any(decided)


@pytest.mark.parametrize("filtered", [True, False])
def test_li_cross_check_reports_the_same_violations(monkeypatch, filtered):
    printed = idn.gamma_L_printed

    def flipped(*gaps):
        v1, v2, v3, v4 = printed(*gaps)
        return v1, v2, v3 - v3 - v3, v4      # -gamma*L_3, positive on the chamber

    monkeypatch.setattr(idn, "gamma_L_printed", flipped)
    monkeypatch.setattr(ct, "_SIGN_BLOCK", 64)      # several sign blocks
    expect = _li_cross_check_reference(8, 0.05, 300, 9)
    assert [v["i"] for v in expect["violations"]] == [3] * 300
    if not filtered:
        _filter_deciding_nothing(monkeypatch)
    assert ct.sample_Li_cross_check(8, 0.05, 300, 9) == expect


@pytest.mark.parametrize("S, tau, count", [(8, 1.0, c) for c in (1, 2, 3, 4, 10)]
                         + [(8, 10.0, 2), (0, 0.05, 1), (-1, 0.05, 1), (0, 0.05, 0)])
def test_li_cross_check_gives_up_where_the_exact_loop_does(S, tau, count):
    expect = _outcome(_li_cross_check_reference, S, tau, count)
    assert _outcome(ct.sample_Li_cross_check, S, tau, count) == expect
    if (S, tau, count) in ((8, 1.0, 3), (8, 10.0, 2), (0, 0.05, 1)):
        assert expect == "RuntimeError: sampler acceptance rate too low"


def test_okumura_certificate():
    cert = ct.certify_okumura(4, tol=1e-6)
    assert cert.status == "proved"
    assert cert.bound == 0.0  # no neighbourhood of the equality set is left out
    assert cert.cells_processed == 0 and cert.margin == 1e-6
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
    certs = ct.certify_band(8, 1, F(1, 10), F(1, 20), max_depth=30)
    assert [c.claim for c in certs] == [f"band_{q}" for q in ct.BAND_QUANTITIES]
    for q, cert in zip(ct.BAND_QUANTITIES, certs):
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
    """Every entry a side program marks ok encloses the exact value at its point."""
    ch, points = cells
    assert len(_BAND_RATFNS) == 14
    program = ct._SideProgram([(expr.num, expr.den_poly()) for _, _, expr in _BAND_RATFNS])
    val, ok = program([ch.l1, ch.l2, ch.l3, ch.l4])
    for r, (side, key, expr) in enumerate(_BAND_RATFNS):
        for k, pt in enumerate(points):
            if ok[r, k]:
                exact = value(expr, pt)
                assert float(val.lo[r, k]) <= exact <= float(val.hi[r, k]), (side, key, pt)


def test_band_empty_region_trivial():
    [cert] = ct.certify_band(F(1, 10**6), 0, F(1, 10), F(1, 20), ("m0",))
    assert cert.status == "trivial"


def test_band_parameter_validation():
    with pytest.raises(ValueError):
        ct.certify_band(8, 0, F(1, 20), F(1, 10), ("m0",))  # delta1 >= eps0
    with pytest.raises(ValueError):
        ct.certify_band(8, 0, F(1, 10), F(1, 20), ("m0", "nope"))


def test_band_radical_a3():
    [cert] = ct.certify_band(8, "sqrt(2)", F(1, 10), F(1, 20), ("m0",), max_depth=24)
    assert cert.status in ("proved", "trivial")


@pytest.mark.parametrize("A3", [100, "sqrt(171)", -100])
def test_band_beyond_the_cubic_bound_is_trivial(A3):
    # 3 A3^2 > S^3 = 512: no point with p1 = 0 and p2 = 8 has p3 = A3.
    certs = ct.certify_band(8, A3, F(1, 10), F(1, 20))
    assert [c.claim for c in certs] == [f"band_{q}" for q in ct.BAND_QUANTITIES]
    assert {(c.status, tuple(c.notes)) for c in certs} == {
        ("trivial", ("empty band: A3 beyond the cubic bound",))}


@pytest.mark.parametrize("S, A3", [(12, 24), (4, "8*sqrt(3)/3"), (4, "-8*sqrt(3)/3")])
def test_band_on_the_cubic_bound_is_trivial(S, A3):
    # 3 A3^2 = S^3: only lam1 = lam2 = lam3 or lam2 = lam3 = lam4 has p3 = A3,
    # and there lam3 = lam2, which neither band admits.
    certs = ct.certify_band(S, A3, F(1, 10), F(1, 20))
    assert [c.claim for c in certs] == [f"band_{q}" for q in ct.BAND_QUANTITIES]
    assert {(c.status, tuple(c.notes)) for c in certs} == {
        ("trivial", ("empty band: A3 on the cubic bound",))}


def _band_walk_per_quantity(quantity, S, A3, eps0, delta1, max_depth=30):
    """Reference: the branch and bound of one quantity on a frontier of its own."""
    side, key = ct.BAND_QUANTITIES[quantity]
    S, eps0, delta1 = F(S), F(eps0), F(delta1)
    A3 = parse_value(A3) if isinstance(A3, str) else QuadExt.rational(A3)
    region = ct._band_region(side, S, A3, eps0, delta1)
    if S <= 0:
        return ct.Certificate(claim=f"band_{quantity}", region=region, margin=0.0,
                              status="trivial",
                              notes=["empty band: the constraint sphere is a point"])
    if key.startswith("B"):
        return ct._b_sign_certificate(quantity, side, key, region)
    a3_lo, a3_hi = (float(x) for x in A3.interval(F(1, 10**15)))
    a3_lo, a3_hi = np.nextafter(a3_lo, -np.inf), np.nextafter(a3_hi, np.inf)
    sqrt_eps0_lo = float_down(_sqrt_bounds(eps0, F(1, 10**12))[0])
    sqrt_delta1_hi = float(_sqrt_bounds(delta1, F(1, 10**12))[1]) * (1 + 1e-12)
    ratfn = idn.gap_band_quantities(side)[key]
    program = None if key == "m" else ct._SideProgram([(ratfn.num, ratfn.den_poly())])
    bound = float(_sqrt_bounds(S, F(1, 10**9))[1]) * (1 + 1e-12)
    tighten_depth = min(14, max_depth)
    cells = ct.CellBatch([-bound], [0.0], [-bound], [bound])
    depth = processed = feasible_seen = 0
    sup = 0.0
    open_cells = []
    while len(cells):
        processed += len(cells)
        ch = ct.Chamber(cells, ct._s_bounds(S))
        small, big = (ch.g21, ch.g32) if side == "g" else (ch.g32, ch.g21)
        p3 = ch.p3()
        feasible = ((ch.disc.hi >= 0) & (small.hi >= 0) & (small.lo <= sqrt_delta1_hi)
                    & (big.hi >= sqrt_eps0_lo) & (p3.hi >= a3_lo) & (p3.lo <= a3_hi))
        feasible_seen += int(feasible.sum())
        if not feasible.any():
            break
        sub = cells.select(feasible)
        ch = ct.Chamber(sub, ct._s_bounds(S))
        if program is None:
            val, ok = ct._slope_value(side, ch, sqrt_eps0_lo)
        else:
            val, ok = program([ch.l1, ch.l2, ch.l3, ch.l4])
            val, ok = VI(val.lo[0], val.hi[0]), ok[0]
        if depth >= max_depth:
            if ok.any():
                sup = max(sup, float(val.mag()[ok].max()))
            open_cells = sub.select(~ok).rows()
            break
        done = ok & (depth >= tighten_depth)
        if done.any():
            sup = max(sup, float(val.mag()[done].max()))
        rest = sub.select(~done)
        if not len(rest):
            break
        cells = rest.split()
        depth += 1
    stats = {"claim": f"band_{quantity}", "region": region, "margin": 0.0,
             "cells_processed": processed, "max_depth_reached": depth}
    if feasible_seen == 0:
        return ct.Certificate(status="trivial", notes=["empty band region"], **stats)
    note = (f"{quantity} within [0, C], C certified" if quantity == "m0"
            else f"{quantity} within [-C, 0], C certified" if quantity == "m1"
            else f"|{quantity}| <= C with C certified")
    return ct.Certificate(status="inconclusive" if open_cells else "proved", bound=sup,
                          notes=[note], open_cells=open_cells, **stats)


@pytest.mark.parametrize("S, A3, eps0, delta1, max_depth", [
    (8, 1, F(1, 10), F(1, 20), 30),
    (8, 1, F(1, 10), F(1, 20), 3),
    (8, 13, F(1, 10), F(1, 20), 15),     # the quantities' frontiers part after depth 14
    (8, 13, F(1, 10), F(1, 20), 16),
    (8, 13, F(1, 10), F(1, 20), 30),
    (F(37, 4), "5*sqrt(3)/2", F(1, 10), F(1, 20), 30),
    (F(1, 10**6), 0, F(1, 10), F(1, 20), 30),
    (8, 13, F(1, 10), F(1, 20), 13),     # the walk decides cells from min(14, max_depth) on
    (8, 13, F(1, 10), F(1, 20), 14),
    (8, -12, F(1, 2), F(1, 4), 30),      # the g side's band is pruned empty by depth 7
])
def test_shared_band_walk_matches_per_quantity_walks(S, A3, eps0, delta1, max_depth):
    """Every quantity of the one walk of both sides gets the certificate of a
    walk of its own: the same cells, split order, depth, supremum and open cells."""
    _assert_matches_per_quantity_walks(tuple(ct.BAND_QUANTITIES), S, A3, eps0, delta1, max_depth)


@pytest.mark.parametrize("quantities, max_depth", [
    (("m0", "G3f"), 30),
    (("G4f", "B1g", "m0", "G2g", "G1f"), 30),
    (("G3f", "m1", "G2g"), 15),
])
def test_band_walk_of_mixed_sides_matches_per_quantity_walks(quantities, max_depth):
    """The frontier mixes rows of both sides, in any order of quantities."""
    _assert_matches_per_quantity_walks(quantities, 8, 13, F(1, 10), F(1, 20), max_depth)


def _assert_matches_per_quantity_walks(quantities, S, A3, eps0, delta1, max_depth):
    certs = ct.certify_band(S, A3, eps0, delta1, quantities, max_depth=max_depth)
    assert [c.to_json() for c in certs] == [
        _band_walk_per_quantity(q, S, A3, eps0, delta1, max_depth).to_json() for q in quantities]


@pytest.mark.parametrize("S, A3, eps0, delta1, max_depth", [
    (8, 13, F(1, 10), F(1, 20), 30),     # the G quantities go on after m0 and m1 finish
    (8, 13, F(1, 10), F(1, 20), 10),     # max_depth below 14
    (8, -12, F(1, 2), F(1, 4), 30),      # the g side's band is pruned empty by depth 7
])
def test_band_walk_encloses_only_what_a_decision_reads(monkeypatch, S, A3, eps0, delta1, max_depth):
    """No enclosure below the depth where cells start to be decided, and the
    side program of a depth covers exactly the G quantities with a live cell.

    The depth of a call is read off its cells: a depth-d cell is 1/2^d of
    the first cell, [-bound, 0] x [-bound, bound]."""
    bound = float(_sqrt_bounds(F(S), F(1, 10**9))[1]) * (1 + 1e-12)
    calls = []

    def depth_of(l1, l2):
        depths = np.rint(np.log2(2 * bound * bound / ((l1.hi - l1.lo) * (l2.hi - l2.lo))))
        assert len(set(depths)) == 1
        return int(depths[0])

    program, slope = ct._side_program, ct._slope_value

    def recording_program(side, keys):
        run = program(side, keys)

        def call(chart):
            calls.append((side, keys, depth_of(*chart[:2])))
            return run(chart)
        return call

    def recording_slope(side, ch, floor):
        calls.append((side, ("m",), depth_of(ch.l1, ch.l2)))
        return slope(side, ch, floor)

    monkeypatch.setattr(ct, "_side_program", recording_program)
    monkeypatch.setattr(ct, "_slope_value", recording_slope)
    walked = [q for q, (_, key) in ct.BAND_QUANTITIES.items() if not key.startswith("B")]
    alone = {}
    for q in walked:
        calls.clear()
        [cert] = ct.certify_band(S, A3, eps0, delta1, (q,), max_depth=max_depth)
        alone[q] = {depth for _, _, depth in calls}
        assert [key for _, (key,), _ in calls] == [ct.BAND_QUANTITIES[q][1]] * len(alone[q])
        assert alone[q] <= set(range(min(14, max_depth), cert.max_depth_reached + 1))
    calls.clear()
    ct.certify_band(S, A3, eps0, delta1, max_depth=max_depth)
    assert calls and min(depth for _, _, depth in calls) >= min(14, max_depth)
    want = []
    for depth in sorted(set().union(*alone.values())):
        for side in "gf":
            live = [ct.BAND_QUANTITIES[q][1] for q in walked
                    if ct.BAND_QUANTITIES[q][0] == side and depth in alone[q]]
            g_keys = tuple(key for key in live if key != "m")
            if "m" in live:
                want.append((side, ("m",), depth))
            if g_keys:
                want.append((side, g_keys, depth))
    assert sorted(calls) == sorted(want)


def test_certificates_deterministic():
    a = ct.certify_Li_negative(8, 0.05, margin=1e-9, max_depth=20).to_json()
    b = ct.certify_Li_negative(8, 0.05, margin=1e-9, max_depth=20).to_json()
    assert a == b
    c = ct.certify_okumura(4, tol=1e-6).to_json()
    d = ct.certify_okumura(4, tol=1e-6).to_json()
    assert c == d


@st.composite
def _gap_cells(draw):
    """A positive rational floor and random rational boxes [a, b] with a >= 0
    for the primitive gaps g21, g32, g43, with one point in each box."""
    floor = F(1, draw(st.integers(1, 20)))
    cells = []
    for _ in range(draw(st.integers(1, 6))):
        cell = []
        for _ in range(3):
            den = draw(st.integers(1, 7))
            a = F(draw(st.integers(0, 4 * den)), den)
            b = a + F(draw(st.integers(0, den)), den * draw(st.integers(1, 4)))
            cell.append((a, b, a + (b - a) * F(draw(st.integers(0, 6)), 6)))
        cells.append(cell)
    return floor, cells


_PRIMITIVE = ((2, 1), (3, 2), (4, 3))
_ALL_GAPS = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3))


def _chamber_gaps(cells, floor, raised):
    """All six gap boxes, derived from the primitive ones as Chamber does,
    and the exact gaps at each cell's point; the primitive gaps named in
    `raised` are shifted up by the floor."""
    boxes, points = {}, [{} for _ in cells]
    for k, pair in enumerate(_PRIMITIVE):
        shift = floor if pair in raised else 0
        boxes[pair] = VI([float_down(c[k][0] + shift) for c in cells],
                         [float_up(c[k][1] + shift) for c in cells])
        for pt, c in zip(points, cells):
            pt[pair] = c[k][2] + shift
    g21, g32, g43 = (boxes[p] for p in _PRIMITIVE)
    ch = SimpleNamespace(n=len(cells), g21=g21, g32=g32, g43=g43,
                         g31=g32 + g21, g42=g43 + g32, g41=g43 + g32 + g21)
    for pt in points:
        pt[3, 1] = pt[3, 2] + pt[2, 1]
        pt[4, 2] = pt[4, 3] + pt[3, 2]
        pt[4, 1] = pt[4, 2] + pt[2, 1]
    return ch, points


def _lams(pt):
    return {"l1": 0, "l2": pt[2, 1], "l3": pt[3, 1], "l4": pt[4, 1]}


@given(_gap_cells())
@settings(max_examples=40, deadline=None)
def test_factored_forms_match_engine_extraction(drawn):
    """Dual-route guard: the generic gamma*L_i and m0/m1 formulas evaluated
    over Fractions at a point of each box agree with the engine-side
    polynomials there, and the slopes lie inside the interval enclosures the
    band certifier computes on the box with the band's floors."""
    floor, cells = drawn
    gL = idn.gamma_L_polynomials()
    _, points = _chamber_gaps(cells, floor, raised=_PRIMITIVE)
    for pt in points:
        exact = idn.gamma_L_gap_form(*(pt[p] for p in _PRIMITIVE))
        assert exact == idn.gamma_L_printed(*(pt[p] for p in _ALL_GAPS))
        for i in range(4):
            assert exact[i] == gL[i + 1].evaluate(_lams(pt))
    for side, wide in (("g", (3, 2)), ("f", (2, 1))):
        ch, points = _chamber_gaps(cells, floor, raised=(wide,))
        val, ok = ct._slope_value(side, ch, float_down(floor))
        assert ok.all()
        slope = idn.gap_band_quantities(side)["m"]
        for k, pt in enumerate(points):
            exact = idn.gap_slope_form(side, lambda i, j: pt[i, j], lambda x, pair: x / pt[pair])
            assert exact == value(slope, _lams(pt))
            assert float(val.lo[k]) <= exact <= float(val.hi[k]), (side, pt)


def test_band_sign_factors_multiply_out_to_B():
    """The rendered factors of each B certificate are gaps lam_i - lam_j with
    i > j, nonnegative on the sorted chamber, with a sign that makes B <= 0;
    multiplied back out with the slope they give B exactly."""
    for quantity in ("B1g", "B2g", "B2f", "B3f"):
        side, key = quantity[-1], quantity[:-1]
        [cert] = ct.certify_band(8, 1, F(1, 10), F(1, 20), (quantity,))
        assert cert.status == "proved" and cert.notes[1].startswith("factors: ")
        factors = cert.notes[1].removeprefix("factors: ").split("; ")
        sign = -1 if factors[0] == "-1" else 1
        factors = factors[1:] if sign < 0 else factors
        slope_sign = {"m0 >= 0": 1, "m1 <= 0": -1}[factors[0]]
        assert factors[0][1] == {"g": "0", "f": "1"}[side]
        assert sign * slope_sign == -1
        num = [tuple(map(int, re.fullmatch(r"lam(\d)-lam(\d) >= 0", f).groups()))
               for f in factors[1:-1]]
        inner = re.fullmatch(r"1/\((.*)\) > 0", factors[-1]).group(1)
        den_groups = re.findall(r"\(lam(\d)-lam(\d)\)(?:\^(\d))?", inner)
        assert "".join(f"(lam{i}-lam{j})" + (f"^{e}" if e else "") for i, j, e in den_groups) == inner
        den = [(int(i), int(j)) for i, j, e in den_groups for _ in range(int(e or 1))]
        assert all(i > j for i, j in num + den)
        poly = MultiPoly.const(ff.GEOMETRY, sign)
        for i, j in num:
            poly = poly * ff.gap(i, j)
        product = idn.gap_slope(side) * ff.over_gaps(poly, den)
        got, want = product.normalize(), idn.gap_band_quantities(side)[key]
        assert (got.num, got.den) == (want.num, want.den)


def test_chamber_constraints_hold_exactly():
    # Points of a cell with real branch satisfy p1 = 0 and p2 = S by
    # construction; check via the enclosure of p1 and p2 on a sample cell.
    from isocert.certify import CellBatch, Chamber, _s_bounds

    cb = CellBatch([-2.0], [-1.9], [0.1], [0.2])
    ch = Chamber(cb, _s_bounds(8))
    p1 = ch.l1 + ch.l2 + ch.l3 + ch.l4
    assert p1.lo[0] <= 0 <= p1.hi[0]
    p2 = ch.l1.sq() + ch.l2.sq() + ch.l3.sq() + ch.l4.sq()
    assert p2.lo[0] <= 8 <= p2.hi[0]


@st.composite
def _chart_cells(draw):
    """A rational S in (0, 12], random float cells of the chart scaled to
    sqrt(S), and a rational point (x1, x2) in each cell."""
    den = draw(st.integers(1, 40))
    S = F(draw(st.integers(1, 12 * den)), den)
    r = float(S) ** 0.5
    coord = st.floats(-1.5, 1.5).map(lambda u: u * r)
    width = st.floats(0.0, 0.5).map(lambda u: u * r)
    cols = ([], [], [], [])
    points = []
    for _ in range(draw(st.integers(1, 6))):
        a1, a2 = draw(coord), draw(coord)
        b1, b2 = a1 + draw(width), a2 + draw(width)
        for col, v in zip(cols, (a1, b1, a2, b2)):
            col.append(v)
        t1, t2 = (F(draw(st.integers(0, 12)), 12) for _ in range(2))
        points.append((F(a1) + (F(b1) - F(a1)) * t1, F(a2) + (F(b2) - F(a2)) * t2))
    return S, ct.CellBatch(*cols), points


@given(_chart_cells())
@settings(max_examples=200, deadline=None)
def test_chamber_encloses_exact_chart_values(drawn):
    """At every chart point with disc >= 0, l3, l4, the six gaps (exact in
    Q(sqrt(disc))) and p3 (rational) lie inside the Chamber enclosures."""
    S, cells, points = drawn
    ch = ct.Chamber(cells, ct._s_bounds(S))
    checked = 0
    for k, (x1, x2) in enumerate(points):
        s = -(x1 + x2)
        disc = 2 * (S - x1 * x1 - x2 * x2) - s * s
        if disc < 0:
            continue
        checked += 1
        l1, l2 = QuadExt.rational(x1), QuadExt.rational(x2)
        l3, l4 = QuadExt.make(s / 2, F(-1, 2), disc), QuadExt.make(s / 2, F(1, 2), disc)
        p3 = (l1 ** 3 + l2 ** 3 + l3 ** 3 + l4 ** 3).rational_value()
        exact = {"l3": l3, "l4": l4, "g21": l2 - l1, "g31": l3 - l1, "g32": l3 - l2,
                 "g41": l4 - l1, "g42": l4 - l2, "g43": l4 - l3, "p3": p3}
        for name, value in exact.items():
            enc = ch.p3() if name == "p3" else getattr(ch, name)
            lo, hi = QuadExt.rational(F(enc.lo[k])), QuadExt.rational(F(enc.hi[k]))
            assert lo <= value <= hi, (name, S, x1, x2)
    assume(checked)
