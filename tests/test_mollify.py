"""Smoothing kernel, gap test value, and ramp: contracts at sample points."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from isocert import mollify as mf


@pytest.fixture(scope="module")
def moll():
    return mf.Mollifier(0.5)


# -- the scalar reference: the point-by-point loops the array code replaced ------

def _ref_gl(fn, a, b, order):
    x, wts = mf._gl_nodes(order)
    mid = (a + b) / 2
    half = (b - a) / 2
    return float(half * np.dot(wts, fn(mid + half * x)))


def _ref_bump_mass():
    panels = 8
    prev = None
    while True:
        edges = np.linspace(-1.0, 1.0, panels + 1)
        total = sum(_ref_gl(mf._bump_raw, edges[i], edges[i + 1], 40) for i in range(panels))
        if prev is not None and abs(total - prev) <= 1e-15:
            return total
        prev = total
        panels *= 2
        if panels > 4096:
            return total


def _ref_tables(m, panels=64, tol=1e-13):
    w = m.width
    while True:
        edges = np.linspace(-w, w, panels + 1)
        m0 = np.empty(panels)
        m1 = np.empty(panels)
        err = 0.0
        for i in range(panels):
            a, b = edges[i], edges[i + 1]
            v20 = _ref_gl(m.density, a, b, 20)
            v32 = _ref_gl(m.density, a, b, 32)
            m0[i] = v32
            err = max(err, abs(v32 - v20))
            s20 = _ref_gl(lambda s: s * m.density(s), a, b, 20)
            s32 = _ref_gl(lambda s: s * m.density(s), a, b, 32)
            m1[i] = s32
            err = max(err, abs(s32 - s20))
        if err <= tol or panels >= 1024:
            return (edges, m0, m1), err
        panels *= 2


def _ref_partial(m, a, t):
    if t <= a:
        return 0.0, 0.0
    return _ref_gl(m.density, a, t, 32), _ref_gl(lambda s: s * m.density(s), a, t, 32)


def _ref_value(m, t, via_quadrature=False):
    t = float(t)
    if abs(t) >= m.width and not via_quadrature:
        return abs(t)
    edges, m0, m1 = m.panels
    total = 0.0
    for i in range(len(m0)):
        a, b = edges[i], edges[i + 1]
        if b <= t:
            total += t * m0[i] - m1[i]
        elif a >= t:
            total += m1[i] - t * m0[i]
        else:
            lm0, lm1 = _ref_partial(m, a, t)
            total += t * lm0 - lm1
            total += (m1[i] - lm1) - t * (m0[i] - lm0)
    return total


def _ref_derivative(m, t):
    t = float(t)
    if t <= -m.width:
        return -1.0
    if t >= m.width:
        return 1.0
    edges, m0, _ = m.panels
    mass = 0.0
    for i in range(len(m0)):
        a, b = edges[i], edges[i + 1]
        if b <= t:
            mass += m0[i]
        elif a >= t:
            break
        else:
            mass += _ref_partial(m, a, t)[0]
    return 2.0 * mass - 1.0


def _ref_second_derivative(m, t):
    return 2.0 * float(m.density(float(t)))


def _ref_golden_points(n, lo, hi):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    return [lo + (hi - lo) * ((0.5 + i * phi) % 1.0) for i in range(n)]


def _ref_step_raw(x):
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    bx = math.exp(-1.0 / x)
    b1 = math.exp(-1.0 / (1.0 - x))
    return bx / (bx + b1)


def _ref_step_slope(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    bx = math.exp(-1.0 / x)
    b1 = math.exp(-1.0 / (1.0 - x))
    dbx = bx / (x * x)
    db1 = b1 / ((1.0 - x) * (1.0 - x))
    s = bx + b1
    return (dbx * b1 + bx * db1) / (s * s)


def _ref_cutoff_report(eps, samples):
    c = mf.Cutoff(eps)
    peak = max(_ref_step_slope(float(x)) for x in np.linspace(0.0, 1.0, 4096))
    value = lambda t: _ref_step_raw((float(t) - c.lo) / c.span)      # noqa: E731
    derivative = lambda t: _ref_step_slope((float(t) - c.lo) / c.span) / c.span  # noqa: E731
    worst_range = worst_low = worst_high = worst_mono = max_slope = 0.0
    prev_t, prev_v = None, None
    for t in sorted(_ref_golden_points(samples, -eps, 2 * eps)):
        v = value(t)
        worst_range = max(worst_range, -v, v - 1.0)
        if t <= eps / 3:
            worst_low = max(worst_low, v)
        if t >= eps:
            worst_high = max(worst_high, 1.0 - v)
        d = derivative(t)
        max_slope = max(max_slope, d)
        if d < 0:
            worst_mono = max(worst_mono, -d)
        if prev_v is not None and t > prev_t:
            worst_mono = max(worst_mono, (prev_v - v))
        prev_t, prev_v = t, v
    fd_max = 0.0
    step = eps / samples
    for t in _ref_golden_points(samples, eps / 3, eps):
        fd_max = max(fd_max, (value(t + step / 2) - value(t - step / 2)) / step)
    ok = (worst_range <= 0.0 and worst_low == 0.0 and worst_high <= 1e-15 and worst_mono <= 0.0
          and max_slope * eps <= 4.0 and fd_max * eps <= 4.0)
    return {
        "status": "pass" if ok else "fail",
        "eps": eps,
        "samples": samples,
        "slope_constant": peak * c.eps / c.span,
        "max_sampled_slope_times_eps": max_slope * eps,
        "max_fd_slope_times_eps": fd_max * eps,
        "worst_range_violation": worst_range,
        "worst_below_start": worst_low,
        "worst_above_end": worst_high,
        "worst_monotonicity_violation": worst_mono,
    }


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _assert_matches_reference(m, ts):
    ts = np.asarray(ts, dtype=float)
    for fn, ref in ((lambda t: m.value(t), lambda t: _ref_value(m, t)),
                    (lambda t: m.value(t, True), lambda t: _ref_value(m, t, True)),
                    (m.derivative, lambda t: _ref_derivative(m, t)),
                    (m.second_derivative, lambda t: _ref_second_derivative(m, t))):
        want = [ref(t) for t in ts]
        assert np.array_equal(_bits(fn(ts)), _bits(want))
        # A float in gives the same bits, as a float.
        one = fn(float(ts[0]))
        assert type(one) is float and _bits(one) == _bits(want[0])


@pytest.mark.parametrize("rows", [1, mf._ROW_BLOCK - 1, mf._ROW_BLOCK, 2 * mf._ROW_BLOCK + 3])
def test_gl_rows_match_a_per_row_dot_loop(rows):
    # One 1-D dot product per row, scaled by the row's half-width: the bits
    # of a loop of np.dot calls, across row-block edges and for both orders.
    m = mf.Mollifier(0.05)
    rng = np.random.default_rng(rows)
    a = rng.uniform(-m.width, m.width, rows)
    b = a + rng.uniform(0.0, m.width, rows)
    for order in (20, 32):
        x, wts = mf._gl_nodes(order)
        want = np.empty((2, rows))
        for j in range(rows):
            mid, half = (a[j] + b[j]) / 2, (b[j] - a[j]) / 2
            s = mid + half * x
            want[0, j], want[1, j] = half * np.dot(wts, m.density(s)), half * np.dot(wts, s * m.density(s))
        assert np.array_equal(_bits(mf._gl_rows(m.density, a, b, order)), _bits(want))


def _fine_table(m, panels):
    """m with its tables replaced by `panels` panels of the 32-node rule."""
    edges = np.linspace(-m.width, m.width, panels + 1)
    m.panels = (edges, *mf._gl_rows(m.density, edges[:-1], edges[1:], 32))
    return m


def test_convolve_adds_in_panel_order_on_a_fine_table():
    # 2 x 1024 + 1 terms per point: a sum over them that is not one running
    # sum (a pairwise one, as np.add.reduce takes down a single column)
    # loses the bits, in blocks of one point too.
    m = _fine_table(mf.Mollifier(0.5), 1024)
    edges = m.panels[0]
    rng = np.random.default_rng(7)
    on_edges = np.concatenate([edges[1:-1:37], np.nextafter(edges[1:-1:101], 1)])
    for n in (1, 2, 3, mf._ROW_BLOCK + 1):
        for ts in (rng.uniform(-m.width, m.width, n), rng.permutation(on_edges)[:n]):
            want = [_ref_value(m, t, True) for t in ts]
            assert np.array_equal(_bits(m._convolve(ts)), _bits(want))
            want = [_ref_derivative(m, t) for t in ts]
            assert np.array_equal(_bits(m.derivative(ts)), _bits(want))


@pytest.mark.parametrize("delta", [0.5, 0.05, 2.0, 0.013, 1e-3])
def test_tables_match_the_reference(delta):
    assert mf._bump_mass() == _ref_bump_mass()
    m = mf.Mollifier(delta)
    (edges, m0, m1), err = _ref_tables(m)
    for got, want in zip(m.panels, (edges, m0, m1)):
        assert np.array_equal(_bits(got), _bits(want))
    assert type(m.quadrature_error) is float and _bits(m.quadrature_error) == _bits(err)


def test_kernel_matches_the_reference_at_special_points():
    m = mf.Mollifier(0.5)
    edges, w = m.panels[0], m.width
    inside = np.linspace(-0.999 * w, 0.999 * w, 2 * mf._ROW_BLOCK + 1)   # straddlers past a block
    special = [0.0, -0.0, w, -w, m.delta, -m.delta, np.nextafter(w, 0), np.nextafter(-w, 0),
               1e-300, -1e-300, 5.0, -5.0]
    near_edges = np.concatenate([edges, np.nextafter(edges, -1), np.nextafter(edges, 1)])
    _assert_matches_reference(m, np.concatenate([inside, special, near_edges]))
    _assert_matches_reference(m, inside[: mf._ROW_BLOCK])
    _assert_matches_reference(m, inside[: mf._ROW_BLOCK + 1])


@given(delta=st.floats(1e-3, 10.0),
       us=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=80))
@settings(max_examples=40, deadline=None)
@example(delta=0.05, us=[0.0, 1.0, -1.0, 0.5, -0.5, 2.0])
def test_kernel_matches_the_reference(delta, us):
    # Points in units of the half-width w, so most land in the window.
    m = mf.Mollifier(delta)
    _assert_matches_reference(m, np.array(us) * m.width)


def test_kernel_keeps_the_argument_shape(moll):
    ts = np.linspace(-0.3, 0.3, 12).reshape(3, 4)
    for fn in (moll.value, moll.derivative, moll.second_derivative):
        got = fn(ts)
        assert got.shape == (3, 4)
        assert np.array_equal(_bits(got.ravel()), _bits(fn(ts.ravel())))
    assert moll.value(np.empty(0)).shape == (0,)
    assert moll.derivative(np.empty(0)).shape == (0,)


def test_equals_abs_outside_window(moll):
    for t in (0.5, -0.5, 0.7, 1.3, -2.0):
        assert abs(moll.value(t, via_quadrature=True) - abs(t)) <= 1e-12
        assert moll.value(t) == abs(t)


def test_value_at_zero(moll):
    h0 = moll.value(0.0)
    assert 0 < h0 <= moll.delta / 2


def test_evenness(moll):
    for t in (0.01, 0.1, 0.2, 0.24, 0.4):
        assert abs(moll.value(t) - moll.value(-t)) <= 1e-14


def test_upper_and_lower_envelopes(moll):
    for k in range(200):
        t = -0.6 + k * 0.006
        h = moll.value(t)
        assert h >= abs(t) - 1e-14
        assert abs(moll.derivative(t)) <= 1 + 1e-14
        assert moll.second_derivative(t) >= 0
        if t >= 0:
            assert moll.derivative(t) >= -1e-14


def test_second_derivative_finite_difference_agreement():
    # Fourth-derivative scale ~ 1/delta^3 drives the finite-difference
    # error, so the 1e-6 agreement target is checked on a unit-scale width.
    m = mf.Mollifier(2.0)
    step = 1e-3
    for t in (-0.6, -0.2, 0.0, 0.3, 0.7):
        fd = (m.value(t + step, True) - 2 * m.value(t, True) + m.value(t - step, True)) / step**2
        assert abs(fd - m.second_derivative(t)) <= 1e-6


def test_rejects_bad_width():
    with pytest.raises(ValueError):
        mf.Mollifier(0.0)
    with pytest.raises(ValueError):
        mf.Mollifier(-1)


def test_property_report_passes(moll):
    rep = mf.mollifier_property_report(0.5, samples=2000)
    assert rep["status"] == "pass"
    assert rep["worst_equality_outside"] <= 1e-12
    assert rep["min_fd_h2"] >= -1e-8
    assert rep["quadrature_error"] <= 1e-13


def test_gap_pair_validation():
    with pytest.raises(ValueError):
        mf.GapPair(-1, 2, 0.5)
    with pytest.raises(ValueError):
        mf.GapPair(0.1, 0.1, 0.5)  # f + g < 2 eps0
    mf.GapPair(0.5, 0.5, 0.5)
    # Arrays of pairs: every pair must hold.
    with pytest.raises(ValueError):
        mf.GapPair(np.array([1.0, -1.0]), np.array([1.0, 2.0]), 0.5)
    with pytest.raises(ValueError):
        mf.GapPair(np.array([1.0, 0.1]), np.array([1.0, 0.1]), 0.5)
    with pytest.raises(ValueError):
        mf.GapPair(np.array([1.0]), np.array([1.0]), 0.0)
    mf.GapPair(np.array([0.5, 3.0]), np.array([0.5, 0.0]), 0.5)


def test_K_over_arrays_matches_pairs(moll):
    f = np.array([3.0, 0.0, 0.6, 0.7, 0.55, 1.2])
    g = np.array([1.0, 1.2, 0.6, 0.5, 0.65, 0.0])
    K = mf.build_K(mf.GapPair(f, g, 0.6), moll)
    want = [mf.build_K(mf.GapPair(a, b, 0.6), moll) for a, b in zip(f.tolist(), g.tolist())]
    assert np.array_equal(_bits(K), _bits(want))
    with pytest.raises(ValueError):
        mf.build_K(mf.GapPair(f, g, 0.4), moll)     # delta = 0.5 > eps0


def test_K_min_regime(moll):
    pair = mf.GapPair(3, 1, 0.6)
    assert mf.build_K(pair, moll) == 1.0
    pair = mf.GapPair(0, 1.2, 0.6)
    assert mf.build_K(pair, moll) == 0.0


def test_K_smoothed_regime(moll):
    eps0 = 0.6
    pair = mf.GapPair(eps0, eps0, eps0)
    K = mf.build_K(pair, moll)
    # K = eps0 - h(0)/2 with 0 < h(0) <= delta/2.
    assert eps0 - moll.delta / 4 <= K < eps0
    assert K >= eps0 - moll.delta / 2


def test_K_requires_small_delta():
    wide = mf.Mollifier(2.0)
    with pytest.raises(ValueError):
        mf.build_K(mf.GapPair(1, 1, 0.5), wide)


def test_K_property_report():
    rep = mf.gap_value_property_report(0.05, 0.1, samples=5000)
    assert rep["status"] == "pass"
    assert rep["exact_regime_samples"] > 0 and rep["smoothed_regime_samples"] > 0


def test_K_equals_min_everywhere_when_gap_separated():
    # If |f - g| >= delta0 for every pair, the kernel with delta = delta0/2
    # reproduces min(f, g) exactly on all of them.
    delta0 = 0.2
    m = mf.Mollifier(delta0 / 2)
    import random

    rng = random.Random(11)
    for _ in range(500):
        f = rng.uniform(0, 4)
        g = f + delta0 + rng.uniform(0, 3)
        if rng.random() < 0.5:
            f, g = g, f
        if f + g < 2 * 0.1:
            continue
        pair = mf.GapPair(f, g, 0.1)
        assert abs(mf.build_K(pair, m) - min(f, g)) <= 1e-12


def test_cutoff_endpoint_values():
    c = mf.Cutoff(0.3)
    assert c.value(0.1) == 0.0
    assert c.value(0.3) == 1.0
    assert c.value(0.05) == 0.0
    assert c.value(1.0) == 1.0


def test_cutoff_properties():
    rep = mf.cutoff_property_report(0.3, samples=2000)
    assert rep["status"] == "pass"
    assert rep["max_fd_slope_times_eps"] <= 4.0
    assert rep["slope_constant"] <= 4.0
    assert abs(rep["slope_constant"] - 3.0) < 0.01


@given(eps=st.floats(1e-6, 1e3), samples=st.integers(2, 1500))
@settings(max_examples=25, deadline=None)
@example(eps=0.3, samples=2)
@example(eps=0.3, samples=3)
@example(eps=1 / 80, samples=1000)
def test_cutoff_report_matches_the_point_loop(eps, samples):
    want = json.dumps(_ref_cutoff_report(eps, samples))
    assert json.dumps(mf.cutoff_property_report(eps, samples)) == want


def test_step_slope_peak_matches_the_point_loop():
    # The grid's slopes and steps point by point too: np.exp in place of
    # math.exp changes some of them.
    grid = np.linspace(0.0, 1.0, 4096)
    slopes = [_ref_step_slope(float(x)) for x in grid]
    assert np.array_equal(_bits(mf._step_slope(grid)), _bits(slopes))
    assert np.array_equal(_bits(mf._step_raw(grid)), _bits([_ref_step_raw(float(x)) for x in grid]))
    assert _bits(mf._step_slope_peak()) == _bits(max(slopes))


@given(eps=st.floats(1e-6, 1e3), xs=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=60))
@settings(max_examples=40, deadline=None)
@example(eps=0.3, xs=[0.0, -0.0, 1.0, 1e-300, 1.0 - 2**-53, 0.5, 1 / 3])
def test_cutoff_matches_the_point_loop(eps, xs):
    # math.exp on each element: np.exp rounds some arguments differently.
    c = mf.Cutoff(eps)
    ts = c.lo + np.array(xs) * c.span
    want_v = [_ref_step_raw((float(t) - c.lo) / c.span) for t in ts]
    want_d = [_ref_step_slope((float(t) - c.lo) / c.span) / c.span for t in ts]
    assert np.array_equal(_bits(c.value(ts)), _bits(want_v))
    assert np.array_equal(_bits(c.derivative(ts)), _bits(want_d))
    assert type(c.value(float(ts[0]))) is float
    assert _bits(c.derivative(float(ts[0]))) == _bits(want_d[0])


def test_golden_points_match_the_point_loop():
    for n, lo, hi in ((1000, -0.3, 0.6), (7, 1.0, 2.0), (0, 0.0, 1.0), (20000, -1e-3, 4e-3)):
        assert np.array_equal(_bits(mf._golden_points(n, lo, hi)), _bits(_ref_golden_points(n, lo, hi)))


def test_cutoff_monotone():
    c = mf.Cutoff(1.0)
    prev = -1.0
    for k in range(300):
        t = k / 200.0
        v = c.value(t)
        assert v >= prev - 1e-15
        prev = v
    with pytest.raises(ValueError):
        mf.Cutoff(0)
