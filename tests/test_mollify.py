"""Smoothing kernel, gap test value, and ramp: contracts at sample points."""

import math

import pytest

from isocert import mollify as mf


@pytest.fixture(scope="module")
def moll():
    return mf.Mollifier(0.5)


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
