"""Smoothing kernel, the min-gap test value, and the ramp cutoff.

The smoothing function h is the convolution of |.| with an even bump of
support [-w, w], w = delta/2, so h inherits evenness and convexity, equals
|t| exactly outside the support (with slack: the contract only needs it
for |t| >= delta), and has the closed derivatives

    h'(t) = 2 P(t) - 1,   h''(t) = 2 rho(t),

with P the bump's distribution function.  Integration uses fixed
Gauss-Legendre panel tables built once per instance; the builder doubles
the panel count until two successive quadrature orders agree to the target
tolerance, and that agreement bound is reported as `quadrature_error`.

The test value combines a gap pair (f, g) through

    K = (f + g)/2 - h(f - g)/2,

which is min(f, g) whenever |f - g| >= delta and stays positive on pairs
with f + g >= 2 eps0 provided delta <= eps0.

The cutoff ramp is the standard smooth step B(x)/(B(x) + B(1-x)) with
B(x) = exp(-1/x), rescaled to rise from 0 at eps/3 to 1 at eps; its slope
constant (about 3/eps) is measured on a fixed dense grid and reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def _bump_raw(u: np.ndarray) -> np.ndarray:
    """exp(-1/(1-u^2)) on (-1, 1), zero outside (vectorized, no warnings)."""
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) < 1.0
    out = np.zeros_like(u)
    denom = np.where(inside, 1.0 - u * u, 1.0)
    with np.errstate(over="ignore"):
        out = np.where(inside, np.exp(-1.0 / denom), 0.0)
    return out


@lru_cache(maxsize=8)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _gl_integrate(fn, a: float, b: float, order: int) -> float:
    x, wts = _gl_nodes(order)
    mid = (a + b) / 2
    half = (b - a) / 2
    return float(half * np.dot(wts, fn(mid + half * x)))


@lru_cache(maxsize=1)
def _bump_mass() -> float:
    """Integral of exp(-1/(1-u^2)) over (-1, 1), stable to ~1e-15."""
    panels = 8
    prev = None
    while True:
        edges = np.linspace(-1.0, 1.0, panels + 1)
        total = sum(_gl_integrate(_bump_raw, edges[i], edges[i + 1], 40) for i in range(panels))
        if prev is not None and abs(total - prev) <= 1e-15:
            return total
        prev = total
        panels *= 2
        if panels > 4096:
            return total


class Mollifier:
    """Smooth even convex approximation of |t|, exact outside [-delta, delta]."""

    def __init__(self, delta: float, tol: float = 1e-13, panels: int = 64):
        if delta <= 0:
            raise ValueError("smoothing width delta must be positive")
        self.delta = float(delta)
        self.width = self.delta / 2
        self._norm = 1.0 / (_bump_mass() * self.width)
        self.panels, self.quadrature_error = self._build_tables(panels, tol)

    # rho is the probability density of the bump scaled to [-w, w].
    def density(self, s):
        s = np.asarray(s, dtype=float)
        val = self._norm * _bump_raw(s / self.width)
        return float(val) if val.ndim == 0 else val

    def _build_tables(self, panels: int, tol: float):
        w = self.width
        while True:
            edges = np.linspace(-w, w, panels + 1)
            m0 = np.empty(panels)
            m1 = np.empty(panels)
            err = 0.0
            for i in range(panels):
                a, b = edges[i], edges[i + 1]
                v20 = _gl_integrate(self.density, a, b, 20)
                v32 = _gl_integrate(self.density, a, b, 32)
                m0[i] = v32
                err = max(err, abs(v32 - v20))
                s20 = _gl_integrate(lambda s: s * self.density(s), a, b, 20)
                s32 = _gl_integrate(lambda s: s * self.density(s), a, b, 32)
                m1[i] = s32
                err = max(err, abs(s32 - s20))
            if err <= tol or panels >= 1024:
                return (edges, m0, m1), err
            panels *= 2

    def _partial(self, a: float, t: float) -> tuple[float, float]:
        """(mass, first moment) of rho over [a, t] inside one panel."""
        if t <= a:
            return 0.0, 0.0
        return (
            _gl_integrate(self.density, a, t, 32),
            _gl_integrate(lambda s: s * self.density(s), a, t, 32),
        )

    def value(self, t: float, via_quadrature: bool = False) -> float:
        """h(t) = integral of rho(s) |t - s| ds."""
        t = float(t)
        w = self.width
        if abs(t) >= w and not via_quadrature:
            # Outside the support the integrand is linear, the bump is even,
            # and the convolution collapses to |t| exactly.
            return abs(t)
        edges, m0, m1 = self.panels
        total = 0.0
        for i in range(len(m0)):
            a, b = edges[i], edges[i + 1]
            if b <= t:
                total += t * m0[i] - m1[i]
            elif a >= t:
                total += m1[i] - t * m0[i]
            else:
                lm0, lm1 = self._partial(a, t)
                total += t * lm0 - lm1
                total += (m1[i] - lm1) - t * (m0[i] - lm0)
        return total

    def derivative(self, t: float) -> float:
        """h'(t) = 2 P(t) - 1 with P the distribution function of rho."""
        t = float(t)
        w = self.width
        if t <= -w:
            return -1.0
        if t >= w:
            return 1.0
        edges, m0, _ = self.panels
        mass = 0.0
        for i in range(len(m0)):
            a, b = edges[i], edges[i + 1]
            if b <= t:
                mass += m0[i]
            elif a >= t:
                break
            else:
                mass += self._partial(a, t)[0]
        return 2.0 * mass - 1.0

    def second_derivative(self, t: float) -> float:
        """h''(t) = 2 rho(t), manifestly nonnegative."""
        return 2.0 * float(self.density(float(t)))


@dataclass(frozen=True)
class GapPair:
    """Squared gap pair (f, g) with the uniform floor f + g >= 2 eps0."""

    f: float
    g: float
    eps0: float

    def __post_init__(self):
        if self.f < 0 or self.g < 0:
            raise ValueError("squared gaps must be nonnegative")
        if self.eps0 <= 0:
            raise ValueError("eps0 must be positive")
        if self.f + self.g < 2 * self.eps0 - 1e-15:
            raise ValueError("pair violates the floor f + g >= 2*eps0")


def build_K(pair: GapPair, moll: Mollifier) -> float:
    """K = (f+g)/2 - h(f-g)/2; equals min(f, g) once |f-g| >= delta.

    Requires delta <= eps0, which is what makes the positive lower bound
    K >= eps0 - delta/2 work on pairs with small |f - g|.
    """
    if moll.delta > pair.eps0:
        raise ValueError("needs delta <= eps0 for the positive lower bound")
    return (pair.f + pair.g) / 2 - moll.value(pair.f - pair.g) / 2


def _step_raw(x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    bx = math.exp(-1.0 / x)
    b1 = math.exp(-1.0 / (1.0 - x))
    return bx / (bx + b1)


def _step_slope(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    bx = math.exp(-1.0 / x)
    b1 = math.exp(-1.0 / (1.0 - x))
    dbx = bx / (x * x)
    db1 = b1 / ((1.0 - x) * (1.0 - x))
    s = bx + b1
    return (dbx * b1 + bx * db1) / (s * s)


class Cutoff:
    """Smooth ramp: 0 below eps/3, 1 above eps, monotone in between."""

    def __init__(self, eps: float, slope_samples: int = 4096):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.eps = float(eps)
        self.lo = self.eps / 3
        self.span = self.eps - self.lo
        xs = np.linspace(0.0, 1.0, slope_samples)
        peak = max(_step_slope(float(x)) for x in xs)
        # eta'(t) = psi'(x)/span with span = 2 eps/3, so c = peak * 3/2.
        self.slope_constant = peak * self.eps / self.span

    def value(self, t: float) -> float:
        return _step_raw((float(t) - self.lo) / self.span)

    def derivative(self, t: float) -> float:
        return _step_slope((float(t) - self.lo) / self.span) / self.span


# -- property sweeps -------------------------------------------------------------

def _golden_points(n: int, lo: float, hi: float) -> list[float]:
    """Deterministic low-discrepancy points in [lo, hi]."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    return [lo + (hi - lo) * ((0.5 + i * phi) % 1.0) for i in range(n)]


def mollifier_property_report(delta: float, samples: int = 10_000) -> dict:
    """Sampled verification of the smoothing-kernel contract.

    Checks, at deterministic quasi-random points: h >= |t|; h = |t| for
    |t| >= delta (through the quadrature path); evenness; |h'| <= 1;
    h' >= 0 for t >= 0; h'' >= 0 analytically and >= -1e-8 by second
    finite differences; h(0) in (0, delta/2].
    """
    m = Mollifier(delta)
    n_in = samples // 2
    inner = _golden_points(n_in, -delta, delta)
    outer = _golden_points(samples - n_in, delta, 4 * delta)
    worst_lower = 0.0       # most negative h - |t|
    worst_outside = 0.0     # |h - |t|| outside the smoothing window
    worst_even = 0.0
    worst_slope = 0.0       # excess of |h'| over 1
    worst_convex = 0.0      # most negative analytic h''
    worst_fd = 0.0          # most negative finite-difference h''
    step = 1e-3
    fd_points = inner[:: max(1, len(inner) // 200)]
    for t in inner + outer + [-t for t in outer]:
        h = m.value(t)
        worst_lower = min(worst_lower, h - abs(t))
        worst_even = max(worst_even, abs(h - m.value(-t)))
        worst_slope = max(worst_slope, abs(m.derivative(t)) - 1.0)
        worst_convex = min(worst_convex, m.second_derivative(t))
        if t >= 0 and m.derivative(t) < -1e-12:
            worst_slope = max(worst_slope, -m.derivative(t))
        if abs(t) >= delta:
            worst_outside = max(worst_outside, abs(m.value(t, via_quadrature=True) - abs(t)))
    for t in fd_points:
        fd = (m.value(t + step, True) - 2 * m.value(t, True) + m.value(t - step, True)) / step**2
        worst_fd = min(worst_fd, fd)
    h0 = m.value(0.0)
    ok = (
        worst_lower >= -1e-12
        and worst_outside <= 1e-12
        and worst_even <= 1e-12
        and worst_slope <= 1e-12
        and worst_convex >= 0.0
        and worst_fd >= -1e-8
        and 0.0 < h0 <= delta / 2
    )
    return {
        "status": "pass" if ok else "fail",
        "delta": delta,
        "samples": samples,
        "worst_h_minus_abs": worst_lower,
        "worst_equality_outside": worst_outside,
        "worst_evenness": worst_even,
        "worst_slope_excess": worst_slope,
        "min_analytic_h2": worst_convex,
        "min_fd_h2": worst_fd,
        "h_at_zero": h0,
        "quadrature_error": m.quadrature_error,
    }


def gap_value_property_report(delta: float, eps0: float, samples: int = 100_000,
                              seed: int = 20260808) -> dict:
    """Sampled verification of the K contract across both gap regimes.

    Pairs are drawn with f + g >= 2 eps0; roughly half land in the
    |f - g| >= delta regime (where K must equal min(f, g) exactly) and the
    rest in the smoothed regime (where K >= eps0 - delta/2 and K > 0).
    """
    import random

    if not delta <= eps0:
        raise ValueError("needs delta <= eps0")
    rng = random.Random(seed)
    m = Mollifier(delta)
    worst_min_gap = 0.0      # |K - min(f,g)| on the exact regime
    worst_floor = 0.0        # shortfall below eps0 - delta/2 on the smoothed regime
    worst_nonneg = 0.0
    n_exact = n_smooth = 0
    for _ in range(samples):
        if rng.random() < 0.5:
            g = eps0 * (0.2 + 3 * rng.random())
            f = g + rng.uniform(-delta, delta)
            if f < 0:
                f = 0.0
            if f + g < 2 * eps0:
                f = 2 * eps0 - g
        else:
            f = 4 * eps0 * rng.random()
            g = f + (delta + 3 * eps0 * rng.random()) * (1 if rng.random() < 0.5 else -1)
            if g < 0:
                g = 0.0
            if f + g < 2 * eps0:
                g = max(g, 2 * eps0 - f)
        pair = GapPair(f, g, eps0)
        K = build_K(pair, m)
        worst_nonneg = min(worst_nonneg, K)
        if abs(f - g) >= delta:
            n_exact += 1
            worst_min_gap = max(worst_min_gap, abs(K - min(f, g)))
        else:
            n_smooth += 1
            worst_floor = max(worst_floor, (eps0 - delta / 2) - K)
    ok = worst_min_gap <= 1e-12 and worst_floor <= 1e-12 and worst_nonneg >= -1e-12
    return {
        "status": "pass" if ok else "fail",
        "delta": delta,
        "eps0": eps0,
        "samples": samples,
        "exact_regime_samples": n_exact,
        "smoothed_regime_samples": n_smooth,
        "worst_min_deviation": worst_min_gap,
        "worst_floor_shortfall": worst_floor,
        "worst_negative_K": worst_nonneg,
    }


def cutoff_property_report(eps: float, samples: int = 10_000) -> dict:
    """Sampled verification of the ramp contract, including the slope constant."""
    c = Cutoff(eps)
    pts = _golden_points(samples, -eps, 2 * eps)
    worst_range = 0.0
    worst_low = 0.0     # eta above 0 left of eps/3
    worst_high = 0.0    # eta below 1 right of eps
    worst_mono = 0.0
    max_slope = 0.0
    prev_t, prev_v = None, None
    for t in sorted(pts):
        v = c.value(t)
        worst_range = max(worst_range, -v, v - 1.0)
        if t <= eps / 3:
            worst_low = max(worst_low, v)
        if t >= eps:
            worst_high = max(worst_high, 1.0 - v)
        d = c.derivative(t)
        max_slope = max(max_slope, d)
        if d < 0:
            worst_mono = max(worst_mono, -d)
        if prev_v is not None and t > prev_t:
            worst_mono = max(worst_mono, (prev_v - v))
        prev_t, prev_v = t, v
    # Finite-difference slope maximum over the ramp interior.
    fd_max = 0.0
    step = eps / samples
    for t in _golden_points(samples, eps / 3, eps):
        fd_max = max(fd_max, (c.value(t + step / 2) - c.value(t - step / 2)) / step)
    ok = (
        worst_range <= 0.0
        and worst_low == 0.0
        and worst_high <= 1e-15
        and worst_mono <= 0.0
        and max_slope * eps <= 4.0
        and fd_max * eps <= 4.0
    )
    return {
        "status": "pass" if ok else "fail",
        "eps": eps,
        "samples": samples,
        "slope_constant": c.slope_constant,
        "max_sampled_slope_times_eps": max_slope * eps,
        "max_fd_slope_times_eps": fd_max * eps,
        "worst_range_violation": worst_range,
        "worst_below_start": worst_low,
        "worst_above_end": worst_high,
        "worst_monotonicity_violation": worst_mono,
    }
