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
from functools import cache, lru_cache

import numpy as np


def _bump_raw(u: np.ndarray) -> np.ndarray:
    """exp(-1/(1-u^2)) on (-1, 1), zero outside (vectorized, no warnings)."""
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) < 1.0
    denom = np.where(inside, 1.0 - u * u, 1.0)
    with np.errstate(over="ignore"):
        return np.where(inside, np.exp(-1.0 / denom), 0.0)


# Rows per block of node evaluations: it bounds the (rows x nodes) arrays a
# batch of quadratures holds at once, so peak memory does not grow with the
# number of sample points.
_ROW_BLOCK = 64


@lru_cache(maxsize=8)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _gl_rows(fn, a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Gauss-Legendre (mass, first moment) of fn over each row [a_j, b_j].

    Returns a (2, rows) array.  fn is evaluated once per node block and
    feeds both integrals.  Each row takes the nodes of a one-interval rule,
    and `np.vecdot` takes the 1-D dot product of each row with the weights,
    the one `wts.dot(row)` takes, so every integral has the bits of
    integrating that interval alone: a matrix product (`rows @ wts`) may add
    the terms in another order.  The scaling by the half-widths is elementwise.
    """
    x, wts = _gl_nodes(order)
    out = np.empty((2, len(a)))
    for lo in range(0, len(a), _ROW_BLOCK):
        blk = slice(lo, lo + _ROW_BLOCK)
        mid, half = (a[blk] + b[blk]) / 2, (b[blk] - a[blk]) / 2
        s = mid[:, None] + half[:, None] * x
        rho = fn(s)
        for k, rows in enumerate((rho, s * rho)):
            out[k, blk] = half * np.vecdot(rows, wts)
    return out


def _points(t) -> tuple[np.ndarray, tuple]:
    """t as a flat float array, with the shape to give the result back."""
    arr = np.asarray(t, dtype=float)
    return arr.reshape(-1), arr.shape


def _shaped(vals: np.ndarray, shape: tuple):
    """A float for a scalar argument, else an array of the argument's shape."""
    return float(vals[0]) if shape == () else vals.reshape(shape)


def _column_sums(terms: np.ndarray) -> np.ndarray:
    """Sums down the columns of a (rows, points) array, each in row order.

    Over the rows of a C-ordered array of two or more columns, `np.add.reduce`
    adds one row after another, as a running sum does; over a single column
    it may add pairwise, so a one-column array is padded to two.
    """
    if terms.shape[1] == 1:
        return np.add.reduce(np.concatenate([terms, terms], axis=1), axis=0)[:1]
    return np.add.reduce(terms, axis=0)


def _worst_above(values) -> float:
    """The running Python max of values from a 0.0 start: NaNs and ties keep the 0.0."""
    return max(0.0, float(np.fmax.reduce(values, axis=None, initial=0.0)))


def _worst_below(values) -> float:
    """The running Python min of values from a 0.0 start: NaNs and ties keep the 0.0."""
    return min(0.0, float(np.fmin.reduce(values, axis=None, initial=0.0)))


@lru_cache(maxsize=1)
def _bump_mass() -> float:
    """Integral of exp(-1/(1-u^2)) over (-1, 1), stable to ~1e-15."""
    panels = 8
    prev = None
    while True:
        edges = np.linspace(-1.0, 1.0, panels + 1)
        total = float(sum(_gl_rows(_bump_raw, edges[:-1], edges[1:], 40)[0]))
        if prev is not None and abs(total - prev) <= 1e-15:
            return total
        prev = total
        panels *= 2
        if panels > 4096:
            return total


class Mollifier:
    """Smooth even convex approximation of |t|, exact outside [-delta, delta].

    `value`, `derivative` and `second_derivative` take a float, giving a
    float, or an array of points, giving an array; each element has the
    bits that evaluating its point alone gives.
    """

    def __init__(self, delta: float):
        if delta <= 0:
            raise ValueError("smoothing width delta must be positive")
        self.delta = float(delta)
        self.width = self.delta / 2
        self._norm = 1.0 / (_bump_mass() * self.width)
        self.panels, self.quadrature_error = self._build_tables()

    # rho is the probability density of the bump scaled to [-w, w].
    def density(self, s):
        s = np.asarray(s, dtype=float)
        val = self._norm * _bump_raw(s / self.width)
        return float(val) if val.ndim == 0 else val

    def _build_tables(self):
        """Moment tables on 64 panels, doubled until the 32- and 20-node
        rules agree to 1e-13 or 1024 panels are reached."""
        w, panels = self.width, 64
        while True:
            edges = np.linspace(-w, w, panels + 1)
            m0, m1 = moments = _gl_rows(self.density, edges[:-1], edges[1:], 32)
            err = _worst_above(np.abs(moments - _gl_rows(self.density, edges[:-1], edges[1:], 20)))
            if err <= 1e-13 or panels >= 1024:
                return (edges, m0, m1), err
            panels *= 2

    def _partials(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each point's panel k (edges[k] < t <= edges[k + 1]), where a panel
        straddles the point (edges[k] < t < edges[k + 1]), and the (mass, first
        moment) of rho from that panel's start up to the point (0 elsewhere)."""
        edges = self.panels[0]
        k = np.searchsorted(edges, t) - 1
        cut = (k >= 0) & (t < edges[np.minimum(k + 1, len(edges) - 1)])
        lm = np.zeros((2, len(t)))
        lm[:, cut] = _gl_rows(self.density, edges[k[cut]], t[cut], 32)
        return k, cut, lm

    def _convolve(self, t: np.ndarray) -> np.ndarray:
        """Integral of rho(s) |t - s| ds by panels, in the panel order of one point.

        Per block of _ROW_BLOCK points, the terms are one (2 panels + 1,
        points) array: a row of +0.0, then per panel its left or right part
        (one `where` on left), with 0.0 after it, and for a straddling panel
        its left part and then its right part, scattered into the point's
        column.  `_column_sums` adds them down each column one after the
        other, as a running sum does.  Starting at +0.0 keeps the bits: a sum
        started there is never -0.0, so adding a row of 0.0 leaves it as it is.
        """
        edges, m0, m1 = self.panels
        k, cut, (lm0, lm1) = self._partials(t)
        total = np.empty_like(t)
        for lo in range(0, len(t), _ROW_BLOCK):
            blk = slice(lo, lo + _ROW_BLOCK)
            tb = t[blk]
            tm = tb * m0[:, None]
            terms = np.zeros((2 * len(m0) + 1, len(tb)))
            terms[1::2] = np.where(edges[1:, None] <= tb, tm - m1[:, None], m1[:, None] - tm)
            j = np.flatnonzero(cut[blk])
            p, tj, a0, a1 = k[blk][j], tb[j], lm0[blk][j], lm1[blk][j]
            terms[2 * p + 1, j] = tj * a0 - a1
            terms[2 * p + 2, j] = (m1[p] - a1) - tj * (m0[p] - a0)
            total[blk] = _column_sums(terms)
        return total

    def value(self, t, via_quadrature: bool = False):
        """h(t) = integral of rho(s) |t - s| ds."""
        t, shape = _points(t)
        h = np.abs(t)
        # Outside the support the integrand is linear, the bump is even,
        # and the convolution collapses to |t| exactly.
        near = slice(None) if via_quadrature else h < self.width
        h[near] = self._convolve(t[near])
        return _shaped(h, shape)

    def derivative(self, t):
        """h'(t) = 2 P(t) - 1 with P the distribution function of rho.

        P(t) sums, from +0.0 and in panel order, the mass of each panel left
        of t and the part of the straddling panel up to t.
        """
        t, shape = _points(t)
        edges, m0, _ = self.panels
        k, cut, (lm0, _) = self._partials(t)
        mass = np.empty_like(t)
        for lo in range(0, len(t), _ROW_BLOCK):
            blk = slice(lo, lo + _ROW_BLOCK)
            tb = t[blk]
            terms = np.zeros((len(m0) + 1, len(tb)))
            terms[1:] = np.where(edges[1:, None] <= tb, m0[:, None], 0.0)
            j = np.flatnonzero(cut[blk])
            terms[k[blk][j] + 1, j] = lm0[blk][j]
            mass[blk] = _column_sums(terms)
        w = self.width
        return _shaped(np.where(t <= -w, -1.0, np.where(t >= w, 1.0, 2.0 * mass - 1.0)), shape)

    def second_derivative(self, t):
        """h''(t) = 2 rho(t), manifestly nonnegative."""
        return 2.0 * self.density(t)


@dataclass(frozen=True)
class GapPair:
    """Squared gap pair (f, g) with the uniform floor f + g >= 2 eps0.

    f and g are floats or arrays of pairs; every pair must hold.
    """

    f: float | np.ndarray
    g: float | np.ndarray
    eps0: float

    def __post_init__(self):
        f, g = np.asarray(self.f), np.asarray(self.g)
        if np.any(f < 0) or np.any(g < 0):
            raise ValueError("squared gaps must be nonnegative")
        if self.eps0 <= 0:
            raise ValueError("eps0 must be positive")
        if np.any(f + g < 2 * self.eps0 - 1e-15):
            raise ValueError("pair violates the floor f + g >= 2*eps0")


def build_K(pair: GapPair, moll: Mollifier):
    """K = (f+g)/2 - h(f-g)/2; equals min(f, g) once |f-g| >= delta.

    Requires delta <= eps0, which is what makes the positive lower bound
    K >= eps0 - delta/2 work on pairs with small |f - g|.
    """
    if moll.delta > pair.eps0:
        raise ValueError("needs delta <= eps0 for the positive lower bound")
    return (pair.f + pair.g) / 2 - moll.value(pair.f - pair.g) / 2


def _exp(v: np.ndarray) -> np.ndarray:
    """math.exp of each element; np.exp rounds some arguments differently."""
    return np.fromiter(map(math.exp, v.tolist()), float, len(v))


def _ramp_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where x is in the open ramp (neither x <= 0 nor x >= 1), x there, and
    B(x) = exp(-1/x) and B(1 - x) there."""
    inside = ~((x <= 0.0) | (x >= 1.0))
    xi = x[inside]
    return inside, xi, _exp(-1.0 / xi), _exp(-1.0 / (1.0 - xi))


def _step_raw(x: np.ndarray) -> np.ndarray:
    """The raw step B(x) / (B(x) + B(1 - x)): 0 for x <= 0, 1 for x >= 1."""
    out = np.where(x >= 1.0, 1.0, 0.0)
    inside, _, bx, b1 = _ramp_parts(x)
    out[inside] = bx / (bx + b1)
    return out


def _step_slope(x: np.ndarray) -> np.ndarray:
    """The raw step's slope: 0 for x <= 0 and for x >= 1."""
    out = np.zeros_like(x)
    inside, xi, bx, b1 = _ramp_parts(x)
    dbx = bx / (xi * xi)
    db1 = b1 / ((1.0 - xi) * (1.0 - xi))
    s = bx + b1
    out[inside] = (dbx * b1 + bx * db1) / (s * s)
    return out


@cache
def _step_slope_peak() -> float:
    """The largest slope of the raw step on a fixed 4096-point grid of [0, 1];
    it does not depend on eps, so it is measured once, on first use."""
    return _worst_above(_step_slope(np.linspace(0.0, 1.0, 4096)))


class Cutoff:
    """Smooth ramp: 0 below eps/3, 1 above eps, monotone in between.

    `value` and `derivative` take a float, giving a float, or an array of
    points, giving an array; each element has the bits that evaluating its
    point alone gives.
    """

    def __init__(self, eps: float):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.eps = float(eps)
        self.lo = self.eps / 3
        self.span = self.eps - self.lo
        # eta'(t) = psi'(x)/span with span = 2 eps/3, so c = peak * 3/2.
        self.slope_constant = _step_slope_peak() * self.eps / self.span

    def value(self, t):
        t, shape = _points(t)
        return _shaped(_step_raw((t - self.lo) / self.span), shape)

    def derivative(self, t):
        t, shape = _points(t)
        return _shaped(_step_slope((t - self.lo) / self.span) / self.span, shape)


# -- property sweeps -------------------------------------------------------------

def _golden_points(n: int, lo: float, hi: float) -> np.ndarray:
    """Deterministic low-discrepancy points in [lo, hi]."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    return lo + (hi - lo) * ((0.5 + np.arange(n) * phi) % 1.0)


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
    t = np.concatenate([inner, outer, -outer])
    h = m.value(t)
    h1 = m.derivative(t)
    far = t[np.abs(t) >= delta]
    step = 1e-3
    fd_t = inner[:: max(1, len(inner) // 200)]
    fd = (m.value(fd_t + step, True) - 2 * m.value(fd_t, True) + m.value(fd_t - step, True)) / step**2
    worst_lower = _worst_below(h - np.abs(t))      # most negative h - |t|
    # |h - |t|| outside the smoothing window
    worst_outside = _worst_above(np.abs(m.value(far, via_quadrature=True) - np.abs(far)))
    worst_even = _worst_above(np.abs(h - m.value(-t)))
    # excess of |h'| over 1, and h' < 0 for t >= 0
    worst_slope = _worst_above(np.concatenate([np.abs(h1) - 1.0, -h1[(t >= 0) & (h1 < -1e-12)]]))
    worst_convex = _worst_below(m.second_derivative(t))    # most negative analytic h''
    worst_fd = _worst_below(fd)                             # most negative finite-difference h''
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


def gap_value_property_report(delta: float, eps0: float, samples: int = 100_000) -> dict:
    """Sampled verification of the K contract across both gap regimes.

    Pairs are drawn with f + g >= 2 eps0; roughly half land in the
    |f - g| >= delta regime (where K must equal min(f, g) exactly) and the
    rest in the smoothed regime (where K >= eps0 - delta/2 and K > 0).
    """
    import random

    if not delta <= eps0:
        raise ValueError("needs delta <= eps0")
    rng = random.Random(20260808)
    m = Mollifier(delta)
    fs, gs = [], []
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
        fs.append(f)
        gs.append(g)
    f, g = np.array(fs), np.array(gs)
    K = build_K(GapPair(f, g, eps0), m)
    exact = np.abs(f - g) >= delta
    n_exact = int(exact.sum())
    n_smooth = samples - n_exact
    # |K - min(f,g)| on the exact regime
    worst_min_gap = _worst_above(np.abs(K[exact] - np.minimum(f, g)[exact]))
    # shortfall below eps0 - delta/2 on the smoothed regime
    worst_floor = _worst_above((eps0 - delta / 2) - K[~exact])
    worst_nonneg = _worst_below(K)
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
    # sorted, not np.sort: a process's first np.sort call maps about 0.2 MB of sort code
    t = np.array(sorted(_golden_points(samples, -eps, 2 * eps).tolist()))
    v, d = c.value(t), c.derivative(t)
    worst_range = _worst_above(np.concatenate([-v, v - 1.0]))
    worst_low = _worst_above(v[t <= eps / 3])         # eta above 0 left of eps/3
    worst_high = _worst_above(1.0 - v[t >= eps])      # eta below 1 right of eps
    max_slope = _worst_above(d)
    # a negative slope, and a drop from one sample to the next larger one
    worst_mono = _worst_above(np.concatenate([-d, (v[:-1] - v[1:])[t[:-1] < t[1:]]]))
    # Finite-difference slope maximum over the ramp interior.
    step = eps / samples
    fd = _golden_points(samples, eps / 3, eps)
    fd_max = _worst_above((c.value(fd + step / 2) - c.value(fd - step / 2)) / step)
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
