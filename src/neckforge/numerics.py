"""Small numerical building blocks shared across modules.

Polynomial blend windows (the C^2 and C^3 flavors used by collars, fades and
caps), panelized Gauss-Legendre quadrature, and the package's piecewise cubics:
PiecewiseCubic, with scipy PPoly's layout and floats, evaluation at
abscissae whose knot interval the caller already knows, the cubic
Hermite interpolant, and bounds from Bernstein coefficients.
Everything here is elementary and vectorized; a window clamps a Python
float without numpy, to the same bits, for the designer's RK4 loop.
Nothing imports from the rest of the package except the error types.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DegenerateGrid

__all__ = [
    "GL_POINTS",
    "smoothstep5",
    "smoothstep7",
    "gauss_legendre_rule",
    "gauss_legendre_panels",
    "knot_intervals",
    "with_midpoints",
    "cubic_rows",
    "PiecewiseCubic",
    "hermite_cubic",
    "bernstein",
    "cubic_bounds",
]

# default nodes per Gauss-Legendre panel (the bending curve's quadratures
# and measure's halving check): exact for polynomials of degree
# < 2 * GL_POINTS on each panel
GL_POINTS = 12


def _clamp01(x):
    if isinstance(x, float):
        return min(max(x, 0.0), 1.0)
    return np.clip(x, 0.0, 1.0)


def smoothstep5(x):
    """Quintic step 10x^3 - 15x^4 + 6x^5 clamped to [0, 1].

    Value 0 at x<=0 and 1 at x>=1 with first and second derivatives
    vanishing at both ends, so pieces blended with it stay C^2.
    """
    x = _clamp01(x)
    return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


def smoothstep7(x):
    """Septic step 35x^4 - 84x^5 + 70x^6 - 20x^7 clamped to [0, 1].

    Leading term x^4, so a quantity faded in with this window turns on with
    three vanishing derivatives at the junction.
    """
    x = _clamp01(x)
    return x * x * x * x * (35.0 + x * (-84.0 + x * (70.0 - 20.0 * x)))


@lru_cache(maxsize=None)
def gauss_legendre_rule(n: int = GL_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Computed once per n and shared, so the arrays are read-only.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_legendre_panels(f, breakpoints, n: int = GL_POINTS) -> float:
    """Integrate f over [breakpoints[0], breakpoints[-1]] panel by panel.

    Each consecutive pair of breakpoints becomes one Gauss-Legendre panel
    with n nodes. f must accept a 1d array of abscissae, the n nodes of
    each panel in panel order. Exact for polynomials of degree < 2 * n on
    each panel, which makes integrals of spline data with panel edges at
    the knots reproducible to roundoff.
    """
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1 or bp.size < 2:
        raise DegenerateGrid("need at least two breakpoints to integrate")
    nodes, weights = gauss_legendre_rule(n)
    lo = bp[:-1]
    hi = bp[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    # (n_panels, n) abscissae, flattened for a single f call
    xs = mid[:, None] + half[:, None] * nodes[None, :]
    vals = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    return float(np.sum(half[:, None] * weights[None, :] * vals))


def knot_intervals(x, s) -> np.ndarray:
    """The knot interval of each point of s as PPoly picks it: the last
    knot at or before the point, clipped to the first and last interval,
    so points out of range extrapolate and the last knot belongs to the
    last interval."""
    idx = np.searchsorted(x, s, side="right")
    idx -= 1
    np.maximum(idx, 0, out=idx)
    return np.minimum(idx, x.size - 2, out=idx)


def with_midpoints(x, mids) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(np.concatenate([x, mids])) for strictly increasing knots
    x and one point mids[i] per knot interval, and the knot interval of
    every point (knot_intervals). When each mids[i] lies strictly inside
    its interval, the points interleave and their intervals are known:
    knot i and midpoint i lie in interval i, the last knot in the last
    one. Otherwise they are sorted and searched."""
    if np.all(mids > x[:-1]) and np.all(mids < x[1:]):
        s = np.empty(2 * x.size - 1)
        s[0::2] = x
        s[1::2] = mids
        idx = np.arange(s.size) // 2
        idx[-1] = x.size - 2
        return s, idx
    s = np.unique(np.concatenate([x, mids]))
    return s, knot_intervals(x, s)


def cubic_rows(c, x, X, idx=None, nu: int = 0) -> np.ndarray:
    """A piecewise cubic's nu-th derivative at points whose knot interval
    is known.

    c (4, intervals) and x (knots) are laid out as scipy's PPoly. Row r of
    X (its first axis) lies in knot interval idx[r], or in interval r when
    idx is None, so no interval search is made. The floats are PPoly's:
    with s = X - x[interval] and a_k the coefficient of s^k, its
    evaluate_poly1 sums
      nu = 0: ((0 + a0) + a1 s) + a2 (s s) + a3 ((s s) s),
      nu = 1: ((0 + a1) + (a2 s) 2) + (a3 (s s)) 3,
      nu = 2: (0 + a2 2) + (a3 s) 6,
      nu = 3: 0 + a3 6, and 0 above,
    where PPoly picks the interval itself (knot_intervals); a NaN point
    gives NaN for every nu.
    """
    if nu < 0:
        raise ValueError("cubic_rows evaluates derivatives, nu >= 0")
    lo = x[:-1] if idx is None else x.take(idx)
    tail = (1,) * (np.ndim(X) - 1)
    # take, not fancy indexing: the same gather, several times faster
    a3, a2, a1, a0 = (c if idx is None else c.take(idx, axis=1)).reshape(
        4, -1, *tail)
    s = X - lo.reshape(-1, *tail)
    # in place, one commuted operand at a time: the same floats with
    # three temporaries instead of ten
    if nu == 0:
        out = a1 * s
        out += 0.0 + a0
        ss = s * s
        s *= ss
        ss *= a2
        out += ss
        s *= a3
        out += s
    elif nu == 1:
        out = a2 * s
        out *= 2.0
        out += 0.0 + a1
        s *= s
        s *= a3
        s *= 3.0
        out += s
    elif nu == 2:
        out = a3 * s
        out *= 6.0
        out += 0.0 + a2 * 2.0
    else:
        out = np.where(s != s, s, 0.0 + a3 * 6.0 if nu == 3 else 0.0)
    return out


class PiecewiseCubic:
    """A piecewise cubic: power coefficients c (4, intervals) over knots x,
    laid out as scipy's PPoly, with PPoly's floats.

    Calling it at s (any shape) finds each point's knot interval
    (knot_intervals) and evaluates the nu-th derivative there
    (cubic_rows). Where the intervals are known, call cubic_rows.
    """

    __slots__ = ("c", "x")

    def __init__(self, c: np.ndarray, x: np.ndarray) -> None:
        self.c = c
        self.x = x

    def __call__(self, s, nu: int = 0):
        s = np.asarray(s, dtype=float)
        flat = s.ravel()
        return cubic_rows(self.c, self.x, flat, knot_intervals(self.x, flat),
                          nu).reshape(s.shape)


def hermite_cubic(x, y, dydx) -> PiecewiseCubic:
    """The cubic Hermite interpolant of values y and slopes dydx at knots x.

    Its coefficients are scipy CubicHermiteSpline(x, y, dydx).c: the same
    formulas in the same order, without its validation passes. The caller
    supplies strictly increasing knots and finite data.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    c = np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]))
    return PiecewiseCubic(c, x)


def bernstein(c, x) -> tuple[np.ndarray, np.ndarray]:
    """Bernstein coefficients (4, intervals) of each cubic piece of a
    piecewise cubic (c, x laid out as scipy's PPoly) on its knot interval,
    and the sum of the absolute power coefficients per interval, the scale
    of their rounding error. On its interval a cubic lies between its
    least and largest coefficient."""
    h = np.diff(x)
    c3, c2, c1, a0 = c
    a1, a2, a3 = c1 * h, c2 * h * h, c3 * h * h * h
    b1 = a0 + a1 / 3.0
    bern = np.stack([a0, b1, b1 + (a1 + a2) / 3.0, a0 + a1 + a2 + a3])
    return bern, np.abs(a0) + np.abs(a1) + np.abs(a2) + np.abs(a3)


def cubic_bounds(c, x, closed_start: bool,
                 closed_end: bool) -> tuple[bool, float]:
    """Whether every cubic piece is >= 0 on its knot interval, and an upper
    bound of |value| over all of them, from one bernstein pass.

    Each Bernstein coefficient must clear a rounding margin of 8e-16 times
    the scale; a declared closed end may touch zero. An interval that
    fails is split once at its midpoint by de Casteljau, whose two halves'
    coefficients bound the cubic more tightly, before the test gives up.
    The bound is the largest |coefficient| plus 1e-12 of its interval's
    scale.
    """
    bern, scale = bernstein(c, x)
    top = float(np.max(np.max(np.abs(bern), axis=0) + 1e-12 * scale))
    margin = 8e-16 * scale
    floor = np.broadcast_to(margin, bern.shape).copy()
    if closed_start:
        floor[0, 0] = -margin[0]
    if closed_end:
        floor[3, -1] = -margin[-1]
    bad = ~(bern >= floor).all(axis=0)
    if not bad.any():
        return True, top
    b0, b1, b2, b3 = bern[:, bad]
    m01, m12, m23 = 0.5 * (b0 + b1), 0.5 * (b1 + b2), 0.5 * (b2 + b3)
    left2, right1 = 0.5 * (m01 + m12), 0.5 * (m12 + m23)
    # left half b0, m01, left2, mid; right half mid, right1, m23, b3
    halves = np.stack([b0, m01, left2, 0.5 * (left2 + right1), right1, m23, b3])
    return bool((halves >= floor[[0, 1, 1, 1, 1, 1, 3]][:, bad]).all()), top
