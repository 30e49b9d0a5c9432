"""Small numerical building blocks shared across modules.

Polynomial blend windows (the C^2 and C^3 flavors used by collars, fades and
caps), panelized Gauss-Legendre quadrature, and two tools for piecewise
cubics: evaluation at abscissae whose knot interval the caller already
knows, and bounds from their Bernstein coefficients.
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
    "cubic_rows",
    "bernstein",
    "cubic_bounds",
]

# nodes per Gauss-Legendre panel, everywhere in the package: exact for
# polynomials of degree < 2 * GL_POINTS on each panel
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
def gauss_legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the GL_POINTS-point Gauss-Legendre rule on [-1, 1].

    Computed once and shared, so the arrays are read-only.
    """
    nodes, weights = np.polynomial.legendre.leggauss(GL_POINTS)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_legendre_panels(f, breakpoints) -> float:
    """Integrate f over [breakpoints[0], breakpoints[-1]] panel by panel.

    Each consecutive pair of breakpoints becomes one Gauss-Legendre panel
    with GL_POINTS nodes. f must accept a 1d array of abscissae. Exact for
    polynomials of degree < 2 * GL_POINTS on each panel, which makes
    integrals of spline data with panel edges at the knots reproducible to
    roundoff.
    """
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1 or bp.size < 2:
        raise DegenerateGrid("need at least two breakpoints to integrate")
    nodes, weights = gauss_legendre_rule()
    lo = bp[:-1]
    hi = bp[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    # (n_panels, GL_POINTS) abscissae, flattened for a single f call
    xs = mid[:, None] + half[:, None] * nodes[None, :]
    vals = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    return float(np.sum(half[:, None] * weights[None, :] * vals))


def cubic_rows(c, x, X, idx=None) -> np.ndarray:
    """A piecewise cubic at rows whose knot interval is known.

    c (4, intervals) and x (knots) are laid out as scipy's PPoly. Row r of
    the 2d array X lies in knot interval idx[r], or in interval r when idx
    is None, so no interval search is made. The floats are PPoly's: with
    s = X - x[interval] and a_k the coefficient of s^k, its evaluate_poly1
    sums ((0 + a0) + a1 s) + a2 (s s) + a3 ((s s) s), where PPoly picks
    the interval itself; out of range, it extrapolates with the first or
    the last one.
    """
    lo = x[:-1] if idx is None else x[idx]
    a3, a2, a1, a0 = (c if idx is None else c[:, idx])[:, :, None]
    s = X - lo[:, None]
    # in place, one commuted operand at a time: the same floats with
    # three temporaries instead of ten
    out = a1 * s
    out += 0.0 + a0
    ss = s * s
    s *= ss
    ss *= a2
    out += ss
    s *= a3
    out += s
    return out


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
