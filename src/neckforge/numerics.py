"""Small numerical building blocks shared across modules.

Polynomial blend windows (the C^2 and C^3 flavors used by collars, fades and
caps) and panelized Gauss-Legendre quadrature. Everything here is
elementary and vectorized; a window clamps a Python float without numpy,
to the same bits, for the designer's RK4 loop. Nothing imports from the
rest of the package except the error types.
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
