"""Volume and diameter measurement for profile pieces.

Volume integrates the product of warp powers against the unit volumes of
the sphere factors with GL_POINTS-point Gauss-Legendre panels on the
spline knots, reading each warp's cubic on the knot interval that every
abscissa is known to lie in (the profile's warp_rows), with the floats of
the spline's own evaluation. A warp's power |v|^d is the product of d
factors |v|, taken left to right, not numpy's power loop, whose last
bit for d >= 3 depends on the SIMD code it dispatches to. A constant
warp (all samples equal) is a factor: its one value, raised to its
dimension once, multiplies the other warp's rows, the floats that full
rows of equal values gave. The pass is exact when
3 * sum(component_dims) < 2 * GL_POINTS and every
warp's cubic is >= 0 on every knot interval, checked through its four
Bernstein coefficients with a rounding margin (a declared closed end may
touch zero; the profile's cubic_bounds). Such a
piece takes one pass on the halved panels, the float the halving check
returns after its first refinement. Any other piece falls back to the
halving check to rel_tol 1e-10, so volumes of anything less tame fail
loudly instead of silently drifting.

Diameter: the summed axial length is a rigorous lower bound (arclength is
1-Lipschitz). The upper bound is length + pi * the largest fiber bound,
where a piece's fiber sqrt(sum v_i^2) is bounded above from its warps'
Bernstein coefficients, the same cubic_bounds pass the volume check reads.
Both are statements about the represented chain: its spline warps.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import QuadratureNonConvergence
from .models import unit_sphere_volume
from .numerics import GL_POINTS, gauss_legendre_panels

__all__ = [
    "adaptive_panel_integral",
    "profile_volume",
    "diameter_bounds",
]


def _halved(bp: np.ndarray) -> np.ndarray:
    """The breakpoints with every panel split at its midpoint."""
    mids = 0.5 * (bp[:-1] + bp[1:])
    return np.sort(np.concatenate([bp, mids]))


def adaptive_panel_integral(f, breakpoints, rel_tol: float = 1e-10,
                            max_depth: int = 12) -> float:
    """Gauss-Legendre panel integral with a panel-halving convergence check.

    Halves every panel until two successive refinements agree to rel_tol;
    raises QuadratureNonConvergence after max_depth halvings.
    """
    bp = np.asarray(breakpoints, dtype=float)
    prev = gauss_legendre_panels(f, bp)
    for _ in range(max_depth):
        bp = _halved(bp)
        cur = gauss_legendre_panels(f, bp)
        scale = max(abs(cur), abs(prev), 1e-300)
        if abs(cur - prev) <= rel_tol * scale:
            return cur
        prev = cur
    raise QuadratureNonConvergence(
        f"integral did not stabilize to {rel_tol} within {max_depth} halvings")


def _volume_integrand(profile):
    """The volume density at abscissae that fill the knot intervals in
    order, the same number in each: every Gauss-Legendre pass over the
    profile's grid or a halving of it."""
    dims = profile.component_dims
    factor = 1.0
    for d in dims:
        factor *= unit_sphere_volume(d)
    intervals = profile.grid.size - 1

    def integrand(s):
        X = s.reshape(intervals, -1)
        out = factor
        for v, d in zip(profile.warp_rows(X), dims):
            out = out * reduce(np.multiply, [np.abs(v)] * d)
        return np.broadcast_to(out, X.shape)

    return integrand


def profile_volume(profile) -> float:
    """Riemannian volume of one profile piece."""
    if 3 * sum(profile.component_dims) < 2 * GL_POINTS and all(
            nonnegative for nonnegative, _ in profile.cubic_bounds):
        return gauss_legendre_panels(_volume_integrand(profile),
                                     _halved(profile.grid))
    return adaptive_panel_integral(_volume_integrand(profile), profile.grid)


def _fiber_bound(profile) -> float:
    """An upper bound for the fiber sqrt(sum v_i^2) of a piece.

    Each warp's cubics lie within their Bernstein coefficients; the slack
    of 1e-12 times the power-coefficient scale (numerics.cubic_bounds),
    and again on the result, stays far above the rounding of the
    coefficients and of any evaluation, sum and square root.
    """
    sq = 0.0
    for _, top in profile.cubic_bounds:
        sq += top * top
    return (1.0 + 1e-12) * float(np.sqrt(sq))


def diameter_bounds(profiles) -> tuple[float, float]:
    """(lower, upper) bounds on the diameter of a glued chain.

    Lower: the summed axial length (the arclength function of the chain
    is 1-Lipschitz, so boundary fibers at the two ends are at least this
    far apart; for chains closed by caps the bound still holds between the
    extreme fibers). Upper: any two points are joined by one traversal of
    a fiber, at most pi * sqrt(sum v_i^2) long, then axial travel at most
    the summed length, so length + pi * the largest _fiber_bound.
    """
    length = 0.0
    max_fiber = 0.0
    for prof in profiles:
        length += prof.length
        max_fiber = max(max_fiber, _fiber_bound(prof))
    return length, length + np.pi * max_fiber
