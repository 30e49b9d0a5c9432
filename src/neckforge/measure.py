"""Volume and diameter measurement for profile pieces.

Volume integrates the product of warp powers against the unit volumes of
the sphere factors with GL_POINTS-point Gauss-Legendre panels on the
spline knots. That is exact when 3 * sum(component_dims) < 2 * GL_POINTS
and every warp's cubic is >= 0 on every knot interval, checked through its
four Bernstein coefficients with a rounding margin (a declared closed end
may touch zero; the profile's cubic_bounds). Such a piece takes one pass
on the halved panels, the float the halving check returns after its
first refinement; the pass reads each warp's cubic on the knot interval
that every abscissa is known to lie in (numerics.cubic_rows), with the
floats of the spline's own evaluation. Any other piece falls back to the
halving check to rel_tol 1e-10, so volumes of anything less tame fail
loudly instead of silently drifting.

Diameter: the summed axial length is a rigorous lower bound (arclength is
1-Lipschitz). The upper value, length + pi * max sqrt(sum of squared
warps), takes its maximum over each grid refined DIAMETER_REFINE times, so
it is still a sampled maximum, not a bound (ROADMAP item 3). Only the
pieces that can hold that maximum are sampled: each piece's fiber is
bounded above from its cubics' Bernstein coefficients, and pieces are
sampled from the largest bound down until no remaining bound exceeds the
running maximum, typically one or two of a tunnel's pieces. Both the
volume check and the fiber bound read the profile's cubic_bounds, one
Bernstein pass per warp; a reversed piece (a tunnel's mirror side) takes
the bounds of the piece it reverses and builds no spline unless the
sweep samples it.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import PPoly

from .errors import QuadratureNonConvergence
from .models import unit_sphere_volume
from .numerics import GL_POINTS, cubic_rows, gauss_legendre_panels

__all__ = [
    "adaptive_panel_integral",
    "profile_volume",
    "diameter_bounds",
]

# the diameter's fiber maximum samples each grid interval this many times
DIAMETER_REFINE = 4


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


def _volume_integrand(profile, warp_values=None):
    """The volume density at s; warp_values(s) gives the warps' values
    there (profile.component_values unless given)."""
    dims = profile.component_dims
    factor = 1.0
    for d in dims:
        factor *= unit_sphere_volume(d)
    values = profile.component_values if warp_values is None else warp_values

    def integrand(s):
        out = factor
        for v, d in zip(values(s), dims):
            out = out * np.abs(v) ** d
        return out

    return integrand


def _knot_rows(spline, X):
    """The warp at X, row r in knot interval r, without interval search."""
    if isinstance(spline, PPoly):
        return cubic_rows(spline.c, spline.x, X)
    return spline(X)  # a closed form


def profile_volume(profile) -> float:
    """Riemannian volume of one profile piece."""
    if 3 * sum(profile.component_dims) < 2 * GL_POINTS and all(
            nonnegative for nonnegative, _ in profile.cubic_bounds):
        grid = profile.grid
        warps = [spline for spline, _, _ in profile.warp_splines]
        # the halved panels' abscissae, 2 * GL_POINTS per knot interval
        rows = lambda s: [_knot_rows(spline, s.reshape(grid.size - 1, -1))
                          for spline in warps]
        return gauss_legendre_panels(_volume_integrand(profile, rows),
                                     _halved(grid))
    return adaptive_panel_integral(_volume_integrand(profile), profile.grid)


def _fiber_bound(profile) -> float:
    """An upper bound for the sampled fiber sqrt(sum v_i^2) of a piece.

    Each warp's cubics lie within their Bernstein coefficients; the slack
    of 1e-12 times the power-coefficient scale (numerics.cubic_bounds),
    and again on the result, stays far above the rounding of the
    coefficients and of the sampled evaluation, sum and square root. It
    also covers the few ulps by which the spline of a reversed piece
    differs from its source's spline reversed, so a reversed piece takes
    its source's bounds and builds no spline of its own.
    """
    source = profile if profile.reversed_from is None else profile.reversed_from
    sq = 0.0
    for _, top in source.cubic_bounds:
        sq += top * top
    return (1.0 + 1e-12) * float(np.sqrt(sq))


def _sampled_fiber(profile) -> float:
    """Max of sqrt(sum v_i^2) over the grid refined DIAMETER_REFINE times."""
    grid = profile.grid
    h = (grid[-1] - grid[0]) / (grid.size - 1)
    pts = [grid]
    for k in range(1, DIAMETER_REFINE):
        pts.append(grid[:-1] + (k / DIAMETER_REFINE) * h)
    s = np.concatenate(pts)
    sq = np.zeros_like(s)
    for v in profile.component_values(s):
        sq = sq + v * v
    return float(np.max(np.sqrt(sq)))


def diameter_bounds(profiles) -> tuple[float, float]:
    """(lower, upper) diameter estimates for a glued chain.

    Lower, rigorous: the summed axial length (the arclength function of
    the chain is 1-Lipschitz, so boundary fibers at the two ends are at
    least this far apart; for chains closed by caps the bound still holds
    between the extreme fibers). Upper: worst-case axial travel plus one
    traversal of the largest product fiber, pi * sqrt(sum v_i^2), with the
    fiber maximum sampled, so not a bound (ROADMAP item 3). Pieces are
    sampled in descending order of their Bernstein fiber bound until no
    remaining bound exceeds the running maximum; max is exact, so this is
    the float a sweep of every piece returns.
    """
    length = 0.0
    for prof in profiles:
        length += prof.length
    bounds = [_fiber_bound(prof) for prof in profiles]
    max_fiber = 0.0
    for i in sorted(range(len(bounds)), key=bounds.__getitem__, reverse=True):
        if bounds[i] <= max_fiber:
            break
        max_fiber = max(max_fiber, _sampled_fiber(profiles[i]))
    return length, length + np.pi * max_fiber
