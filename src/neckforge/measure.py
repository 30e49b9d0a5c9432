"""Volume and diameter measurement for profile pieces.

Volume integrates the product of warp powers against the unit volumes of
the sphere factors with GL_POINTS-point Gauss-Legendre panels on the
spline knots. That is exact when 3 * sum(component_dims) < 2 * GL_POINTS
and every warp's cubic is >= 0 on every knot interval, checked through its
four Bernstein coefficients with a rounding margin (a declared closed end
may touch zero). Such a piece takes one pass on the halved panels, the
float the halving check returns after its first refinement. Any other
piece falls back to the halving check to rel_tol 1e-10, so volumes of
anything less tame fail loudly instead of silently drifting.

Diameter: the summed axial length is a rigorous lower bound (arclength is
1-Lipschitz). The upper value, length + pi * max sqrt(sum of squared
warps), takes its maximum over each grid refined DIAMETER_REFINE times, so
it is still a sampled maximum, not a bound (ROADMAP item 3). Only the
pieces that can hold that maximum are sampled: each piece's fiber is
bounded above from its cubics' Bernstein coefficients, and pieces are
sampled from the largest bound down until no remaining bound exceeds the
running maximum, typically one or two of a tunnel's pieces.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureNonConvergence
from .models import unit_sphere_volume
from .numerics import GL_POINTS, gauss_legendre_panels

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


def _volume_integrand(profile):
    dims = profile.component_dims
    factor = 1.0
    for d in dims:
        factor *= unit_sphere_volume(d)

    def integrand(s):
        out = factor
        for v, d in zip(profile.component_values(s), dims):
            out = out * np.abs(v) ** d
        return out

    return integrand


def _bernstein(spline) -> tuple[np.ndarray, np.ndarray]:
    """Bernstein coefficients (4, intervals) of each cubic piece of the
    spline on its knot interval, and the sum of the absolute power
    coefficients per interval, the scale of their rounding error. On its
    interval a cubic lies between its least and largest coefficient."""
    h = np.diff(spline.x)
    c3, c2, c1, a0 = spline.c
    a1, a2, a3 = c1 * h, c2 * h * h, c3 * h * h * h
    b1 = a0 + a1 / 3.0
    bern = np.stack([a0, b1, b1 + (a1 + a2) / 3.0, a0 + a1 + a2 + a3])
    return bern, np.abs(a0) + np.abs(a1) + np.abs(a2) + np.abs(a3)


def _nonnegative_cubics(spline, closed_start: bool, closed_end: bool) -> bool:
    """Whether every cubic piece of the spline is >= 0 on its knot interval.

    Each Bernstein coefficient must clear a rounding margin; a declared
    closed end may touch zero. An interval that fails is split once at its
    midpoint by de Casteljau, whose two halves' coefficients bound the
    cubic more tightly, before the test gives up.
    """
    bern, scale = _bernstein(spline)
    margin = 8e-16 * scale
    floor = np.broadcast_to(margin, bern.shape).copy()
    if closed_start:
        floor[0, 0] = -margin[0]
    if closed_end:
        floor[3, -1] = -margin[-1]
    bad = ~(bern >= floor).all(axis=0)
    if not bad.any():
        return True
    b0, b1, b2, b3 = bern[:, bad]
    m01, m12, m23 = 0.5 * (b0 + b1), 0.5 * (b1 + b2), 0.5 * (b2 + b3)
    left2, right1 = 0.5 * (m01 + m12), 0.5 * (m12 + m23)
    # left half b0, m01, left2, mid; right half mid, right1, m23, b3
    halves = np.stack([b0, m01, left2, 0.5 * (left2 + right1), right1, m23, b3])
    return bool((halves >= floor[[0, 1, 1, 1, 1, 1, 3]][:, bad]).all())


def profile_volume(profile) -> float:
    """Riemannian volume of one profile piece."""
    f = _volume_integrand(profile)
    if 3 * sum(profile.component_dims) < 2 * GL_POINTS and all(
            _nonnegative_cubics(*warp) for warp in profile.warp_splines):
        return gauss_legendre_panels(f, _halved(profile.grid))
    return adaptive_panel_integral(f, profile.grid)


def _fiber_bound(profile) -> float:
    """An upper bound for the sampled fiber sqrt(sum v_i^2) of a piece.

    Each warp's cubics lie within their Bernstein coefficients; the slack
    of 1e-12 times the power-coefficient scale, and again on the result,
    stays far above the rounding of the coefficients and of the sampled
    evaluation, sum and square root.
    """
    sq = 0.0
    for spline, _, _ in profile.warp_splines:
        bern, scale = _bernstein(spline)
        top = float(np.max(np.max(np.abs(bern), axis=0) + 1e-12 * scale))
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
