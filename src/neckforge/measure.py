"""Volume and diameter measurement for profile pieces.

Volume integrates the product of warp powers against the unit volumes of
the sphere factors with 12-point Gauss-Legendre panels on the spline knots.
That is exact when 3 * sum(component_dims) <= 23 and every warp's cubic is
>= 0 on every knot interval, checked through its four Bernstein
coefficients with a rounding margin (a declared closed end may touch zero).
Such a piece takes one pass on the halved panels, the float the halving
check returns after its first refinement. Any other piece falls back to
the halving check, so volumes of anything less tame fail loudly instead of
silently drifting.

Diameter: the summed axial length is a rigorous lower bound (arclength is
1-Lipschitz). The upper value, length + pi * max sqrt(sum of squared
warps), takes its maximum over samples, so it is not a bound (ROADMAP
item 3).
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureNonConvergence
from .models import unit_sphere_volume
from .numerics import gauss_legendre_panels

__all__ = [
    "adaptive_panel_integral",
    "profile_volume",
    "total_volume",
    "diameter_bounds",
]


def _halved(bp: np.ndarray) -> np.ndarray:
    """The breakpoints with every panel split at its midpoint."""
    mids = 0.5 * (bp[:-1] + bp[1:])
    return np.sort(np.concatenate([bp, mids]))


def adaptive_panel_integral(f, breakpoints, rel_tol: float = 1e-10,
                            max_depth: int = 12, npts: int = 12) -> float:
    """Gauss-Legendre panel integral with a panel-halving convergence check.

    Halves every panel until two successive refinements agree to rel_tol;
    raises QuadratureNonConvergence after max_depth halvings.
    """
    bp = np.asarray(breakpoints, dtype=float)
    prev = gauss_legendre_panels(f, bp, npts)
    for _ in range(max_depth):
        bp = _halved(bp)
        cur = gauss_legendre_panels(f, bp, npts)
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


def _nonnegative_cubics(spline, closed_start: bool, closed_end: bool) -> bool:
    """Whether every cubic piece of the spline is >= 0 on its knot
    interval: on [0, 1] a cubic lies above its least Bernstein coefficient."""
    h = np.diff(spline.x)
    c3, c2, c1, a0 = spline.c
    a1, a2, a3 = c1 * h, c2 * h * h, c3 * h * h * h
    b1 = a0 + a1 / 3.0
    bern = np.stack([a0, b1, b1 + (a1 + a2) / 3.0, a0 + a1 + a2 + a3])
    margin = 8e-16 * (np.abs(a0) + np.abs(a1) + np.abs(a2) + np.abs(a3))
    ok = bern >= margin
    ok[0, 0] |= closed_start and bern[0, 0] >= -margin[0]
    ok[3, -1] |= closed_end and bern[3, -1] >= -margin[-1]
    return bool(ok.all())


def profile_volume(profile, rel_tol: float = 1e-10) -> float:
    """Riemannian volume of one profile piece; rel_tol is the fallback's."""
    f = _volume_integrand(profile)
    if 3 * sum(profile.component_dims) <= 23 and all(
            _nonnegative_cubics(*warp) for warp in profile.warp_splines):
        return gauss_legendre_panels(f, _halved(profile.grid))
    return adaptive_panel_integral(f, profile.grid, rel_tol=rel_tol)


def total_volume(profiles, rel_tol: float = 1e-10) -> float:
    """Sum of piece volumes for a chain of profiles."""
    return float(sum(profile_volume(p, rel_tol=rel_tol) for p in profiles))


def diameter_bounds(profiles, refine: int = 4) -> tuple[float, float]:
    """(lower, upper) diameter estimates for a glued chain.

    Lower, rigorous: the summed axial length (the arclength function of
    the chain is 1-Lipschitz, so boundary fibers at the two ends are at
    least this far apart; for chains closed by caps the bound still holds
    between the extreme fibers). Upper: worst-case axial travel plus one
    traversal of the largest product fiber, pi * sqrt(sum v_i^2), with the
    fiber maximum sampled, so not a bound (ROADMAP item 3).
    """
    length = 0.0
    max_fiber = 0.0
    for prof in profiles:
        length += prof.length
        grid = prof.grid
        h = (grid[-1] - grid[0]) / (grid.size - 1)
        pts = [grid]
        for k in range(1, refine):
            pts.append(grid[:-1] + (k / refine) * h)
        s = np.concatenate(pts)
        sq = np.zeros_like(s)
        for v in prof.component_values(s):
            sq = sq + v * v
        max_fiber = max(max_fiber, float(np.max(np.sqrt(sq))))
    return length, length + np.pi * max_fiber
