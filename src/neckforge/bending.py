"""Budget-driven bending curves: the engine behind every neck.

A neck is swept by a unit-speed curve (t(s), r(s)) in an ambient model's
axial half-plane, with direction angle theta measured from the inward
radial direction: t' = sin(theta), r' = -cos(theta). The swept
hypersurface picks up scalar curvature

    R = base + (q-1)(q-2)(c + G^2 sin^2 theta) + 2(q-1) c cos^2 theta
        - 2(q-1) k G sin(theta),

with G = sn'/sn the radial log-slope, k = theta' the curve's geodesic
curvature (inner normal), q the slice dimension and base the constant
contribution of the S^p factor. The drop below the ambient value kappa is

    kappa - R = (q-1) sin(theta) [2 k G + (2c - (q-2) G^2) sin(theta)],

which is linear and increasing in k. The designer therefore never assigns
more curvature than the allocator

    k_alloc = b_eff / (2 (q-1) sin(theta) G)
            + ((q-2) G^2 - 2c) (1 - m2) sin(theta) / (2 G)

permits, where b_eff is the budget scaled by the spend margin
m1 = BEND_MARGIN and m2 = QUAD_MARGIN holds back part of the favorable
quadratic term. Keeping k <= k_alloc at every point forces
kappa - R <= b_eff < budget, with a cushion that the final verification
then confirms on the represented object itself.

The curve runs through phases: a vertical drop (theta = 0, isometric to an
ambient annulus), a quartic-window fade-in of the allocator (k turns on
with three vanishing derivatives), a follow phase riding the allocator, a
blend onto the frozen curvature value quad_part(crossing) once sin(theta)
crosses FREEZE_SIN (the frozen value is a lower bound for the allocator
from that point on, so the invariant survives), an analytic taper over
the last TAPER_ANGLE that lands theta exactly on pi/2 with two flat
derivatives, and a short exact horizontal margin. All switching windows
are C^1 in k, so theta is C^2. Each RK4 step's first slope is the
curvature committed at the node it starts from, so a step evaluates the
phase's curvature four times: three stages and the new node.

The represented object is the cubic Hermite spline of theta (derivative
data k); radius and axial position are recovered from it by per-interval
Gauss-Legendre quadrature, which is exact to roundoff for these
integrands. The designer hands its spline to the curve, and the
quadrature reads it on each abscissa's known knot interval.
BendingCurve._state reads theta, k and r together, on known or searched
knot intervals: the verification samples, the scalar curvature at
arbitrary points and the boundary jets of the emitted segments all come
from it (every cut of a curve's pieces in one call), and radius_at reads
r alone the same way.
Verification evaluates the closed form above and, as an independent
route, the Gauss equation with the explicit principal curvature
spectrum and ambient sectional curvature table, on nodes and midpoints,
whose knot intervals are known, from one evaluation of theta, k and r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CodimensionTooSmall,
    FloorCheckFailed,
    InfeasibleBudget,
    ParameterOutOfRange,
    RadiusExceedsModel,
)
from .models import AmbientModel
from .numerics import (PiecewiseCubic, cubic_rows, gauss_legendre_rule,
                       hermite_cubic, knot_intervals, smoothstep5,
                       smoothstep7, with_midpoints)
from .profiles import make_profile

__all__ = [
    "CurveDesignParams",
    "BendingCurve",
    "CurveCheck",
    "design_bending_curve",
    "sigma_principal_curvatures",
    "sigma_scalar_closed_form",
    "sigma_scalar_gauss",
    "save_curve_csv",
]

# the curve enters at 1.98 * tube_radius (inside the removed 2 * tube_radius
# ball) and runs straight down to 0.99 * tube_radius before bending
START_RADIUS_FACTOR = 1.98
BEND_RADIUS_FACTOR = 0.99
# fraction of the budget the allocator actually spends
BEND_MARGIN = 0.5
# fraction of the quadratic curvature credit held back
QUAD_MARGIN = 0.1
# sin(theta) threshold where the curvature freezes
FREEZE_SIN = 0.8
# angle left for the final taper onto theta = pi/2
TAPER_ANGLE = 0.15
# bound on k * ds per integration step, before grid_density divides it
STEP_ANGLE = 0.02


# -- pointwise hypersurface data ----------------------------------------------


def sigma_principal_curvatures(model: AmbientModel, theta, curv, radius):
    """Principal curvature spectrum of the swept hypersurface.

    With respect to the inner normal: the curve direction carries k, each
    of the q-1 link directions carries -G sin(theta), and the p base
    directions are flat. Returns shape (..., n) with that ordering.
    """
    theta = np.asarray(theta, dtype=float)
    curv = np.broadcast_to(np.asarray(curv, dtype=float), theta.shape)
    radius = np.broadcast_to(np.asarray(radius, dtype=float), theta.shape)
    G = model.radial_log_slope(radius)
    q = model.slice_dim
    out = np.zeros(theta.shape + (model.surface_dim,))
    out[..., 0] = curv
    out[..., 1:q] = (-G * np.sin(theta))[..., None]
    return out


def sigma_scalar_closed_form(model: AmbientModel, theta, curv, radius):
    """Scalar curvature of the swept hypersurface, exact closed form."""
    theta = np.asarray(theta, dtype=float)
    curv = np.asarray(curv, dtype=float)
    G = model.radial_log_slope(radius)
    p, q, c = model.base_dim, model.slice_dim, model.slice_curv
    st = np.sin(theta)
    ct = np.cos(theta)
    base = p * (p - 1) / model.base_radius**2 if p >= 1 else 0.0
    return (base + (q - 1) * (q - 2) * (c + G * G * st * st)
            + 2.0 * (q - 1) * c * ct * ct
            - 2.0 * (q - 1) * curv * G * st)


def _ambient_sectional_matrix(model: AmbientModel, theta) -> np.ndarray:
    """Sectional curvatures of the ambient model between adapted frame
    directions, one (n, n) table per point of a 1d theta: shape (N, n, n).

    Index 0 is the curve direction, 1..q-1 the link sphere, q..n-1 the
    base sphere. Vanishing entries are genuine zeros of the product
    geometry."""
    n = model.surface_dim
    q = model.slice_dim
    c = model.slice_curv
    K = np.zeros((theta.size, n, n))
    # cos^2(theta) per point in libm arithmetic: pow(x, 2) and numpy's x * x
    # can differ in the last bit, and the cross-check error between the two
    # routes, which certificates record, would move with it
    ct2 = np.fromiter((math.cos(t) ** 2 for t in theta.tolist()), float,
                      theta.size)
    # curve direction mixes the flat axial line with the radial direction,
    # so against a link direction it sees c weighted by cos^2(theta)
    K[:, 0, 1:q] = (c * ct2)[:, None]
    K[:, 1:q, 0] = (c * ct2)[:, None]
    K[:, 1:q, 1:q] = c
    if model.base_dim >= 1:
        K[:, q:, q:] = 1.0 / model.base_radius**2
    diag = np.arange(n)
    K[:, diag, diag] = 0.0
    return K


def sigma_scalar_gauss(model: AmbientModel, theta, curv, radius):
    """Scalar curvature via the Gauss equation, as an independent route.

    Sums ambient sectional curvatures over ordered frame pairs and adds
    H^2 - |A|^2 from the principal curvature spectrum. Agrees with
    sigma_scalar_closed_form to roundoff; the two share no algebra. All
    points are done at once; each row sum runs over the same contiguous
    values as a per-point sum, so the result does not depend on how many
    points share a call. Scalars come back with shape (1,).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    curv = np.broadcast_to(np.asarray(curv, dtype=float), theta.shape)
    radius = np.broadcast_to(np.asarray(radius, dtype=float), theta.shape)
    n = model.surface_dim
    lam = sigma_principal_curvatures(model, theta, curv, radius).reshape(-1, n)
    K = _ambient_sectional_matrix(model, theta.reshape(-1))
    H = np.sum(lam, axis=-1)
    A2 = np.sum(lam * lam, axis=-1)
    out = np.sum(K.reshape(-1, n * n), axis=-1) + H * H - A2
    return out.reshape(theta.shape)


# -- design parameters ---------------------------------------------------------


@dataclass(frozen=True)
class CurveDesignParams:
    """Inputs of design_bending_curve; the shape constants above are fixed.

    tube_radius is the tube scale (the curve starts at 1.98x it); budget
    is the permitted scalar curvature drop below the ambient value and
    defaults to tube_radius. grid_density scales every resolution of the
    designer at once.
    """

    model: AmbientModel
    tube_radius: float
    budget: float | None = None
    grid_density: float = 1.0

    def __post_init__(self) -> None:
        if not self.tube_radius > 0.0:
            raise ParameterOutOfRange("tube_radius must be positive")
        if self.budget is not None and not self.budget > 0.0:
            raise ParameterOutOfRange("budget must be positive when given")
        if not 0.25 <= self.grid_density <= 64.0:
            raise ParameterOutOfRange("grid_density must be in [0.25, 64]")

    @property
    def resolved_budget(self) -> float:
        return self.tube_radius if self.budget is None else self.budget


@dataclass(frozen=True)
class CurveCheck:
    """Result of verifying a curve against its design floor."""

    floor: float
    min_scalar: float
    argmin_s: float
    margin: float
    cross_check_error: float
    n_samples: int
    passed: bool


# -- the curve object ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BendingCurve:
    """A designed bending curve on a graded node grid.

    theta is represented by a cubic Hermite spline through (s, theta) with
    derivative data k; radius and axial position at the nodes come from
    exact per-interval quadrature of cos/sin of that spline, and the
    radius is extended off-node the same way. The scalar curvature
    evaluations below are therefore statements about the represented
    object, not about the ideal curve the designer aimed for.
    """

    model: AmbientModel
    params: CurveDesignParams
    s_nodes: np.ndarray
    theta_nodes: np.ndarray
    curvature_nodes: np.ndarray
    radius_nodes: np.ndarray
    axial_nodes: np.ndarray
    phase_breaks: tuple
    # the cubic Hermite spline through (s_nodes, theta_nodes) with slopes
    # curvature_nodes
    theta_spline: PiecewiseCubic = field(repr=False)
    _jets: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def length(self) -> float:
        return float(self.s_nodes[-1])

    @property
    def start_radius(self) -> float:
        return float(self.radius_nodes[0])

    @property
    def end_radius(self) -> float:
        """The neck waist radius the curve reaches at theta = pi/2."""
        return float(self.radius_nodes[-1])

    @property
    def design_floor(self) -> float:
        return self.model.scalar_curvature - self.params.resolved_budget

    def radius_at(self, s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        out = self._radius(s_arr, knot_intervals(self.s_nodes, s_arr))
        return out if s_arr.shape == np.shape(s) else out.reshape(np.shape(s))

    def _radius(self, s, idx):
        """r at the points s (1d) in knot intervals idx: the node radius
        less the quadrature of cos theta from the interval's start."""
        a = self.s_nodes[idx]
        half = 0.5 * (s - a)
        mid = 0.5 * (s + a)
        nodes, weights = gauss_legendre_rule()
        xs = mid[:, None] + half[:, None] * nodes[None, :]
        sp = self.theta_spline
        th = cubic_rows(sp.c, sp.x, xs, idx)
        cos_i = np.sum(half[:, None] * weights[None, :] * np.cos(th), axis=1)
        return self.radius_nodes[idx] - cos_i

    def _state(self, s, idx=None):
        """theta, k and r at s, each shaped as s; idx gives the knot
        interval of each point of s.ravel(), searched when None."""
        s = np.asarray(s, dtype=float)
        flat = s.ravel()
        if idx is None:
            idx = knot_intervals(self.s_nodes, flat)
        sp = self.theta_spline
        return tuple(v.reshape(s.shape) for v in (
            cubic_rows(sp.c, sp.x, flat, idx),
            cubic_rows(sp.c, sp.x, flat, idx, 1), self._radius(flat, idx)))

    def scalar_curvature(self, s):
        return sigma_scalar_closed_form(self.model, *self._state(s))

    def gauss_scalar(self, s):
        return sigma_scalar_gauss(self.model, *self._state(s))

    @cached_property
    def _floor_samples(self):
        """The verification points (nodes and interval midpoints), theta,
        k and r there, and the closed-form scalar curvature, shared by
        check and min_scalar_on. Node i and midpoint i lie in knot
        interval i, so nothing is searched."""
        nodes = self.s_nodes
        s, idx = with_midpoints(nodes, nodes[:-1] + 0.5 * np.diff(nodes))
        state = self._state(s, idx)
        return s, sigma_scalar_closed_form(self.model, *state), state

    def verify_floor(self) -> CurveCheck:
        """Evaluate both scalar curvature routes on nodes and midpoints and
        compare the minimum against the design floor."""
        s, closed, state = self._floor_samples
        gauss = sigma_scalar_gauss(self.model, *state)
        scale = np.maximum(1.0, np.abs(closed))
        cross = float(np.max(np.abs(closed - gauss) / scale))
        i = int(np.argmin(closed))
        floor = self.design_floor
        margin = float(closed[i] - floor)
        return CurveCheck(floor=floor, min_scalar=float(closed[i]),
                          argmin_s=float(s[i]), margin=margin,
                          cross_check_error=cross, n_samples=s.size,
                          passed=(margin >= 0.0 and cross <= 1e-9))

    @cached_property
    def check(self) -> CurveCheck:
        """verify_floor(), run once per curve."""
        return self.verify_floor()

    def min_scalar_on(self, s_lo: float, s_hi: float) -> float:
        """Minimum of the verification samples inside [s_lo, s_hi];
        nine fresh samples when the window holds none."""
        s, closed, _ = self._floor_samples
        inside = (s >= s_lo - 1e-15) & (s <= s_hi + 1e-15)
        if not np.any(inside):
            return float(np.min(self.scalar_curvature(
                np.linspace(s_lo, s_hi, 9))))
        return float(np.min(closed[inside]))

    # -- profile emission --------------------------------------------------

    def _boundary_jet(self, s: float):
        """Exact (value, d1, d2) of the link warp sn(r(s)) at a cut point,
        as _cut_jets stored it; a point not yet stored is evaluated alone.
        The two segments that meet at a cut share one jet."""
        if s not in self._jets:
            self._cut_jets((s,))
        return self._jets[s]

    def _cut_jets(self, points) -> None:
        """Store the exact jet of the link warp at every point, from one
        _state call.

        d1 = -sn'(r) cos(theta); d2 = -c sn cos^2(theta) + k sn' sin(theta).
        Values below roundoff scale are snapped to exact zeros so that flat
        ends glue bitwise.
        """
        th, k, r = self._state(np.array(points, dtype=float))
        c = self.model.slice_curv
        for s, th, k, sn, dsn in zip(
                points, th.tolist(), k.tolist(),
                self.model.warp(r).tolist(), self.model.warp_d1(r).tolist()):
            d1 = -dsn * math.cos(th)
            d2 = -c * sn * math.cos(th) ** 2 + k * dsn * math.sin(th)
            if abs(d1) < 1e-13:
                d1 = 0.0
            if abs(d2) < 1e-13 * max(1.0, abs(k)):
                d2 = 0.0
            self._jets[s] = (sn, d1, d2)

    def segment_profile(self, s_lo: float, s_hi: float, n_nodes: int = 1024):
        """Resample [s_lo, s_hi] of the swept metric as a profile piece.

        The link warp follows the curve, and a base sphere, when the
        model has one, is a constant first warp. Boundary jets are stored
        exactly from the curve, so adjacent segments share interface data
        to roundoff.
        """
        if not (0.0 <= s_lo < s_hi <= self.length + 1e-12):
            raise ParameterOutOfRange("segment must satisfy 0 <= s_lo < s_hi <= length")
        grid = np.linspace(0.0, s_hi - s_lo, n_nodes)
        warps, dims = self.model.fiber(
            self.model.warp(self.radius_at(grid + s_lo)))
        *base, link = warps
        flat = tuple((rho, 0.0, 0.0) for rho in base)
        return make_profile(
            grid, [np.full(n_nodes, rho) for rho in base] + [link], dims,
            jets_start=flat + (self._boundary_jet(s_lo),),
            jets_end=flat + (self._boundary_jet(s_hi),))


def save_curve_csv(curve: BendingCurve, path) -> None:
    """Write the curve's node table: s, theta, k, t, r, R_sigma."""
    R = curve.scalar_curvature(curve.s_nodes)
    lines = [
        "# neckforge-curve-version=1",
        f"# base_dim={curve.model.base_dim}",
        f"# slice_dim={curve.model.slice_dim}",
        f"# base_radius={curve.model.base_radius!r}",
        f"# slice_curv={curve.model.slice_curv!r}",
        f"# ambient_scalar={curve.model.scalar_curvature!r}",
        f"# budget={curve.params.resolved_budget!r}",
        f"# floor={curve.design_floor!r}",
        "# phases=" + ";".join(f"{name}@{s:.17g}" for name, s in curve.phase_breaks),
        "# columns=s,theta,k,t,r,R_sigma",
    ]
    for i in range(curve.s_nodes.size):
        lines.append("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % (
            curve.s_nodes[i], curve.theta_nodes[i], curve.curvature_nodes[i],
            curve.axial_nodes[i], curve.radius_nodes[i], R[i]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- the designer ---------------------------------------------------------------


def design_bending_curve(params: CurveDesignParams) -> BendingCurve:
    """Design, represent, and verify one bending curve.

    Raises CodimensionTooSmall for slice dimension < 3 (the allocator has
    no quadratic credit to ride), RadiusExceedsModel when the entry radius
    does not fit the model, InfeasibleBudget when the quadratic credit is
    not positive at the bend radius, and FloorCheckFailed if the finished
    object fails its own verification (which no admissible input should
    trigger).
    """
    model = params.model
    q = model.slice_dim
    c = model.slice_curv
    if q < 3:
        raise CodimensionTooSmall(
            f"bending needs slice dimension >= 3, got {q}")
    delta = params.tube_radius
    r_start = START_RADIUS_FACTOR * delta
    r_bend = BEND_RADIUS_FACTOR * delta
    if r_start >= model.max_radius:
        raise RadiusExceedsModel(
            f"entry radius {r_start} does not fit below the model equator "
            f"{model.max_radius}")
    budget = params.resolved_budget
    b_eff = budget * BEND_MARGIN
    one_m2 = 1.0 - QUAD_MARGIN

    if c == 0.0:
        def log_slope(r: float) -> float:
            return 1.0 / r
    else:
        _rt = math.sqrt(c)

        def log_slope(r: float) -> float:
            return _rt * math.cos(_rt * r) / math.sin(_rt * r)

    G_bend = log_slope(r_bend)
    if (q - 2) * G_bend * G_bend <= 2.0 * c:
        raise InfeasibleBudget(
            "no quadratic curvature credit at the bend radius: "
            f"(q-2) G^2 = {(q - 2) * G_bend**2:.6g} <= 2c = {2 * c:.6g}; "
            "shrink tube_radius")

    def quad_part(theta: float, r: float) -> float:
        G = log_slope(r)
        return ((q - 2) * G * G - 2.0 * c) * one_m2 * math.sin(theta) / (2.0 * G)

    def alloc(theta: float, r: float) -> float:
        # log_slope(r), written out: alloc runs four times per RK4 step
        G = 1.0 / r if c == 0.0 else _rt * math.cos(_rt * r) / math.sin(_rt * r)
        st = math.sin(theta)
        return (b_eff / (2.0 * (q - 1) * st * G)
                + ((q - 2) * G * G - 2.0 * c) * one_m2 * st / (2.0 * G))

    dens = params.grid_density
    ang = STEP_ANGLE / dens

    S = [0.0]
    TH = [0.0]
    KK = [0.0]
    RR = [r_start]
    breaks = [("vertical", 0.0)]

    def commit(s: float, th: float, r: float, k: float) -> None:
        if s <= S[-1]:
            raise FloorCheckFailed("node grid failed to advance; design bug")
        if r <= 0.0:
            raise InfeasibleBudget(
                "radius collapsed to zero before the curve turned horizontal")
        S.append(s)
        TH.append(th)
        KK.append(k)
        RR.append(r)

    def rk4(s: float, th: float, r: float, ds: float, kfun, a1: float):
        # a1 = kfun(s, th, r): the curvature committed at the node s; each
        # later stage is (kfun, -cos) at its own (s, theta, r), written out
        b1 = -math.cos(th)
        t2 = th + 0.5 * ds * a1
        a2, b2 = kfun(s + 0.5 * ds, t2, r + 0.5 * ds * b1), -math.cos(t2)
        t3 = th + 0.5 * ds * a2
        a3, b3 = kfun(s + 0.5 * ds, t3, r + 0.5 * ds * b2), -math.cos(t3)
        t4 = th + ds * a3
        a4, b4 = kfun(s + ds, t4, r + ds * b3), -math.cos(t4)
        return (th + ds * (a1 + 2 * a2 + 2 * a3 + a4) / 6.0,
                r + ds * (b1 + 2 * b2 + 2 * b3 + b4) / 6.0)

    # phase 1: vertical drop, theta = 0, exact
    ell_v = r_start - r_bend
    n_v = max(16, int(round(24 * dens)))
    for i in range(1, n_v + 1):
        s = ell_v * i / n_v
        commit(s, 0.0, r_start - s, 0.0)
    s, th, r = ell_v, 0.0, r_bend

    # phase 2: fade the allocator in through a quartic-leading window
    breaks.append(("bend_in", s))
    ell_r = r_bend / 16.0
    s_fade_end = ell_v + ell_r

    def window_b7(x: float) -> float:
        # integral of the septic window from 0 to x
        return x**5 * (7.0 - 14.0 * x + 10.0 * x * x - 2.5 * x**3)

    def kfun_fade(ss: float, tt: float, rr: float) -> float:
        return smoothstep7((ss - ell_v) / ell_r) * alloc(tt, rr)

    x0 = 1.0 / 64.0
    c_js = b_eff / (2.0 * (q - 1) * G_bend)
    th = math.sqrt(2.0 * c_js * ell_r * window_b7(x0))
    r = r_bend - ell_r * x0
    s = ell_v + ell_r * x0
    commit(s, th, r, kfun_fade(s, th, r))
    guard = 0
    while s < s_fade_end - 1e-18 * ell_r:
        k_now = KK[-1]
        # the 0.5 * (s - ell_v) cap ramps steps geometrically through the
        # power-law region just after the jump start
        ds = min(ang / max(k_now, 1e-12), ell_r / (24.0 * dens),
                 0.5 * (s - ell_v), s_fade_end - s)
        th, r = rk4(s, th, r, ds, kfun_fade, k_now)
        s += ds
        commit(s, th, r, kfun_fade(s, th, r))
        guard += 1
        if guard > 200000:
            raise InfeasibleBudget("fade-in step limit exceeded")
        if th >= math.pi / 2 - 2.0 * TAPER_ANGLE:
            raise InfeasibleBudget(
                "budget so large the curve overturns during fade-in; "
                "reduce budget or tube_radius")

    # phase 3: follow the allocator until sin(theta) crosses the threshold
    breaks.append(("follow", s))

    def kfun_follow(ss: float, tt: float, rr: float) -> float:
        return alloc(tt, rr)

    target = FREEZE_SIN
    guard = 0
    k_now = alloc(th, r)
    while math.sin(th) < target:
        guard += 1
        if guard > 500000:
            raise InfeasibleBudget("follow-phase step limit exceeded")
        ds = min(ang / k_now, r / (8.0 * dens))
        th2, r2 = rk4(s, th, r, ds, kfun_follow, k_now)
        if math.sin(th2) >= target:
            lo, hi = 0.0, ds
            th_hi, r_hi = th2, r2
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                thm, rm = rk4(s, th, r, mid, kfun_follow, k_now)
                if math.sin(thm) >= target:
                    hi, th_hi, r_hi = mid, thm, rm
                else:
                    lo = mid
            th, r = th_hi, r_hi
            if hi > 8.0 * math.ulp(s):
                s += hi
                commit(s, th, r, alloc(th, r))
            else:
                # s + hi rounds by up to half an ulp of s, a large error
                # relative to a hi of a few ulp: that node is the crossing
                TH[-1], KK[-1], RR[-1] = th, alloc(th, r), r
            break
        s += ds
        th, r = th2, r2
        k_now = alloc(th, r)
        commit(s, th, r, k_now)

    # phase 4: blend the curvature onto its frozen value
    breaks.append(("freeze_blend", s))
    s_f, th_f, r_f = s, th, r
    k_freeze = quad_part(th_f, r_f)
    k_alloc_f = alloc(th_f, r_f)
    theta_taper_at = math.pi / 2 - TAPER_ANGLE
    ell_b = 0.15 / k_alloc_f
    mark = len(S)
    for _ in range(60):
        def kfun_blend(ss: float, tt: float, rr: float) -> float:
            w = smoothstep5((ss - s_f) / ell_b)
            return (1.0 - w) * alloc(tt, rr) + w * k_freeze

        s, th, r = s_f, th_f, r_f
        ok = True
        s_blend_end = s_f + ell_b
        guard = 0
        while s < s_blend_end - 1e-18 * ell_b:
            # the committed node; at s_f it holds alloc, kfun_blend there
            k_now = KK[-1]
            ds = min(ang / max(k_now, 1e-12), ell_b / (16.0 * dens),
                     s_blend_end - s)
            th, r = rk4(s, th, r, ds, kfun_blend, k_now)
            s += ds
            commit(s, th, r, kfun_blend(s, th, r))
            guard += 1
            if guard > 200000:
                raise InfeasibleBudget("blend step limit exceeded")
            if th >= math.pi / 2 - 1.5 * TAPER_ANGLE:
                ok = False
                break
        if ok:
            break
        del S[mark:], TH[mark:], KK[mark:], RR[mark:]
        ell_b *= 0.5
        if ell_b < 1e-9 * r_f:
            raise InfeasibleBudget("blend window collapsed; design bug")
    else:
        raise InfeasibleBudget("blend window never fit before the taper point")

    # phase 5: constant curvature until the taper trigger
    breaks.append(("freeze", s))

    def kfun_freeze(ss: float, tt: float, rr: float) -> float:
        return k_freeze

    remaining = theta_taper_at - th
    n_fr = max(8, int(math.ceil(remaining / ang)))
    ds = remaining / k_freeze / n_fr
    for i in range(n_fr):
        th, r = rk4(s, th, r, ds, kfun_freeze, k_freeze)
        s += ds
        if i == n_fr - 1:
            th = theta_taper_at  # theta is exactly linear here; snap drift
        commit(s, th, r, k_freeze)

    # phase 6: analytic taper onto theta = pi/2 with flat derivatives.
    # the window can be ~1e-9 of the total arclength, so it integrates in
    # window-local coordinates: accumulating global s would alias the
    # window phase through roundoff
    breaks.append(("taper", s))
    s_t = s
    ell_4 = 2.0 * TAPER_ANGLE / k_freeze

    def kfun_taper(uu: float, tt: float, rr: float) -> float:
        return k_freeze * (1.0 - smoothstep5(uu / ell_4))

    n_tp = max(64, int(round(64 * dens)))
    for i in range(1, n_tp + 1):
        u0 = ell_4 * (i - 1) / n_tp
        u1 = ell_4 * i / n_tp
        # the committed node; the first holds k_freeze, kfun_taper at u = 0
        th, r = rk4(u0, th, r, u1 - u0, kfun_taper, KK[-1])
        s = s_t + u1
        commit(s, th, r, kfun_taper(u1, th, r))

    # close the angle exactly: rescale theta and k by (pi/2)/theta_end
    theta_raw = TH[-1]
    factor = (math.pi / 2.0) / theta_raw
    if abs(factor - 1.0) > 1e-9:
        raise FloorCheckFailed(
            f"curve closed with end-angle error {theta_raw - math.pi / 2:.3e}; "
            "integration accuracy insufficient")
    TH = [t * factor for t in TH]
    KK = [k * factor for k in KK]
    TH[-1] = math.pi / 2.0
    KK[-1] = 0.0

    # phase 7: exact horizontal margin
    breaks.append(("horizontal", s))
    ell_h = max(4.0 * r, 0.125 * ell_4)
    n_h = 8
    for i in range(1, n_h + 1):
        commit(s + ell_h * i / n_h, math.pi / 2.0, r, 0.0)
    s += ell_h

    # exact pass: radius and axial position from the represented spline
    s_nodes = np.asarray(S)
    theta_nodes = np.asarray(TH)
    curvature_nodes = np.asarray(KK)
    spline = hermite_cubic(s_nodes, theta_nodes, curvature_nodes)
    a = s_nodes[:-1]
    b = s_nodes[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    nodes, weights = gauss_legendre_rule()
    xs = mid[:, None] + half[:, None] * nodes[None, :]
    th_q = cubic_rows(spline.c, spline.x, xs)
    cos_inc = np.sum(half[:, None] * weights[None, :] * np.cos(th_q), axis=1)
    sin_inc = np.sum(half[:, None] * weights[None, :] * np.sin(th_q), axis=1)
    radius_nodes = r_start - np.concatenate([[0.0], np.cumsum(cos_inc)])
    axial_nodes = np.concatenate([[0.0], np.cumsum(sin_inc)])
    if radius_nodes[-1] <= 0.0:
        raise InfeasibleBudget("represented curve overshoots the axis")

    curve = BendingCurve(model=model, params=params, s_nodes=s_nodes,
                         theta_nodes=theta_nodes,
                         curvature_nodes=curvature_nodes,
                         radius_nodes=radius_nodes, axial_nodes=axial_nodes,
                         phase_breaks=tuple(breaks), theta_spline=spline)
    check = curve.check
    if not check.passed:
        raise FloorCheckFailed(
            f"designed curve failed verification: min R = {check.min_scalar:.9g} "
            f"against floor {check.floor:.9g} (margin {check.margin:.3e}, "
            f"cross-check {check.cross_check_error:.3e})")
    return curve
