"""Bending curve designer and swept-hypersurface curvature routes."""

import math

import numpy as np
import pytest

from neckforge import assembly, bending
from neckforge.assembly import _neck_segments
from neckforge.bending import (
    _ambient_sectional_matrix,
    BendingCurve,
    CurveDesignParams,
    design_bending_curve,
    save_curve_csv,
    sigma_principal_curvatures,
    sigma_scalar_closed_form,
    sigma_scalar_gauss,
)
from neckforge.errors import (
    CodimensionTooSmall,
    InfeasibleBudget,
    ParameterOutOfRange,
    RadiusExceedsModel,
)
from neckforge.models import (
    AmbientModel,
    flat_space,
    product_of_rounds,
    round_sphere,
    sphere_times_flat,
)
from neckforge.numerics import smoothstep5, smoothstep7
from neckforge.pipelines import surgery_certificate, tunnel_certificate

MODELS = [
    flat_space(3),
    flat_space(5),
    round_sphere(3, 1.0),
    round_sphere(4, 0.5),
    sphere_times_flat(2, 1.3, 3),
    product_of_rounds(1, 1.0, 3, 1.0),
]


# -- pointwise formulas --------------------------------------------------------


@pytest.mark.parametrize("model", MODELS)
def test_vertical_slice_recovers_ambient_scalar(model):
    # theta = 0 sweeps a totally geodesic slice; no curvature is lost
    radii = np.linspace(0.05, min(1.0, 0.8 * model.max_radius), 11)
    R = sigma_scalar_closed_form(model, np.zeros_like(radii),
                                 np.zeros_like(radii), radii)
    assert np.all(np.abs(R - model.scalar_curvature)
                  <= 1e-12 * max(1.0, abs(model.scalar_curvature)))


@pytest.mark.parametrize("model", MODELS)
def test_gauss_route_matches_closed_form(model, rng):
    n = 50
    theta = rng.uniform(0.0, math.pi / 2, n)
    curv = rng.uniform(-3.0, 3.0, n)
    radius = rng.uniform(0.05, min(1.0, 0.8 * model.max_radius), n)
    a = sigma_scalar_closed_form(model, theta, curv, radius)
    b = sigma_scalar_gauss(model, theta, curv, radius)
    assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))) <= 1e-9


def _sectional_per_point(model, theta: float) -> np.ndarray:
    """Reference: the ambient sectional table at one point."""
    n, q, c = model.surface_dim, model.slice_dim, model.slice_curv
    K = np.zeros((n, n))
    ct2 = math.cos(theta) ** 2
    K[0, 1:q] = c * ct2
    K[1:q, 0] = c * ct2
    K[1:q, 1:q] = c
    if model.base_dim >= 1:
        K[q:, q:] = 1.0 / model.base_radius**2
    np.fill_diagonal(K, 0.0)
    return K


def _gauss_per_point(model, theta, curv, radius):
    """Reference: the Gauss route one point at a time, one (n, n) sectional
    table per point summed with np.sum."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    curv = np.broadcast_to(np.asarray(curv, dtype=float), theta.shape)
    radius = np.broadcast_to(np.asarray(radius, dtype=float), theta.shape)
    n = model.surface_dim
    lam = sigma_principal_curvatures(model, theta, curv, radius).reshape(-1, n)
    out = np.empty(theta.shape)
    for i in range(theta.size):
        K = _sectional_per_point(model, float(theta.flat[i]))
        H = float(np.sum(lam[i]))
        A2 = float(np.sum(lam[i] * lam[i]))
        out.flat[i] = float(np.sum(K)) + H * H - A2
    return out


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("shape", [(1,), (7,), (300,), (12, 25)])
def test_batched_gauss_route_is_bitwise_the_per_point_sum(model, shape, rng):
    theta = rng.uniform(0.0, math.pi / 2, shape)
    curv = rng.uniform(-50.0, 50.0, shape)
    radius = rng.uniform(1e-4, min(1.0, 0.8 * model.max_radius), shape)
    got = sigma_scalar_gauss(model, theta, curv, radius)
    assert got.shape == shape
    assert np.array_equal(got, _gauss_per_point(model, theta, curv, radius))


def test_sectional_table_is_bitwise_the_per_point_tables(rng):
    # cos^2 is squared in libm arithmetic: numpy's x * x differs from
    # pow(x, 2) in the last bit for about one angle in a thousand
    model = round_sphere(4, 0.5)
    theta = rng.uniform(0.0, math.pi / 2, 20000)
    ref = np.stack([_sectional_per_point(model, t) for t in theta.tolist()])
    assert np.array_equal(_ambient_sectional_matrix(model, theta), ref)


def test_gauss_route_shape_contract():
    model = product_of_rounds(1, 1.0, 3, 1.0)
    scalar = sigma_scalar_gauss(model, 0.3, 1.2, 0.1)
    assert scalar.shape == (1,)
    assert scalar[0] == _gauss_per_point(model, 0.3, 1.2, 0.1)[0]
    assert sigma_scalar_gauss(model, np.full(5, 0.3), 1.2, 0.1).shape == (5,)
    assert sigma_scalar_gauss(model, np.full((2, 3), 0.3), 1.2,
                              0.1).shape == (2, 3)


def test_flat_round_sphere_slice_identity():
    # a round sphere of radius eps in flat space: r = eps sin(theta),
    # k = -1/eps, giving R = q(q-1)/eps^2 on the nose
    for q in (3, 4, 6):
        model = flat_space(q)
        eps = 0.32
        theta = np.linspace(0.2, math.pi / 2, 17)
        radius = eps * np.sin(theta)
        curv = np.full_like(theta, -1.0 / eps)
        R = sigma_scalar_closed_form(model, theta, curv, radius)
        assert np.max(np.abs(R - q * (q - 1) / eps**2)) <= 1e-9 / eps**2


def test_principal_curvature_layout():
    model = product_of_rounds(2, 1.0, 3, 1.0)
    lam = sigma_principal_curvatures(model, np.array([0.7]), np.array([1.5]),
                                     np.array([0.4]))
    assert lam.shape == (1, model.surface_dim)
    assert lam[0, 0] == 1.5
    G = float(model.radial_log_slope(0.4))
    expected = -G * math.sin(0.7)
    assert np.allclose(lam[0, 1:3], expected, rtol=1e-14)
    assert np.all(lam[0, 3:] == 0.0)


# -- the designer: happy paths -------------------------------------------------


def check_designed_curve(curve: BendingCurve):
    model = curve.model
    params = curve.params
    b = params.resolved_budget
    assert curve.check.passed
    # the closed form clears the floor between the verification points
    # too: nodes and the thirds of every interval
    nodes = curve.s_nodes
    s = np.concatenate([nodes] + [nodes[:-1] + (k / 3) * np.diff(nodes)
                                  for k in (1, 2)])
    closed = curve.scalar_curvature(s)
    gauss = curve.gauss_scalar(s)
    cross = np.max(np.abs(closed - gauss) / np.maximum(1.0, np.abs(closed)))
    assert cross <= 1e-9
    # the spend margin leaves half the budget unspent
    assert np.min(closed) > model.scalar_curvature - b
    assert np.min(closed) >= model.scalar_curvature - 0.6 * b
    # exact closure of the angle
    assert curve.theta_nodes[-1] == math.pi / 2
    assert curve.curvature_nodes[-1] == 0.0
    assert np.all(np.diff(curve.theta_nodes) >= -1e-12)
    # positive waist radius, smaller than the entry radius
    assert 0.0 < curve.end_radius < curve.start_radius
    # flat link-warp jet at the far end
    _, d1, d2 = curve._boundary_jet(curve.length)
    assert d1 == 0.0 and d2 == 0.0
    # monotone radius along the curve
    assert np.all(np.diff(curve.radius_nodes) <= 1e-15)
    names = [name for name, _ in curve.phase_breaks]
    assert names == ["vertical", "bend_in", "follow", "freeze_blend",
                     "freeze", "taper", "horizontal"]


def test_designed_curve_round_sphere_small_budget():
    model = round_sphere(3, 1.0)
    params = CurveDesignParams(model=model, tube_radius=0.1, budget=0.005)
    curve = design_bending_curve(params)
    check_designed_curve(curve)
    assert curve.end_radius < params.tube_radius


def test_designed_curve_flat_q4():
    model = flat_space(4)
    params = CurveDesignParams(model=model, tube_radius=0.05)
    curve = design_bending_curve(params)
    check_designed_curve(curve)
    # floor is negative here; the curve still respects it
    assert curve.design_floor == -0.05


def test_designed_curve_with_base_factor():
    model = product_of_rounds(1, 1.0, 3, 1.0)
    params = CurveDesignParams(model=model, tube_radius=0.05, budget=0.1)
    curve = design_bending_curve(params)
    check_designed_curve(curve)


def test_flat_model_scale_equivariance():
    model = flat_space(3)
    a = design_bending_curve(CurveDesignParams(model=model, tube_radius=0.1,
                                               budget=0.02))
    b = design_bending_curve(CurveDesignParams(model=model, tube_radius=0.2,
                                               budget=0.005))
    # budget 0.02 at scale 0.1 is the scaling image of budget 0.005 at 0.2
    assert b.length == pytest.approx(2.0 * a.length, rel=1e-9)
    assert b.end_radius == pytest.approx(2.0 * a.end_radius, rel=1e-6)
    assert b.theta_nodes[-1] == a.theta_nodes[-1]


def test_tighter_budget_narrows_the_waist():
    model = round_sphere(3, 1.0)
    waists = []
    for j in (10, 100, 1000):
        params = CurveDesignParams(model=model, tube_radius=0.1,
                                   budget=1.0 / (2 * j))
        waists.append(design_bending_curve(params).end_radius)
    assert waists[0] > waists[1] > waists[2] > 0.0


def test_freeze_crossing_closer_than_the_last_node_resolves():
    # the follow phase's bisection puts the FREEZE_SIN crossing less than
    # one ulp of s past its last node; that node becomes the crossing
    # (the tunnel side of tunnel_certificate(3, 6.0, 0.0889..., 2.75...,
    # 131685.08..., grid_density=8.0))
    params = CurveDesignParams(model=round_sphere(3, 1.0),
                               tube_radius=0.08895497341425397,
                               budget=0.5 / 131685.0814522805,
                               grid_density=8.0)
    curve = design_bending_curve(params)
    check_designed_curve(curve)
    assert np.all(np.diff(curve.s_nodes) > 0.0)
    follow, freeze_blend = (s for name, s in curve.phase_breaks
                            if name in ("follow", "freeze_blend"))
    node = int(np.searchsorted(curve.s_nodes, freeze_blend))
    assert curve.s_nodes[node] == freeze_blend > follow
    # theta was rescaled by (pi/2) / theta_end after the taper
    assert math.sin(curve.theta_nodes[node]) == pytest.approx(
        bending.FREEZE_SIN, abs=1e-12)


# -- the designer: refusal paths -----------------------------------------------


def test_codimension_guard():
    model = AmbientModel(base_dim=1, slice_dim=2, base_radius=1.0,
                         slice_curv=0.0)
    with pytest.raises(CodimensionTooSmall):
        design_bending_curve(CurveDesignParams(model=model, tube_radius=0.1))


def test_entry_radius_must_fit_the_model():
    model = round_sphere(3, 0.5)  # equator at pi/4
    with pytest.raises(RadiusExceedsModel):
        design_bending_curve(CurveDesignParams(model=model, tube_radius=0.45))


def test_infeasible_when_quadratic_credit_vanishes():
    # q = 3 on the unit round sphere: at r_bend = 0.7425 the log slope
    # satisfies G^2 < 2c, so there is nothing to ride
    model = round_sphere(3, 1.0)
    with pytest.raises(InfeasibleBudget):
        design_bending_curve(CurveDesignParams(model=model, tube_radius=0.75))


def test_param_validation():
    model = flat_space(3)
    with pytest.raises(ParameterOutOfRange):
        CurveDesignParams(model=model, tube_radius=0.0)
    with pytest.raises(ParameterOutOfRange):
        CurveDesignParams(model=model, tube_radius=0.1, budget=-1.0)
    with pytest.raises(ParameterOutOfRange):
        CurveDesignParams(model=model, tube_radius=0.1, grid_density=0.0)


def test_design_constants_in_range():
    # the ranges the designer's phases rely on: a spend margin and a held
    # back share of the credit, a freeze point, and a taper that fits in
    # the angle left after the freeze with room for the blend
    assert 0.0 < bending.BEND_MARGIN < 1.0
    assert 0.0 < bending.QUAD_MARGIN < 1.0
    assert 0.4 <= bending.FREEZE_SIN <= 0.95
    headroom = math.pi / 2 - math.asin(bending.FREEZE_SIN)
    assert 0.01 <= bending.TAPER_ANGLE <= 0.45 * headroom
    assert 1e-4 <= bending.STEP_ANGLE <= 0.1


@pytest.mark.parametrize("window", [smoothstep5, smoothstep7])
def test_window_float_branch_is_bitwise_the_array_branch(window, rng):
    x = np.concatenate([rng.uniform(-0.5, 1.5, 100_000 - 4),
                        [0.0, 1.0, -2.0, 3.0]])
    floats = [window(v) for v in x.tolist()]
    assert all(type(v) is float for v in floats)
    assert np.array(floats).tobytes() == window(x).tobytes()


# -- emission ------------------------------------------------------------------


@pytest.fixture(scope="module")
def tunnel_curve():
    model = round_sphere(3, 1.0)
    return design_bending_curve(
        CurveDesignParams(model=model, tube_radius=0.1, budget=0.005))


def test_vertical_segment_is_an_ambient_annulus(tunnel_curve):
    curve = tunnel_curve
    s_bend = dict(curve.phase_breaks)["bend_in"]
    piece = curve.segment_profile(0.0, s_bend, n_nodes=512)
    # the swept warp equals sn(r_start - s) exactly on the nodes
    model = curve.model
    expected = model.warp(curve.start_radius - piece.grid)
    assert np.max(np.abs(piece.values - expected)) <= 1e-13
    R = piece.scalar_curvature(piece.grid[2:-2])
    assert np.max(np.abs(R - model.scalar_curvature)) <= 1e-5


def test_adjacent_segments_share_exact_jets(tunnel_curve):
    curve = tunnel_curve
    s_mid = 0.5 * curve.length
    left = curve.segment_profile(0.0, s_mid, n_nodes=256)
    right = curve.segment_profile(s_mid, curve.length, n_nodes=256)
    assert left.boundary_jets("end") == right.boundary_jets("start")


def test_one_jet_per_cut(monkeypatch):
    curve = design_bending_curve(
        CurveDesignParams(model=round_sphere(3, 1.0), tube_radius=0.1))
    calls = [0]
    original = BendingCurve._state

    def counting(self, *args):
        calls[0] += 1
        return original(self, *args)

    monkeypatch.setattr(BendingCurve, "_state", counting)
    segments = _neck_segments(curve)
    for _, s0, s1 in segments:
        curve.segment_profile(s0, s1, n_nodes=64)
    assert calls[0] == len(segments) + 1


@pytest.mark.parametrize("build", [
    lambda: tunnel_certificate(3, sharpness=1e4),
    lambda: surgery_certificate(1, 3, 0.1),
], ids=["tunnel", "surgery"])
def test_one_state_call_evaluates_every_cut_jet(monkeypatch, build):
    curves = []
    design = assembly.design_bending_curve
    monkeypatch.setattr(assembly, "design_bending_curve",
                        lambda params: curves.append(design(params))
                        or curves[-1])
    sizes = {}
    original = BendingCurve._state

    def recording(self, s, idx=None):
        sizes.setdefault(id(self), []).append(np.size(s))
        return original(self, s, idx)

    monkeypatch.setattr(BendingCurve, "_state", recording)
    build()
    assert curves
    for curve in curves:
        # the verification grid, then every cut of the pieces at once
        cuts = len(_neck_segments(curve)) + 1
        assert sizes[id(curve)] == [2 * curve.s_nodes.size - 1, cuts]
        assert len(curve._jets) == cuts


@pytest.mark.parametrize("model", [round_sphere(3, 1.0),
                                   product_of_rounds(1, 1.0, 3, 1.0)],
                         ids=["tunnel", "surgery"])
def test_rk4_evaluates_the_curvature_four_times_per_step(monkeypatch, model):
    # kfun_fade reads smoothstep7 once per evaluation, kfun_blend and
    # kfun_taper smoothstep5: per step, three RK4 stages and the committed
    # node; the first stage reuses the node the step starts from
    calls = {"smoothstep5": 0, "smoothstep7": 0}
    for name in calls:
        def counting(x, window=getattr(bending, name), name=name):
            calls[name] += 1
            return window(x)
        monkeypatch.setattr(bending, name, counting)
    curve = design_bending_curve(
        CurveDesignParams(model=model, tube_radius=0.1, budget=0.05))
    s = curve.s_nodes
    at = dict(curve.phase_breaks)
    steps = lambda lo, hi: int(np.sum((s > at[lo]) & (s <= at[hi])))
    # fade nodes turn theta from 0; the first is the jump start, not an
    # RK4 step
    fade = int(np.sum((curve.theta_nodes > 0.0) & (s <= at["follow"]))) - 1
    blend = steps("freeze_blend", "freeze")
    taper = steps("taper", "horizontal")
    assert fade > 0 and blend > 0 and taper > 0
    # plus the fade's jump start node
    assert calls["smoothstep7"] == 1 + 4 * fade
    assert calls["smoothstep5"] == 4 * (blend + taper)


def test_segment_profile_curvature_tracks_curve(tunnel_curve):
    # one dyadic octave of radius resamples faithfully at 2048 nodes;
    # spanning many octaves in one piece does not, which is why necks are
    # emitted as dyadically split pieces
    curve = tunnel_curve
    breaks = dict(curve.phase_breaks)
    s_lo = breaks["bend_in"]
    r_target = curve.radius_at(np.array([s_lo]))[0] / 2.0
    s_hi = float(np.interp(-r_target, -curve.radius_nodes, curve.s_nodes))
    piece = curve.segment_profile(s_lo, s_hi, n_nodes=2048)
    ss = np.linspace(s_lo, s_hi, 301)[5:-5]
    R_piece = piece.scalar_curvature(ss - s_lo)
    R_curve = curve.scalar_curvature(ss)
    rel = np.abs(R_piece - R_curve) / np.maximum(1.0, np.abs(R_curve))
    assert np.max(rel) <= 1e-4


def test_segment_bounds_validated(tunnel_curve):
    with pytest.raises(ParameterOutOfRange):
        tunnel_curve.segment_profile(0.5, 0.1)


def test_curve_csv(tunnel_curve, tmp_path):
    path = tmp_path / "curve.csv"
    save_curve_csv(tunnel_curve, path)
    lines = path.read_text().strip().split("\n")
    header = [ln for ln in lines if ln.startswith("#")]
    rows = [ln for ln in lines if not ln.startswith("#")]
    assert any("columns=s,theta,k,t,r,R_sigma" in ln for ln in header)
    assert len(rows) == tunnel_curve.s_nodes.size
    first = [float(x) for x in rows[0].split(",")]
    last = [float(x) for x in rows[-1].split(",")]
    assert first[0] == 0.0 and first[1] == 0.0
    assert last[1] == pytest.approx(math.pi / 2, abs=1e-15)
    # R column stays above the floor throughout
    floor = tunnel_curve.design_floor
    assert all(float(r.split(",")[5]) > floor for r in rows)


def test_axial_and_radius_are_consistent(tunnel_curve):
    curve = tunnel_curve
    # chord lengths of the (t, r) path never exceed arclength
    t = curve.axial_nodes
    r = curve.radius_nodes
    ds = np.diff(curve.s_nodes)
    chords = np.hypot(np.diff(t), np.diff(r))
    # node positions come from differencing O(0.1)-sized accumulators, so
    # tail intervals carry ~1e-16 absolute noise
    assert np.all(chords <= ds * (1 + 1e-12) + 1e-15)
    assert np.all(chords >= ds * (1 - 1e-4) - 1e-15)


# -- verification runs once per curve ------------------------------------------


def test_piece_floors_equal_fresh_minima(tunnel_curve):
    curve = tunnel_curve
    s_all, _, _ = curve._floor_samples
    for _, s0, s1 in _neck_segments(curve):
        s = s_all[(s_all >= s0 - 1e-15) & (s_all <= s1 + 1e-15)]
        assert s.size > 0
        fresh = float(np.min(curve.scalar_curvature(s)))
        assert curve.min_scalar_on(s0, s1) == fresh
    # a window holding no verification point falls back to 9 samples
    h = curve.s_nodes[1] - curve.s_nodes[0]
    s0, s1 = curve.s_nodes[0] + 0.3 * h, curve.s_nodes[0] + 0.4 * h
    assert not np.any((s_all >= s0) & (s_all <= s1))
    assert curve.min_scalar_on(s0, s1) == float(
        np.min(curve.scalar_curvature(np.linspace(s0, s1, 9))))


@pytest.mark.parametrize("build", [
    lambda: tunnel_certificate(3, sharpness=100.0),
    lambda: surgery_certificate(1, 3, 0.05),
], ids=["tunnel", "surgery"])
def test_each_designed_curve_is_verified_once(build, monkeypatch):
    calls = {"design": 0, "gauss": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bending, "sigma_scalar_gauss",
                        counting("gauss", bending.sigma_scalar_gauss))
    monkeypatch.setattr(assembly, "design_bending_curve",
                        counting("design", assembly.design_bending_curve))
    assert build().status == "PASS"
    assert calls["design"] >= 1
    assert calls["gauss"] == calls["design"]


def test_a_crossing_a_few_ulp_past_the_last_follow_node_is_that_node():
    # a box input whose FREEZE_SIN crossing lands a few ulp after the last
    # follow node: committed as a node of its own, it left min R at -7.27e19
    # and raised FloorCheckFailed
    res = tunnel_certificate(dim=3, curvature=6.0,
                             tube_radius=0.0972469595465823,
                             length=3.523348271346549,
                             sharpness=283612.1781630098, grid_density=4.0)
    assert res.status == "PASS"
