"""Piecewise cubics: the floats of scipy's PPoly and CubicHermiteSpline.

scipy is imported here only, as the reference the package's own
piecewise cubic must reproduce bit for bit.
"""

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, PPoly

from neckforge import bending
from neckforge.bending import CurveDesignParams, design_bending_curve
from neckforge.curvature import (scalar_curvature_doubly_warped,
                                 scalar_curvature_warped)
from neckforge.measure import _halved
from neckforge.models import product_of_rounds, round_sphere, unit_sphere_volume
from neckforge.numerics import (GL_POINTS, PiecewiseCubic, cubic_rows,
                                gauss_legendre_rule, hermite_cubic,
                                knot_intervals, with_midpoints)
from neckforge.pipelines import (attach_hemisphere, round_sphere_ingredient,
                                 sphere_chain_certificate, surgery_certificate,
                                 tunnel_certificate)
from neckforge.profiles import WarpProfile


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got.view(np.int64),
                                                      want.view(np.int64))


def ppoly(spline) -> PPoly:
    """scipy's PPoly over the same coefficients and knots."""
    return PPoly.construct_fast(spline.c, spline.x)


def warp_spline(values):
    grid = np.linspace(0.25, 2.75, 1024)
    u = np.linspace(0.0, 1.0, grid.size)
    return WarpProfile(grid=grid, values=values(u), fiber_dim=2)._splines[0]


def theta_spline(model):
    params = CurveDesignParams(model=model, tube_radius=0.05, budget=0.1)
    return design_bending_curve(params).theta_spline


def random_hermite(seed: int, n: int = 40):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.05, 1.0, n)) - 3.0
    return x, rng.normal(size=n), rng.normal(scale=5.0, size=n)


SPLINES = {
    "warp-smooth": lambda: warp_spline(lambda u: 1.5 + np.sin(3.0 * u)),
    "warp-steep": lambda: warp_spline(
        lambda u: 1e-3 + np.exp(-4e3 * (u - 0.4) ** 2)),
    "warp-tiny": lambda: warp_spline(lambda u: 1e-13 * (1.0 + u * u)),
    "theta-round": lambda: theta_spline(round_sphere(3, 1.0)),
    "theta-base": lambda: theta_spline(product_of_rounds(1, 1.0, 3, 1.0)),
    "hermite-random": lambda: hermite_cubic(*random_hermite(7)),
}
NUS = (0, 1, 2, 3, 4)


def probe_rows(x):
    """(rows, knot interval of each row or None for row r in interval r):
    the abscissae of the halved Gauss-Legendre panels, the nodes, the
    interval midpoints and the last node alone."""
    m = x.size - 1
    bp = _halved(x)
    half = 0.5 * np.diff(bp)
    mid = 0.5 * (bp[:-1] + bp[1:])
    panels = mid[:, None] + half[:, None] * gauss_legendre_rule()[0]
    return [
        (panels.reshape(m, 2 * GL_POINTS), None),
        (x[:, None], np.minimum(np.arange(x.size), m - 1)),
        ((x[:-1] + 0.5 * np.diff(x))[:, None], None),
        (x[-1:, None], np.array([m - 1])),
    ]


def probe_points(x):
    """Points all over a cubic's range: random ones, every knot, interval
    midpoints, and points beyond either end."""
    rng = np.random.default_rng(3)
    span = x[-1] - x[0]
    return np.concatenate([
        rng.uniform(x[0], x[-1], 500), x, x[:-1] + 0.5 * np.diff(x),
        x[0] - span * np.array([1e-9, 1e-3, 0.5]),
        x[-1] + span * np.array([1e-9, 1e-3, 0.5])])


@pytest.mark.parametrize("make", SPLINES.values(), ids=SPLINES.keys())
def test_cubic_rows_are_the_ppoly_floats(make):
    spline = make()
    reference = ppoly(spline)
    for X, idx in probe_rows(spline.x):
        for nu in NUS:
            assert same_bits(cubic_rows(spline.c, spline.x, X, idx, nu),
                             reference(X, nu))


@pytest.mark.parametrize("make", SPLINES.values(), ids=SPLINES.keys())
def test_piecewise_cubic_is_ppoly_on_every_input_shape(make):
    spline = make()
    assert isinstance(spline, PiecewiseCubic)
    reference = ppoly(spline)
    s = probe_points(spline.x)
    for nu in NUS:
        assert same_bits(spline(s, nu), reference(s, nu))
        grid = s[: s.size // 4 * 4].reshape(-1, 4)
        assert same_bits(spline(grid, nu), reference(grid, nu))
        for point in s[::7]:
            # a Python float and a 0-d array both give PPoly's float as a
            # 0-d array, as PPoly does
            assert same_bits(spline(float(point), nu),
                             reference(float(point), nu))
            assert same_bits(spline(np.array(point), nu),
                             reference(np.array(point), nu))
    assert same_bits(spline(s.tolist()), reference(s.tolist()))
    assert spline(np.empty(0)).shape == (0,)


def test_nan_stays_nan_for_every_derivative():
    spline = hermite_cubic(*random_hermite(2))
    for nu in NUS:
        assert np.isnan(spline(np.array([np.nan]), nu)).all()
        assert np.isnan(spline(float("nan"), nu))


@pytest.mark.parametrize("seed", range(6))
def test_hermite_coefficients_are_scipys(seed):
    x, y, dydx = random_hermite(seed)
    assert same_bits(hermite_cubic(x, y, dydx).c,
                     CubicHermiteSpline(x, y, dydx).c)


def test_knot_intervals_are_ppolys_search():
    x = np.array([0.0, 0.5, 1.25, 2.0])
    s = np.array([-1.0, 0.0, 0.25, 0.5, 1.25, 1.9, 2.0, 3.0])
    assert knot_intervals(x, s).tolist() == [0, 0, 0, 1, 2, 2, 2, 2]


@pytest.mark.parametrize("x", [
    np.linspace(0.0, 1.0, 9),
    np.cumsum(np.random.default_rng(5).uniform(0.01, 1.0, 30)),
    # the last step is one ulp, so its midpoint rounds onto a knot
    np.array([0.0, 0.5, 1.0, np.nextafter(1.0, 2.0)]),
], ids=["uniform", "graded", "ulp-step"])
def test_with_midpoints_is_the_sorted_union_and_its_intervals(x):
    mids = x[:-1] + 0.5 * np.diff(x)
    s, idx = with_midpoints(x, mids)
    assert same_bits(s, np.unique(np.concatenate([x, mids])))
    assert np.array_equal(idx, knot_intervals(x, s))


def reference_radius(curve, s):
    """BendingCurve.radius_at with the interval search of PPoly."""
    idx = np.clip(np.searchsorted(curve.s_nodes, s, side="right") - 1,
                  0, curve.s_nodes.size - 2)
    a = curve.s_nodes[idx]
    half = 0.5 * (s - a)
    mid = 0.5 * (s + a)
    nodes, weights = gauss_legendre_rule()
    th = ppoly(curve.theta_spline)(
        mid[:, None] + half[:, None] * nodes[None, :])
    return curve.radius_nodes[idx] - np.sum(
        half[:, None] * weights[None, :] * np.cos(th), axis=1)


def test_one_theta_spline_per_design_and_its_radius(monkeypatch):
    built = []

    def counting(*args):
        built.append(1)
        return hermite_cubic(*args)

    monkeypatch.setattr(bending, "hermite_cubic", counting)
    curve = design_bending_curve(CurveDesignParams(
        model=round_sphere(3, 1.0), tube_radius=0.1, budget=0.005))
    assert len(built) == 1
    nodes = curve.s_nodes
    s = np.concatenate([nodes, nodes[:-1] + 0.5 * np.diff(nodes),
                        np.linspace(0.0, curve.length, 1001),
                        [-0.01, curve.length + 1e-12]])
    assert same_bits(curve.radius_at(s), reference_radius(curve, s))
    assert len(built) == 1


@pytest.mark.parametrize("model", [round_sphere(3, 1.0),
                                   product_of_rounds(1, 1.0, 3, 1.0)],
                         ids=["round", "product"])
def test_curve_floor_samples_read_the_searched_floats(model):
    curve = design_bending_curve(CurveDesignParams(
        model=model, tube_radius=0.05, budget=0.1))
    s, closed, (theta, k, r) = curve._floor_samples
    nodes = curve.s_nodes
    assert same_bits(s, np.unique(np.concatenate(
        [nodes, nodes[:-1] + 0.5 * np.diff(nodes)])))
    reference = ppoly(curve.theta_spline)
    assert same_bits(theta, reference(s))
    assert same_bits(k, reference(s, 1))
    assert same_bits(r, reference_radius(curve, s))
    assert same_bits(closed, bending.sigma_scalar_closed_form(
        model, reference(s), reference(s, 1), reference_radius(curve, s)))
    # and theta, k and r at one cut point are the array path's floats
    for point in s[::97]:
        theta, k, r = curve._state(float(point))
        assert same_bits(theta, reference(point))
        assert same_bits(k, reference(point, 1))
        assert same_bits(r, reference_radius(curve, np.array([point]))[0])


# the builds whose certificate and artifact digests tests/test_pipelines.py
# pins
GOLDEN_BUILDS = {
    "tunnel-3": lambda: tunnel_certificate(3, sharpness=100.0),
    "tunnel-4": lambda: tunnel_certificate(4, sharpness=1e4, grid_density=2.0,
                                           length=0.0),
    "surgery-13": lambda: surgery_certificate(1, 3, 0.05),
    "surgery-24": lambda: surgery_certificate(2, 4, 0.05),
    "chain": lambda: sphere_chain_certificate(1.5 * unit_sphere_volume(3), 3),
    "hemisphere": lambda: attach_hemisphere(round_sphere_ingredient(3, 0.5),
                                            diameter_target=10.0),
}


@pytest.mark.parametrize("build", GOLDEN_BUILDS.values(),
                         ids=GOLDEN_BUILDS.keys())
def test_every_golden_piece_reads_ppolys_floats(build):
    """Each warp cubic of every piece, at its curvature samples (known
    intervals, nu = 0, 1, 2) and its volume abscissae, against PPoly; and
    each piece's sampled curvature against the formula on PPoly's jets."""
    for assembly in build().assemblies.values():
        for piece in assembly.pieces:
            prof = piece.profile
            s, R = prof.curvature_samples()
            idx = knot_intervals(prof.grid, s)
            jets = []
            # constant warps too: their coefficients are written down, not
            # solved for, and read like every other warp's
            for spline, _, _ in prof.warp_splines:
                reference = ppoly(spline)
                for nu in (0, 1, 2):
                    assert same_bits(cubic_rows(spline.c, spline.x, s, idx, nu),
                                     reference(s, nu))
                    jets.append(reference(s, nu))
                X, _ = probe_rows(spline.x)[0]
                assert same_bits(cubic_rows(spline.c, spline.x, X),
                                 reference(X))
            formula = (scalar_curvature_warped if len(jets) == 3
                       else scalar_curvature_doubly_warped)
            assert same_bits(R, formula(*jets, *prof.component_dims))
