"""Piecewise cubics: the floats of scipy's PPoly and CubicHermiteSpline.

scipy is imported here only, as the reference the package's own
piecewise cubic must reproduce bit for bit.
"""

import hashlib

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, PPoly

from neckforge import bending
from neckforge.bending import CurveDesignParams, design_bending_curve
from neckforge.curvature import (scalar_curvature_doubly_warped,
                                 scalar_curvature_warped)
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


def panel_abscissae(bp, n):
    """The abscissae of n-point Gauss-Legendre panels on breakpoints bp."""
    half = 0.5 * np.diff(bp)
    mid = 0.5 * (bp[:-1] + bp[1:])
    return mid[:, None] + half[:, None] * gauss_legendre_rule(n)[0]


def probe_rows(x):
    """(rows, knot interval of each row or None for row r in interval r):
    the abscissae of the volume's 7-point knot panels and of the halving
    check's halved GL_POINTS-point panels, the nodes, the interval
    midpoints and the last node alone."""
    m = x.size - 1
    halved = np.sort(np.concatenate([x, 0.5 * (x[:-1] + x[1:])]))
    return [
        (panel_abscissae(x, 7), None),
        (panel_abscissae(halved, GL_POINTS).reshape(m, 2 * GL_POINTS), None),
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


# sha256 of the node and weight bytes of gauss_legendre_rule(n) for
# n = 1 ... 13, the node counts of every volume pass (sphere dimensions up
# to 8) and of the GL_POINTS panels. leggauss takes its nodes from LAPACK's
# eigvalsh, so CI runs this with numpy's SIMD dispatch and OpenBLAS's core
# forced down as well.
GL_RULE_DIGESTS = [
    "0827fd05442d5279a37c60207e21a0e11585427eebdf4b2a0a35ded23a7cd9ed",
    "5a6acf9e0b0b6dc44a60ab078a8be45dbe41c0d303877f4441880b7a434e0408",
    "5b978b3bcd82f1f879400b8ef955d143817846659fb5dc57d923d021c329e459",
    "b5db89e0d568743f578eac67fc3a3bbbe1f5ab16f5c9cb8bcd9d10ea4fa7a9a1",
    "b60a9146d12600533517ae35a5b2aa266a66721f48a0e4a6418e883fabff5163",
    "6f3d461e6365c7da423283fdbc685d5bdd9b50049f463eafffb65d6e09478e6b",
    "6c81dee7e7cc9b430d8e1d18c2fa0b6171d8152213e3d27fe6d669e38ea94c2d",
    "855f29801bcd4145e700951133fc4ac89e120035760172d58bcb3cef500f85ff",
    "0af1d3950db99ed747af0d2b89cdf46ed3a6bd7db50c129e81ec0d93ded2adae",
    "6b44376d24031d9af2560628c2f916ec6ee579bd835d87a0b21c529e5cd542a1",
    "65dd43137ab04c4b3b608fd8553da0f60136ed73ae41cb45c7935317249a6cbc",
    "51b4fe77438a7eaaea5e868c0ff7e4ed4c8ae974e4832345b782dad03c8e102d",
    "0b5b22de46b4402651843cc81ebaab33c58d985ef1f8ac3225456e39bf75e19d",
]


def test_gauss_legendre_rules_are_byte_identical():
    for n, digest in enumerate(GL_RULE_DIGESTS, start=1):
        nodes, weights = gauss_legendre_rule(n)
        assert nodes.size == weights.size == n
        assert hashlib.sha256(
            nodes.tobytes() + weights.tobytes()).hexdigest() == digest


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
                for X, _ in probe_rows(spline.x)[:2]:
                    assert same_bits(cubic_rows(spline.c, spline.x, X),
                                     reference(X))
            formula = (scalar_curvature_warped if len(jets) == 3
                       else scalar_curvature_doubly_warped)
            assert same_bits(R, formula(*jets, *prof.component_dims))
