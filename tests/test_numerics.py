"""Piecewise cubics evaluated at rows whose knot interval is known."""

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from neckforge import bending
from neckforge.bending import CurveDesignParams, design_bending_curve
from neckforge.measure import _halved
from neckforge.models import product_of_rounds, round_sphere
from neckforge.numerics import GL_POINTS, cubic_rows, gauss_legendre_rule
from neckforge.profiles import WarpProfile


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got.view(np.int64),
                                                      want.view(np.int64))


def warp_spline(values):
    grid = np.linspace(0.25, 2.75, 1024)
    u = np.linspace(0.0, 1.0, grid.size)
    return WarpProfile(grid=grid, values=values(u), fiber_dim=2)._splines[0]


def theta_spline(model):
    params = CurveDesignParams(model=model, tube_radius=0.05, budget=0.1)
    return design_bending_curve(params).theta_spline


SPLINES = {
    "warp-smooth": lambda: warp_spline(lambda u: 1.5 + np.sin(3.0 * u)),
    "warp-steep": lambda: warp_spline(
        lambda u: 1e-3 + np.exp(-4e3 * (u - 0.4) ** 2)),
    "warp-tiny": lambda: warp_spline(lambda u: 1e-13 * (1.0 + u * u)),
    "theta-round": lambda: theta_spline(round_sphere(3, 1.0)),
    "theta-base": lambda: theta_spline(product_of_rounds(1, 1.0, 3, 1.0)),
}


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


@pytest.mark.parametrize("make", SPLINES.values(), ids=SPLINES.keys())
def test_cubic_rows_are_the_ppoly_floats(make):
    spline = make()
    for X, idx in probe_rows(spline.x):
        assert same_bits(cubic_rows(spline.c, spline.x, X, idx), spline(X))


def reference_radius(curve, s):
    """BendingCurve.radius_at with the interval search of PPoly."""
    idx = np.clip(np.searchsorted(curve.s_nodes, s, side="right") - 1,
                  0, curve.s_nodes.size - 2)
    a = curve.s_nodes[idx]
    half = 0.5 * (s - a)
    mid = 0.5 * (s + a)
    nodes, weights = gauss_legendre_rule()
    th = curve.theta_spline(mid[:, None] + half[:, None] * nodes[None, :])
    return curve.radius_nodes[idx] - np.sum(
        half[:, None] * weights[None, :] * np.cos(th), axis=1)


def test_one_theta_spline_per_design_and_its_radius(monkeypatch):
    built = []

    def counting(*args):
        built.append(1)
        return CubicHermiteSpline(*args)

    monkeypatch.setattr(bending, "CubicHermiteSpline", counting)
    curve = design_bending_curve(CurveDesignParams(
        model=round_sphere(3, 1.0), tube_radius=0.1, budget=0.005))
    assert len(built) == 1
    nodes = curve.s_nodes
    s = np.concatenate([nodes, nodes[:-1] + 0.5 * np.diff(nodes),
                        np.linspace(0.0, curve.length, 1001),
                        [-0.01, curve.length + 1e-12]])
    assert same_bits(curve.radius_at(s), reference_radius(curve, s))
    assert len(built) == 1
