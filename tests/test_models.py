"""Ambient model constants, fibers, warp identities, distance spheres and
unit sphere volumes."""

import numpy as np
import pytest

from neckforge.errors import ParameterOutOfRange, RadiusExceedsModel
from neckforge.models import (
    AmbientModel,
    flat_space,
    product_of_rounds,
    round_sphere,
    sphere_times_flat,
    unit_sphere_volume,
)


def test_scalar_curvature_constants():
    assert flat_space(3).scalar_curvature == 0.0
    assert round_sphere(3, 1.0).scalar_curvature == pytest.approx(6.0, abs=1e-13)
    assert round_sphere(3, 0.5).scalar_curvature == pytest.approx(24.0, abs=1e-12)
    assert sphere_times_flat(1, 2.0, 3).scalar_curvature == 0.0
    assert sphere_times_flat(2, 0.5, 2).scalar_curvature == pytest.approx(8.0)
    # S^2(1/2) x R x S^2(1): 2/(1/4) + 1 * 2 * 1 = 10
    assert product_of_rounds(2, 0.5, 2, 1.0).scalar_curvature == pytest.approx(10.0)


def test_dimension_bookkeeping():
    m = product_of_rounds(1, 1.0, 3, 1.0)
    assert m.surface_dim == 4


def test_fiber_lists_the_base_sphere_first():
    assert product_of_rounds(1, 2.0, 3, 1.0).fiber(0.5) == ((2.0, 0.5), (1, 2))
    assert round_sphere(3, 1.0).fiber(0.5) == ((0.5,), (2,))


def test_warp_identities_round():
    m = round_sphere(3, 0.5)  # slice curvature 4
    r = np.linspace(0.01, m.max_radius * 0.999, 50)
    sn = m.warp(r)
    dsn = m.warp_d1(r)
    assert np.max(np.abs(dsn**2 + 4.0 * sn**2 - 1.0)) < 1e-12
    assert np.max(np.abs(sn - np.sin(2 * r) / 2)) < 1e-14


def test_warp_identities_flat():
    m = flat_space(4)
    r = np.linspace(0.0, 10.0, 11)
    assert np.array_equal(m.warp(r), r)
    assert np.all(m.warp_d1(r) == 1.0)


def test_geodesic_sphere_flat():
    m = flat_space(3)
    for eps in (0.1, 0.05, 0.025):
        data = m.geodesic_sphere_data(eps)
        assert data.principal_curvatures.shape == (2,)
        assert np.max(np.abs(data.principal_curvatures + 1.0 / eps)) < 1e-12
        assert data.metric_deviation == 0.0


def test_geodesic_sphere_round():
    m = round_sphere(3, 1.0)
    eps = 0.1
    data = m.geodesic_sphere_data(eps)
    expected = -np.cos(eps) / np.sin(eps)
    assert np.max(np.abs(data.principal_curvatures - expected)) < 1e-12
    # |sin^2(eps)/eps^2 - 1| is about eps^2 / 3
    assert data.metric_deviation == pytest.approx(eps**2 / 3, rel=0.05)
    assert data.metric_deviation <= eps**2


def test_radius_guards():
    m = round_sphere(3, 1.0)
    with pytest.raises(RadiusExceedsModel):
        m.warp(np.pi)  # beyond the equator at pi/2
    with pytest.raises(RadiusExceedsModel):
        m.radial_log_slope(0.0)
    with pytest.raises(ParameterOutOfRange):
        m.geodesic_sphere_data(0.0)
    with pytest.raises(RadiusExceedsModel):
        m.warp(-0.1)


def test_parameter_guards():
    with pytest.raises(ParameterOutOfRange):
        AmbientModel(base_dim=-1, slice_dim=3)
    with pytest.raises(ParameterOutOfRange):
        AmbientModel(base_dim=0, slice_dim=1)
    with pytest.raises(ParameterOutOfRange):
        AmbientModel(base_dim=1, slice_dim=3, base_radius=0.0)
    with pytest.raises(ParameterOutOfRange):
        AmbientModel(base_dim=1, slice_dim=3, slice_curv=-1.0)
    with pytest.raises(ParameterOutOfRange):
        round_sphere(3, 0.0)


def test_unit_sphere_volumes():
    assert unit_sphere_volume(1) == pytest.approx(2 * np.pi, abs=1e-13)
    assert unit_sphere_volume(2) == pytest.approx(4 * np.pi, abs=1e-13)
    assert unit_sphere_volume(3) == pytest.approx(2 * np.pi**2, abs=1e-12)
    assert unit_sphere_volume(0) == pytest.approx(2.0, abs=1e-14)
