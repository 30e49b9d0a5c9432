"""Volume and diameter measurement against closed forms."""

import numpy as np
import pytest

from neckforge import measure, profiles
from neckforge.errors import QuadratureNonConvergence
from neckforge.measure import (
    DIAMETER_REFINE,
    _fiber_bound,
    _volume_integrand,
    adaptive_panel_integral,
    diameter_bounds,
    profile_volume,
)
from neckforge.models import unit_sphere_volume
from neckforge.numerics import bernstein, gauss_legendre_panels
from neckforge.pipelines import (
    attach_hemisphere,
    attach_product_ingredient,
    hemisphere_standin,
    round_sphere_ingredient,
    sphere_chain_certificate,
    surgery_certificate,
    tunnel_certificate,
    verify_volume_budget,
)
from neckforge.profiles import DoublyWarpProfile, WarpProfile


def test_hemisphere_volume():
    grid = np.linspace(0.0, np.pi / 2, 4096)
    prof = WarpProfile(grid=grid, values=np.sin(grid), fiber_dim=2,
                       closed_start=True)
    assert profile_volume(prof) == pytest.approx(np.pi**2, rel=1e-9)


def test_full_three_sphere_volume():
    grid = np.linspace(0.0, np.pi, 4096)
    prof = WarpProfile(grid=grid, values=np.sin(grid), fiber_dim=2,
                       closed_start=True, closed_end=True)
    assert profile_volume(prof) == pytest.approx(2 * np.pi**2, rel=1e-9)


def test_cylinder_volume_exact():
    beta, L = 0.3, 5.0
    grid = np.linspace(0.0, L, 64)
    prof = WarpProfile(grid=grid, values=np.full(64, beta), fiber_dim=2)
    assert profile_volume(prof) == pytest.approx(4 * np.pi * beta**2 * L, rel=1e-13)


def test_product_body_volume():
    # S^1(2) x S^3(3) as a doubly warped profile: volume 4pi * 54 pi^2
    grid = np.linspace(0.0, 3 * np.pi, 8192)
    prof = DoublyWarpProfile(grid=grid, values_a=np.full(grid.size, 2.0),
                             values_b=3.0 * np.sin(grid / 3.0),
                             dim_a=1, dim_b=2, closed_start=1, closed_end=1)
    expected = (4 * np.pi) * (2 * np.pi**2 * 27)
    assert profile_volume(prof) == pytest.approx(expected, rel=1e-9)


def test_diameter_bounds_cylinder():
    beta, L = 0.3, 5.0
    grid = np.linspace(0.0, L, 64)
    prof = WarpProfile(grid=grid, values=np.full(64, beta), fiber_dim=2)
    lo, hi = diameter_bounds([prof])
    assert lo == pytest.approx(L, abs=1e-12)
    assert hi == pytest.approx(L + np.pi * beta, abs=1e-12)


def test_diameter_bounds_chain_and_product_fiber():
    grid = np.linspace(0.0, 2.0, 64)
    single = WarpProfile(grid=grid, values=np.full(64, 0.5), fiber_dim=2)
    double = DoublyWarpProfile(grid=grid, values_a=np.full(64, 0.3),
                               values_b=np.full(64, 0.4), dim_a=1, dim_b=2)
    lo, hi = diameter_bounds([single, double])
    assert lo == pytest.approx(4.0, abs=1e-12)
    assert hi == pytest.approx(4.0 + np.pi * 0.5, abs=1e-12)


def test_adaptive_integral_smooth():
    val = adaptive_panel_integral(np.exp, np.linspace(0.0, 1.0, 5))
    assert val == pytest.approx(np.e - 1.0, rel=1e-13)


def test_adaptive_integral_nonconvergence():
    wild = lambda x: np.sin(1.0 / (x + 1e-7))
    with pytest.raises(QuadratureNonConvergence):
        adaptive_panel_integral(wild, [0.0, 1.0], rel_tol=1e-12, max_depth=6)


# -- the exact path --------------------------------------------------------


@pytest.fixture
def passes(monkeypatch):
    """Counts the Gauss-Legendre passes that measure runs."""
    count = [0]

    def counting(*args, **kwargs):
        count[0] += 1
        return gauss_legendre_panels(*args, **kwargs)

    monkeypatch.setattr(measure, "gauss_legendre_panels", counting)
    return count


def _distinct_profiles(result):
    profiles = {}
    for assembly in result.assemblies.values():
        for piece in assembly.pieces:
            profiles[id(piece.profile)] = piece.profile
    return list(profiles.values())


@pytest.mark.parametrize("build", [
    lambda: tunnel_certificate(3, sharpness=1e4),
    lambda: surgery_certificate(1, 3, 0.1),
    lambda: attach_product_ingredient(1, 2),
    lambda: sphere_chain_certificate(1.5 * 2 * np.pi**2, 3),
], ids=["tunnel", "surgery", "cor-t", "cor-v"])
def test_exact_path_equals_the_halving_loop(build):
    for prof in _distinct_profiles(build()):
        assert profile_volume(prof) == adaptive_panel_integral(
            _volume_integrand(prof), prof.grid)


def test_one_quadrature_pass_per_tunnel_volume(passes):
    profiles = _distinct_profiles(tunnel_certificate(4, 12.0, sharpness=1e3))
    passes[0] = 0
    for prof in profiles:
        profile_volume(prof)
    assert passes[0] == len(profiles)


def test_split_intervals_take_the_exact_path(passes):
    # acollar_0 has a negative Bernstein coefficient on one interval where
    # its cubic stays positive; one de Casteljau split proves the interval
    result = tunnel_certificate(3, 6.0, 0.0504, 0.585, 5.40e5)
    collar = result.assemblies["tunnel"].piece("acollar_0")
    spline = collar.profile.warp_splines[0][0]
    bern, scale = bernstein(spline.c, spline.x)
    assert not (bern >= 8e-16 * scale).all()
    assert collar.volume.hex() == "0x1.0baa76e8d37a9p-10"
    profiles = _distinct_profiles(result)
    passes[0] = 0
    for prof in profiles:
        profile_volume(prof)
    assert passes[0] == len(profiles)


def test_closed_ends_take_the_exact_path(passes):
    grid = np.linspace(0.0, np.pi, 512)
    prof = WarpProfile(grid=grid, values=np.sin(grid), fiber_dim=2,
                       closed_start=True, closed_end=True)
    assert profile_volume(prof) == pytest.approx(2 * np.pi**2, rel=1e-9)
    assert passes[0] == 1


def test_high_fiber_dimension_takes_the_halving_loop(passes):
    # 3 * 8 = 24 exceeds the degree 12-point panels integrate exactly
    grid = np.linspace(0.0, 1.0, 64)
    prof = WarpProfile(grid=grid, values=0.5 + 0.1 * grid, fiber_dim=8)
    vol = profile_volume(prof)
    assert passes[0] >= 2
    assert vol == adaptive_panel_integral(_volume_integrand(prof), prof.grid)


def test_negative_spline_dip_takes_the_halving_loop(passes):
    # positive at every node, but the spline overshoots below zero after
    # the step, where |v|^d is no longer the polynomial v^d
    grid = np.linspace(0.0, 1.0, 16)
    values = np.where(np.arange(16) < 8, 1.0, 0.01)
    prof = WarpProfile(grid=grid, values=values, fiber_dim=1)
    assert np.min(prof.value(np.linspace(0.0, 1.0, 2001))) < 0.0
    vol = profile_volume(prof)
    assert passes[0] >= 2
    assert vol == adaptive_panel_integral(_volume_integrand(prof), prof.grid)


# -- the bounded diameter sweep ---------------------------------------------


def reference_diameter(profiles):
    """The exhaustive sweep: every piece sampled on its refined grid."""
    length = 0.0
    max_fiber = 0.0
    for prof in profiles:
        length += prof.length
        grid = prof.grid
        h = (grid[-1] - grid[0]) / (grid.size - 1)
        pts = [grid]
        for k in range(1, DIAMETER_REFINE):
            pts.append(grid[:-1] + (k / DIAMETER_REFINE) * h)
        s = np.concatenate(pts)
        sq = np.zeros_like(s)
        for v in prof.component_values(s):
            sq = sq + v * v
        max_fiber = max(max_fiber, float(np.max(np.sqrt(sq))))
    return length, length + np.pi * max_fiber


@pytest.fixture
def sampled(monkeypatch):
    """The profiles whose fiber the diameter sweep samples, in order."""
    seen = []
    real = measure._sampled_fiber

    def spy(profile):
        seen.append(profile)
        return real(profile)

    monkeypatch.setattr(measure, "_sampled_fiber", spy)
    return seen


@pytest.mark.parametrize("build", [
    lambda: tunnel_certificate(3),
    lambda: surgery_certificate(1, 3, 0.05),
    lambda: attach_hemisphere(round_sphere_ingredient(3, 0.8)),
    lambda: attach_hemisphere(round_sphere_ingredient(3, 0.5),
                              diameter_target=10.0),
    lambda: attach_product_ingredient(1, 2),
    lambda: sphere_chain_certificate(3 * unit_sphere_volume(3), 3),
    lambda: verify_volume_budget(
        hemisphere_standin(3, declared_volume=0.5 * unit_sphere_volume(3)),
        0.05, diameter_target=10.0),
], ids=["tunnel", "surgery", "main-a", "cor-d", "cor-t", "cor-v", "main-b"])
def test_diameter_sweep_equals_the_exhaustive_sweep(build, sampled):
    for assembly in build().assemblies.values():
        sampled.clear()
        assert assembly.diameter_bounds() == reference_diameter(
            assembly.profiles)
        assert 0 < len(sampled) < len(assembly.pieces)


def test_diameter_maximum_in_the_second_piece(sampled):
    grid = np.linspace(0.0, 1.0, 64)
    flat = WarpProfile(grid=grid, values=np.full(64, 0.3), fiber_dim=2)
    bump = WarpProfile(grid=grid, values=0.3 + 0.5 * np.sin(np.pi * grid),
                       fiber_dim=2)
    assert diameter_bounds([flat, bump]) == reference_diameter([flat, bump])
    # the flat piece's bound is below the bump's maximum: never sampled
    assert sampled == [bump]


def test_diameter_samples_a_piece_whose_bound_clears_the_maximum(sampled):
    # a spike's cubics overshoot their nodes' hull, so its bound exceeds
    # its sampled maximum by about 0.2%; the larger spike holds the
    # maximum, but the smaller one's bound still clears it
    grid = np.linspace(0.0, 1.0, 8)
    values = np.full(8, 0.5)
    values[3] = 0.9
    small = WarpProfile(grid=grid, values=values, fiber_dim=2)
    large = WarpProfile(grid=grid, values=1.001 * values, fiber_dim=2)
    assert _fiber_bound(small) > np.max(large.values) > np.max(small.values)
    assert diameter_bounds([small, large]) == reference_diameter([small, large])
    assert sampled == [large, small]


def test_mirror_pieces_take_their_source_bound(sampled, monkeypatch):
    # a tunnel's mirror side reuses its source's volume and floor; its
    # fiber bound comes from the source too, so a mirror piece builds a
    # spline only when the sweep samples it
    builds = []
    real_builder = profiles.CubicSpline

    def counting(x, y):
        builds.append(1)
        return real_builder(x, y)

    monkeypatch.setattr(profiles, "CubicSpline", counting)
    tunnel = tunnel_certificate(3, sharpness=1e4).assemblies["tunnel"]
    assert len(builds) <= 26
    mirrors = [p.profile for p in tunnel.pieces
               if p.profile.reversed_from is not None]
    assert len(mirrors) == 22
    with_spline = {id(prof) for prof in mirrors if "_spline" in vars(prof)}
    assert with_spline == {id(prof) for prof in sampled
                           if prof.reversed_from is not None}
    for prof in mirrors:
        assert _fiber_bound(prof) == _fiber_bound(prof.reversed_from)
        assert _fiber_bound(prof) >= measure._sampled_fiber(prof)
