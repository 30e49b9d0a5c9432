"""Volume and diameter measurement against closed forms."""

from functools import reduce

import numpy as np
import pytest

from neckforge import measure, profiles
from neckforge.errors import QuadratureNonConvergence
from neckforge.measure import (
    _fiber_bound,
    _volume_integrand,
    adaptive_panel_integral,
    diameter_bounds,
    profile_volume,
)
from neckforge.models import unit_sphere_volume
from neckforge.numerics import (GL_POINTS, bernstein, cubic_rows,
                                gauss_legendre_panels)
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
    # an upper bound: above the exact value by no more than its slack
    assert L + np.pi * beta <= hi <= L + np.pi * beta * (1 + 3e-12)


def test_diameter_bounds_chain_and_product_fiber():
    grid = np.linspace(0.0, 2.0, 64)
    single = WarpProfile(grid=grid, values=np.full(64, 0.5), fiber_dim=2)
    double = DoublyWarpProfile(grid=grid, values_a=np.full(64, 0.3),
                               values_b=np.full(64, 0.4), dim_a=1, dim_b=2)
    lo, hi = diameter_bounds([single, double])
    assert lo == pytest.approx(4.0, abs=1e-12)
    assert 4.0 + np.pi * 0.5 <= hi <= 4.0 + np.pi * 0.5 * (1 + 3e-12)


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


def reference_volume(profile) -> float:
    """profile_volume with every warp, constant ones included, read by
    cubic_rows at every abscissa of the halved panels (or of each halving),
    as the integrand read them before constant warps became factors."""
    dims = profile.component_dims
    factor = 1.0
    for d in dims:
        factor *= unit_sphere_volume(d)
    intervals = profile.grid.size - 1

    def integrand(s):
        out = factor
        for sp, d in zip(profile._splines, dims):
            out = out * reduce(np.multiply, [np.abs(cubic_rows(
                sp.c, sp.x, s.reshape(intervals, -1)))] * d)
        return out

    if 3 * sum(dims) < 2 * GL_POINTS and all(
            nonnegative for nonnegative, _ in profile.cubic_bounds):
        return gauss_legendre_panels(integrand, measure._halved(profile.grid))
    return adaptive_panel_integral(integrand, profile.grid)


VOLUME_BUILDS = {
    "tunnel": lambda: tunnel_certificate(3, sharpness=1e4),
    "surgery": lambda: surgery_certificate(1, 3, 0.1),
    "cor-t": lambda: attach_product_ingredient(1, 2),
    "cor-v": lambda: sphere_chain_certificate(1.5 * 2 * np.pi**2, 3),
    "main-b-budget": lambda: verify_volume_budget(hemisphere_standin(3),
                                                  0.05, dim=3),
}


@pytest.mark.parametrize("build", VOLUME_BUILDS.values(),
                         ids=VOLUME_BUILDS.keys())
def test_constant_warps_leave_every_volume_bit(build):
    profs = _distinct_profiles(build())
    assert any(v is not None for prof in profs for v in prof._constants)
    for prof in profs:
        assert profile_volume(prof).hex() == reference_volume(prof).hex()


def test_a_cylinder_volume_is_its_reference():
    # every warp constant, one and two of them
    grid = np.linspace(0.0, 3.0, 128)
    for prof in (WarpProfile(grid=grid, values=np.full(128, 0.5),
                             fiber_dim=2),
                 DoublyWarpProfile(grid=grid, values_a=np.full(128, 1.25),
                                   values_b=np.full(128, 0.5), dim_a=1,
                                   dim_b=2)):
        assert profile_volume(prof).hex() == reference_volume(prof).hex()


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


def searched_volume(prof):
    """The halving loop over each warp's values found by an interval
    search (component_values) instead of on known knot intervals."""
    dims = prof.component_dims
    factor = 1.0
    for d in dims:
        factor *= unit_sphere_volume(d)

    def integrand(s):
        out = factor
        for v, d in zip(prof.component_values(s), dims):
            out = out * reduce(np.multiply, [np.abs(v)] * d)
        return out

    return adaptive_panel_integral(integrand, prof.grid)


def test_high_fiber_dimension_takes_the_halving_loop(passes):
    # 3 * 8 = 24 exceeds the degree 12-point panels integrate exactly
    grid = np.linspace(0.0, 1.0, 64)
    prof = WarpProfile(grid=grid, values=0.5 + 0.1 * grid, fiber_dim=8)
    vol = profile_volume(prof)
    assert passes[0] >= 2
    assert vol == searched_volume(prof)


def test_doubly_warped_halving_loop_reads_the_searched_floats(passes):
    # 3 * (1 + 8) = 27: the halving loop, with a constant first warp
    grid = np.linspace(0.0, 1.0, 64)
    prof = DoublyWarpProfile(grid=grid, values_a=np.full(64, 0.7),
                             values_b=0.5 + 0.1 * np.sin(3.0 * grid),
                             dim_a=1, dim_b=8)
    vol = profile_volume(prof)
    assert passes[0] >= 2
    assert vol == searched_volume(prof)


def test_negative_spline_dip_takes_the_halving_loop(passes):
    # positive at every node, but the spline overshoots below zero after
    # the step, where |v|^d is no longer the polynomial v^d
    grid = np.linspace(0.0, 1.0, 16)
    values = np.where(np.arange(16) < 8, 1.0, 0.01)
    prof = WarpProfile(grid=grid, values=values, fiber_dim=1)
    assert np.min(prof.value(np.linspace(0.0, 1.0, 2001))) < 0.0
    vol = profile_volume(prof)
    assert passes[0] >= 2
    assert vol == searched_volume(prof)


# -- the diameter bound ------------------------------------------------------


def reference_diameter(profiles):
    """The exhaustive sweep: every piece's length and Bernstein fiber
    bound, mirrors and repeats included."""
    length = sum(prof.length for prof in profiles)
    return length, length + np.pi * max(_fiber_bound(p) for p in profiles)


def sampled_fiber(prof, refine=4):
    """Max of sqrt(sum v_i^2) over the grid refined refine times."""
    grid = prof.grid
    h = (grid[-1] - grid[0]) / (grid.size - 1)
    s = np.concatenate([grid] + [grid[:-1] + (k / refine) * h
                                 for k in range(1, refine)])
    sq = np.zeros_like(s)
    for v in prof.component_values(s):
        sq = sq + v * v
    return float(np.max(np.sqrt(sq)))


def sampled_diameter(profiles):
    """length + pi * the fiber maximum sampled on every grid refined 4
    times: an estimate from below that the upper bound must clear."""
    length = 0.0
    for prof in profiles:
        length += prof.length
    return length + np.pi * max(sampled_fiber(prof) for prof in profiles)


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
def test_diameter_sweep_equals_the_exhaustive_sweep(build):
    # and the upper bound clears a dense sample of the fiber
    for assembly in build().assemblies.values():
        lower, upper = assembly.diameter_bounds()
        profiles = [p.profile for p in assembly.placed]
        assert (lower, upper) == reference_diameter(profiles)
        assert upper >= sampled_diameter(profiles)


def test_diameter_maximum_in_the_second_piece():
    grid = np.linspace(0.0, 1.0, 64)
    flat = WarpProfile(grid=grid, values=np.full(64, 0.3), fiber_dim=2)
    bump = WarpProfile(grid=grid, values=0.3 + 0.5 * np.sin(np.pi * grid),
                       fiber_dim=2)
    assert _fiber_bound(flat) < _fiber_bound(bump)
    assert diameter_bounds([flat, bump]) == (
        2.0, 2.0 + np.pi * _fiber_bound(bump))
    assert diameter_bounds([flat, bump])[1] >= sampled_diameter([flat, bump])


def test_diameter_upper_bounds_a_spike():
    # a spike's cubics overshoot their nodes' hull, so its Bernstein bound
    # sits about 0.2% above its maximum, which a dense sweep finds at the
    # spike's node
    grid = np.linspace(0.0, 1.0, 8)
    values = np.full(8, 0.5)
    values[3] = 0.9
    spike = WarpProfile(grid=grid, values=values, fiber_dim=2)
    assert _fiber_bound(spike) > 1.001 * sampled_fiber(spike, refine=64)
    assert sampled_fiber(spike, refine=64) == 0.9
    assert diameter_bounds([spike]) == (1.0, 1.0 + np.pi * _fiber_bound(spike))


def test_mirrors_share_their_source_profile(monkeypatch):
    # a tunnel's mirror side places its source records, reversed: each
    # mirror is its forward twin's record, so the tunnel builds no mirror
    # profile and no spline through a mirror's samples
    builds = []
    real_builder = profiles.CubicSpline

    def counting(x, y):
        builds.append(y)
        return real_builder(x, y)

    monkeypatch.setattr(profiles, "CubicSpline", counting)
    tunnel = tunnel_certificate(3, sharpness=1e4).assemblies["tunnel"]
    placements = tunnel.placements
    mirrors = [i for i, p in enumerate(placements) if p.reversed]
    assert len(mirrors) == 22
    for i in mirrors:
        twin = placements[len(placements) - 1 - i]
        assert not twin.reversed and placements[i].piece == twin.piece
    distinct = {id(p.profile): p.profile for p in tunnel.pieces}
    assert len(distinct) == len(tunnel.pieces)
    assert len(distinct) == len(placements) - len(mirrors)
    assert builds and not any(
        np.array_equal(y, prof.values[::-1])
        for y in builds for prof in distinct.values())
    for prof in distinct.values():
        assert _fiber_bound(prof) >= sampled_fiber(prof)
