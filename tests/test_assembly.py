"""Gluing, collars, caps, tunnels, and surgery assemblies."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from neckforge.assembly import (Assembly, AssemblyPiece, Placement,
                                boundary_homotopy, build_tunnel,
                                build_tunnel_between, cap_profile,
                                certified_min_scalar, _chain, choose_stretch,
                                collar_metric, perform_surgery, slope_deficit)
from neckforge.errors import (CodimensionTooSmall, InfeasibleBudget,
                              InterfaceMismatch, ParameterOutOfRange)
from neckforge.measure import profile_volume
from neckforge.models import (AmbientModel, flat_space, round_sphere,
                              unit_sphere_volume)
from neckforge.profiles import (DoublyWarpProfile, WarpProfile,
                                load_profile_csv)


# -- transition legs ----------------------------------------------------------

def test_collar_metric_endpoints_and_flat_jets():
    leg = collar_metric((0.3,), (0.6,), (2,), stretch=1.5, n_nodes=301)
    assert leg.boundary_jets("start") == ((0.3, 0.0, 0.0),)
    assert leg.boundary_jets("end") == ((0.6, 0.0, 0.0),)
    assert leg.values[0] == 0.3 and leg.values[-1] == 0.6
    assert leg.length == 1.5


def test_collar_metric_doubly_warped_factors():
    leg = collar_metric((1.0, 0.2), (1.0, 0.4), (1, 2), stretch=0.8)
    va, vb = leg.component_values(leg.grid)
    assert np.all(va == 1.0)
    assert vb[0] == 0.2 and vb[-1] == 0.4


def test_collar_metric_validates_arguments():
    with pytest.raises(ParameterOutOfRange):
        collar_metric((0.3,), (0.6, 0.7), (2,), stretch=1.0)
    with pytest.raises(ParameterOutOfRange):
        collar_metric((0.0,), (0.6,), (2,), stretch=1.0)
    with pytest.raises(ParameterOutOfRange):
        collar_metric((0.3,), (0.6,), (2,), stretch=-1.0)


def test_slope_deficit_scales_inverse_square():
    # quintic ramp deficits must halve quadratically per doubling
    deficits = [slope_deficit(collar_metric((0.3,), (0.6,), (2,), c))
                for c in (0.5, 1.0, 2.0, 4.0)]
    for d_short, d_long in zip(deficits[:-1], deficits[1:]):
        exponent = math.log2(d_short / d_long)
        assert 1.7 <= exponent <= 2.3


def test_choose_stretch_stops_at_first_admissible_leg():
    floor = 2.0 / 0.36 - 5.0  # static minimum minus a little room
    leg, bound = choose_stretch((0.3,), (0.6,), (2,), floor, 0.05)
    assert bound >= floor
    assert certified_min_scalar(
        collar_metric((0.3,), (0.6,), (2,), leg.length / 2.0)) < floor


def test_choose_stretch_unreachable_floor_is_infeasible():
    # static curvature tops out at 2/0.3^2; no stretch can beat it
    with pytest.raises(InfeasibleBudget):
        choose_stretch((0.3,), (0.6,), (2,), 1e5, 0.1)


def test_boundary_homotopy_moves_slice_warp_first():
    legs = boundary_homotopy((2.0, 0.5), (1.0, 0.25), (1, 3), floor=0.0,
                             base_stretch=0.25)
    assert len(legs) == 2
    first, _ = legs[0]
    va, vb = first.component_values(first.grid)
    assert np.all(va == 2.0)             # base warp untouched on leg one
    assert vb[-1] == 0.25
    second, _ = legs[1]
    va2, _ = second.component_values(second.grid)
    assert va2[0] == 2.0 and va2[-1] == 1.0


def test_boundary_homotopy_trivial_when_data_agrees():
    assert boundary_homotopy((0.4,), (0.4,), (2,), 0.0, 0.1) == ()


# -- certified sampling -------------------------------------------------------

def test_certified_min_scalar_requires_declared_poles():
    grid = np.linspace(0.0, math.pi, 513)
    prof = WarpProfile(grid=grid, values=np.sin(grid), fiber_dim=2,
                       closed_start=True, closed_end=True)
    with pytest.raises(ParameterOutOfRange):
        certified_min_scalar(prof)
    bound = certified_min_scalar(prof, pole_scalars=(6.0, 6.0))
    # near-pole spline noise may only bias the bound downward, never up
    assert bound <= 6.0
    assert bound == pytest.approx(6.0, rel=1e-5)


def test_certified_min_scalar_open_profile_plain_minimum():
    leg = collar_metric((0.3,), (0.6,), (2,), stretch=2.0)
    s, R = leg.curvature_samples()
    assert certified_min_scalar(leg) == pytest.approx(float(np.min(R)))


# -- caps ---------------------------------------------------------------------

def test_cap_profile_round_closure():
    cap, pole = cap_profile(1, 0.025, 2, closure_radius=1.0)
    assert cap.closed_end == 0
    assert cap.values_a[0] == 1.0 and cap.values_a[-1] == 0.0
    assert cap.jets_start == ((1.0, 0.0, 0.0), (0.025, 0.0, 0.0))
    # auto jet of a closed end is an exact unit-slope closure
    assert cap.boundary_jets("end")[0] == (0.0, -1.0, 0.0)
    assert pole == pytest.approx(2.0 + 2.0 / 0.025 ** 2)
    bound = certified_min_scalar(cap, pole_scalars=(pole,))
    assert bound > 3000.0


def test_cap_profile_higher_base_dim():
    cap, pole = cap_profile(2, 0.1, 3, closure_radius=0.5)
    assert pole == pytest.approx(2 * 3 / 0.25 + 6 / 0.01)
    assert certified_min_scalar(cap, pole_scalars=(pole,)) > 0.0


def test_cap_profile_rejects_base_dim_zero():
    with pytest.raises(ParameterOutOfRange):
        cap_profile(0, 0.1, 2)


# -- chains and interfaces ----------------------------------------------------

def record(prof):
    return AssemblyPiece(profile=prof, min_scalar=certified_min_scalar(prof),
                         scalar_method="profile-sampled",
                         volume=profile_volume(prof))


def test_chain_rejects_mismatched_jets():
    left = collar_metric((0.3,), (0.5,), (2,), 1.0)
    right = collar_metric((0.6,), (0.8,), (2,), 1.0)
    mk = lambda name, prof: (name, "collar", record(prof), False)
    with pytest.raises(InterfaceMismatch):
        _chain("bad", [mk("l", left), mk("r", right)], {})
    good = _chain("good", [mk("l", left),
                           mk("r", collar_metric((0.5,), (0.8,), (2,), 1.0))], {})
    assert good.max_interface_gap == 0.0
    assert len(good.interfaces) == 1


def test_chain_checks_each_distinct_seam_once():
    # a leg there and back, four times: two records, two distinct seams
    there = record(collar_metric((0.3,), (0.5,), (2,), 1.0))
    back = record(collar_metric((0.5,), (0.3,), (2,), 1.0))
    chain = _chain("loop", [(f"{name}{i}", "collar", rec, False)
                            for i in range(4)
                            for name, rec in (("there", there),
                                              ("back", back))], {})
    assert chain.pieces == (there, back)
    assert [p.piece for p in chain.placements] == [0, 1] * 4
    assert [(i.left, i.right) for i in chain.interfaces] == [(0, 1), (1, 0)]
    assert chain.total_length == 8 * there.profile.length
    with pytest.raises(InterfaceMismatch, match="there0 -> back0"):
        _chain("bad", [("there0", "collar", there, False),
                       ("back0", "collar", back, True)], {})


# -- tunnels ------------------------------------------------------------------

@pytest.fixture(scope="module")
def tunnel():
    return build_tunnel(round_sphere(3, 1.0), 0.1, length=2.0, sharpness=100)


def test_tunnel_scalar_floor(tunnel):
    assert tunnel.provenance["floor"] == pytest.approx(5.99)
    assert tunnel.min_scalar > 5.99
    # honest accounting: the bound is the worst piece, not the design value
    assert tunnel.min_scalar < 6.0


def test_tunnel_interfaces_are_exact(tunnel):
    # every seam of a tunnel is distinct: the mirror side's are reversed
    assert len(tunnel.interfaces) == len(tunnel.placements) - 1
    assert tunnel.max_interface_gap <= 1e-10


def test_tunnel_diameter_straddles_cylinder_length(tunnel):
    lower, upper = tunnel.diameter_bounds()
    assert lower >= 2.0
    assert upper >= lower
    assert lower == pytest.approx(tunnel.total_length)


def test_tunnel_ends_are_ambient_annuli(tunnel):
    assert tunnel.provenance["side"]["annulus_deviation"] <= 1e-12
    first = tunnel.placements[0]
    last = tunnel.placements[-1]
    assert first.role == "ambient_annulus" and last.role == "ambient_annulus"
    # the far end is the near one traversed backwards: one record
    assert last.piece == first.piece and last.reversed
    ((v, d1, d2),) = tunnel.boundary_jets(0, "start")
    assert tunnel.boundary_jets(-1, "end") == ((v, -d1, d2),)
    with pytest.raises(ParameterOutOfRange):
        tunnel.boundary_jets(-1, "middle")


def test_tunnel_piece_structure(tunnel):
    roles = [p.role for p in tunnel.placements]
    assert roles.count("cylinder") == 1
    assert roles.count("collar") == 2
    assert roles[0] == "ambient_annulus" and roles[-1] == "ambient_annulus"
    mid = roles.index("cylinder")
    assert roles[:mid][::-1] == roles[mid + 1:]  # mirror symmetry
    # every mirror placement is its forward twin's record, once in pieces
    placements = tunnel.placements
    for forward, mirror in zip(placements[:mid], placements[::-1]):
        assert not forward.reversed and mirror.reversed
        assert mirror.piece == forward.piece
    assert [p.piece for p in placements[:mid + 1]] == list(range(mid + 1))
    assert len(tunnel.pieces) == mid + 1


def test_tunnel_without_cylinder(tunnel):
    short = build_tunnel(round_sphere(3, 1.0), 0.1, length=0.0, sharpness=100)
    roles = [p.role for p in short.placements]
    assert "cylinder" not in roles
    assert short.max_interface_gap <= 1e-10
    assert short.total_volume == pytest.approx(
        tunnel.provenance["volume_modified"], rel=1e-12)


def test_tunnel_cylinder_volume_closed_form(tunnel):
    cyl = tunnel.piece("cylinder")
    a = tunnel.provenance["cylinder_radius"]
    assert cyl.volume == pytest.approx(unit_sphere_volume(2) * a * a * 2.0,
                                       rel=1e-12)
    assert cyl.min_scalar == pytest.approx(2.0 / (a * a), rel=1e-9)


def test_tunnel_volume_stable_in_sharpness(tunnel):
    # the waist shrinks by orders of magnitude but the volume barely moves
    waists, volumes = [], []
    for j in (10.0, 1000.0):
        t = build_tunnel(round_sphere(3, 1.0), 0.1, length=2.0, sharpness=j)
        waists.append(t.provenance["side"]["waist_radius"])
        volumes.append(t.total_volume)
    assert waists[1] < 0.01 * waists[0]
    assert abs(volumes[1] - tunnel.total_volume) < 1e-3 * tunnel.total_volume
    assert abs(volumes[0] - tunnel.total_volume) < 1e-3 * tunnel.total_volume


def test_tunnel_floor_sharpens_with_j(tunnel):
    sharp = build_tunnel(round_sphere(3, 1.0), 0.1, length=2.0,
                         sharpness=1000.0)
    assert sharp.min_scalar > 5.999
    assert sharp.min_scalar > tunnel.min_scalar


def test_tunnel_small_sphere_long_run():
    tun = build_tunnel(round_sphere(3, 0.5), 0.1, length=10.0, sharpness=100)
    assert tun.min_scalar > 6.0          # far above even the weak target
    assert tun.diameter_bounds()[0] >= 10.0


def test_tunnel_flat_model_negative_floor():
    tun = build_tunnel(flat_space(4), 0.1, length=1.0, sharpness=50.0)
    assert tun.provenance["floor"] == pytest.approx(-0.02)
    assert tun.min_scalar > -0.02
    assert tun.min_scalar < 0.0


def test_tunnel_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        build_tunnel(round_sphere(3, 1.0), 0.1, length=-1.0)
    with pytest.raises(ParameterOutOfRange):
        build_tunnel(round_sphere(3, 1.0), 0.1, sharpness=0.5)


def test_tunnel_between_asymmetric_models():
    hot = AmbientModel(base_dim=0, slice_dim=3, base_radius=1.0,
                       slice_curv=1.001)
    tun = build_tunnel_between(round_sphere(3, 1.0), hot, 0.1, 0.08,
                               floor=5.9, length=0.5)
    assert tun.min_scalar > 5.9
    assert tun.max_interface_gap <= 1e-10
    assert tun.provenance["cylinder_radius"] <= 0.9 * 0.08
    lo, _ = tun.diameter_bounds()
    assert lo >= 0.5


def test_tunnel_between_rejects_mismatched_factors():
    with pytest.raises(ParameterOutOfRange):
        build_tunnel_between(round_sphere(3, 1.0), round_sphere(4, 1.0),
                             0.1, 0.1, floor=1.0)


def test_tunnel_between_needs_headroom():
    with pytest.raises(InfeasibleBudget):
        build_tunnel_between(round_sphere(3, 1.0), round_sphere(3, 1.0),
                             0.1, 0.1, floor=6.0)


def test_tunnel_modified_volume_scales_with_tube_cubed():
    ratios = []
    for delta in (0.2, 0.1, 0.05):
        t = build_tunnel(round_sphere(3, 1.0), delta, length=0.0,
                         sharpness=100)
        ratios.append(t.provenance["volume_modified"] / delta ** 3)
    assert max(ratios) / min(ratios) < 1.5


# -- surgery ------------------------------------------------------------------

@pytest.fixture(scope="module")
def surgery():
    return perform_surgery(1, 3, 0.05)


def test_surgery_scalar_floor(surgery):
    kappa = surgery.provenance["model"]["scalar_curvature"]
    assert kappa == pytest.approx(6.0)
    assert surgery.provenance["floor"] == pytest.approx(6.0 - 0.05)
    assert surgery.min_scalar > 6.0 - 0.05


def test_surgery_volume_sandwich(surgery):
    ref = surgery.provenance["volume_reference"]
    assert ref == pytest.approx(2 * math.pi * 2 * math.pi ** 2, rel=1e-12)
    ratio = surgery.provenance["volume_ratio"]
    assert 0.95 < ratio < 1.05
    # the construction only touches a tube of radius ~2*delta
    assert abs(ratio - 1.0) < 0.01


def test_surgery_chain_layout(surgery):
    names = [p.name for p in surgery.placements]
    assert names[0] == "body_remnant" and names[-1] == "cap"
    assert surgery.max_interface_gap <= 1e-10
    remnant = surgery.piece("body_remnant")
    assert remnant.min_scalar == pytest.approx(6.0, abs=1e-4)
    assert remnant.scalar_method.endswith("+declared-poles")


def test_surgery_cap_is_small(surgery):
    cap = surgery.piece("cap")
    assert cap.volume < 0.01 * surgery.provenance["volume_reference"]
    assert cap.min_scalar > 1000.0


def test_surgery_codimension_guard():
    with pytest.raises(CodimensionTooSmall):
        perform_surgery(1, 2, 0.05)
    with pytest.raises(ParameterOutOfRange):
        perform_surgery(0, 3, 0.05)


def test_surgery_nonunit_base_radius():
    result = perform_surgery(1, 3, 0.05, base_radius=2.0)
    assert result.min_scalar > 6.0 - 0.05
    # base circle of radius 2 must be homotoped down to the unit cap mouth
    roles = [p.role for p in result.placements]
    assert roles.count("collar") == 2


# -- persistence --------------------------------------------------------------

def test_assembly_save_files_manifest(tmp_path, tunnel):
    path = tunnel.save_files(tmp_path / "out", certificate_ref="cert.json")
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 3
    assert doc["certificate_ref"] == "cert.json"
    # each record once, the chain as placements, each distinct seam once
    assert len(doc["pieces"]) == len(tunnel.placements) // 2 + 1
    assert doc["placements"] == [p._asdict() for p in tunnel.placements]
    assert doc["interfaces"] == [i._asdict() for i in tunnel.interfaces]
    assert doc["totals"]["volume"] == pytest.approx(tunnel.total_volume)
    for entry, record in zip(doc["pieces"], tunnel.pieces, strict=True):
        assert entry["fingerprint"] == record.profile.fingerprint()
        assert entry["file"] == f"pieces/{entry['fingerprint']}.piece"
        written = (tmp_path / "out" / entry["file"]).read_bytes()
        assert entry["fingerprint"] == hashlib.sha256(written).hexdigest()
        assert entry["min_scalar"] == record.min_scalar
        assert not {"name", "role", "reversed"} & set(entry)
    stored = list((tmp_path / "out" / "pieces").iterdir())
    assert len(stored) == len(tunnel.pieces)


def test_assembly_save_files_renders_each_piece_once(tmp_path, tunnel,
                                                     monkeypatch):
    renders = []
    for cls in (WarpProfile, DoublyWarpProfile):
        original = cls.canonical_bytes

        def counted(self, original=original):
            renders.append(self)
            return original(self)

        monkeypatch.setattr(cls, "canonical_bytes", counted)
    tunnel.save_files(tmp_path / "out")
    # mirrors place their sources' records, so only those are rendered
    assert renders == [record.profile for record in tunnel.pieces]
    assert len(renders) == len(tunnel.placements) // 2 + 1


def test_assembly_save_files_writes_each_content_once(tmp_path):
    # two links of equal content built apart, one placed reversed too:
    # two records, one file
    model = round_sphere(3, 1.0)
    first = build_tunnel(model, 0.1, sharpness=100)
    second = build_tunnel(model, 0.1, sharpness=100)
    piece = first.pieces[0]
    twin = second.pieces[0]
    assert piece.profile is not twin.profile
    chain = Assembly(name="three", interfaces=(), pieces=(piece, twin),
                     placements=(Placement("first", "x", 0, False),
                                 Placement("twin", "x", 1, False),
                                 Placement("mirror", "x", 1, True)))
    doc = json.loads(chain.save_files(tmp_path).read_text())
    assert [p["reversed"] for p in doc["placements"]] == [False, False, True]
    assert len(doc["pieces"]) == 2
    assert len({e["file"] for e in doc["pieces"]}) == 1
    assert len(list((tmp_path / "pieces").iterdir())) == 1


def test_assembly_save_files_reverses_only_the_direct_parent(tmp_path,
                                                             tunnel):
    # a record over a profile reverse() made stores that profile's own
    # bytes; its reversed placement names the same file, reversed once
    source = tunnel.pieces[0]
    flipped = dataclasses.replace(source, profile=source.profile.reverse())
    chain = Assembly(name="pair", interfaces=(), pieces=(flipped,),
                     placements=(Placement("flipped", "x", 0, False),
                                 Placement("again", "x", 0, True)))
    doc = json.loads(chain.save_files(tmp_path).read_text())
    [entry] = doc["pieces"]
    assert [p["reversed"] for p in doc["placements"]] == [False, True]
    stored = load_profile_csv(tmp_path / entry["file"])
    assert stored.canonical_bytes() == flipped.profile.canonical_bytes()
    assert stored.canonical_bytes() != source.profile.canonical_bytes()
    for end in ("start", "end"):
        assert (stored.reverse().boundary_jets(end)
                == chain.boundary_jets(1, end))


def test_assembly_save_files_deterministic(tmp_path, tunnel):
    p1 = tunnel.save_files(tmp_path / "one")
    p2 = tunnel.save_files(tmp_path / "two")
    assert p1.read_bytes() == p2.read_bytes()
