"""End-to-end checks for the gluing pipelines and their certificates."""

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from neckforge import assembly, pipelines
from neckforge.assembly import (DEFAULT_INTERFACE_TOL, _jet_gap,
                                build_tunnel_between)
from neckforge.certificate import certificate_bytes, recheck_certificate
from neckforge.errors import (FloorCheckFailed, IngredientFloorTooLow,
                              MissingIngredient, ParameterOutOfRange,
                              SchemaViolation)
from neckforge.measure import profile_volume
from neckforge.models import round_sphere, unit_sphere_volume
from neckforge.pipelines import (attach_hemisphere, attach_product_ingredient,
                                 hemisphere_standin, product_ingredient,
                                 profile_ingredient, round_ball_volume,
                                 round_sphere_ingredient,
                                 sphere_chain_certificate, surgery_certificate,
                                 tunnel_certificate, verify_volume_budget)
from neckforge.profiles import WarpProfile, load_profile_csv, save_profile_csv


def claim_status(result, name):
    return result.claim(name)["status"]


# ------------------------------------------------------------ ingredients

def test_round_ingredient_floor_matches_recomputation():
    ing = round_sphere_ingredient(3, 0.5)
    assert ing.certified_floor == pytest.approx(24.0, abs=1e-12)
    assert abs(ing.certified_floor - ing.recomputed_floor()) < 1e-9
    assert ing.volume == pytest.approx(unit_sphere_volume(3) * 0.5 ** 3)
    assert ing.model is not None and ing.trust == "closed-form"


def test_product_ingredient_floor_and_symmetry():
    ing = product_ingredient(1, 2)
    # factors at radius 1/sqrt(12) put p(p-1)+q(q-1) = 2 at floor 24
    assert ing.certified_floor == pytest.approx(24.0, rel=1e-12)
    assert abs(ing.certified_floor - ing.recomputed_floor()) < 1e-9
    swapped = product_ingredient(2, 1)
    assert swapped.certified_floor == pytest.approx(ing.certified_floor)
    assert swapped.volume == pytest.approx(ing.volume)


def test_profile_ingredient_measures_the_profile():
    grid = np.linspace(0.0, math.pi, 1201)
    values = np.sin(grid)
    values[0] = values[-1] = 0.0
    prof = WarpProfile(grid=grid, values=values, fiber_dim=2,
                       closed_start=True, closed_end=True)
    ing = profile_ingredient("round_by_sampling", prof,
                             pole_scalars=(6.0, 6.0))
    assert ing.dim == 3
    assert abs(ing.certified_floor - ing.recomputed_floor()) < 1e-9
    assert ing.volume == pytest.approx(unit_sphere_volume(3), rel=1e-8)


def test_hemisphere_standin_clears_target_and_flags_boundary():
    hemi = hemisphere_standin(3)
    assert hemi.certified_floor > 6.0
    assert hemi.boundary_totally_geodesic
    assert hemi.detail["do_not_glue"] == "boundary annulus"
    declared = hemisphere_standin(3, declared_volume=0.5 * unit_sphere_volume(3))
    assert declared.trust == "external-trusted"
    assert declared.volume == pytest.approx(unit_sphere_volume(3) / 2)


def test_ingredient_rejects_bad_inputs():
    with pytest.raises(ParameterOutOfRange):
        product_ingredient(1, 1)
    with pytest.raises(ParameterOutOfRange):
        product_ingredient(0, 3)
    with pytest.raises(ParameterOutOfRange):
        hemisphere_standin(3, headroom=0.0)


# ------------------------------------------------------------ ball volume

def test_ball_volume_full_and_half_sphere():
    for n in (3, 4, 5):
        rho = 0.7
        full = round_ball_volume(n, rho, math.pi * rho)
        assert full == pytest.approx(unit_sphere_volume(n) * rho ** n,
                                     rel=1e-12)
        half = round_ball_volume(n, rho, 0.5 * math.pi * rho)
        assert half == pytest.approx(0.5 * full, rel=1e-12)


def test_ball_volume_matches_quadrature():
    # independent route: profile quadrature over the same cap
    n, rho, r0 = 4, 1.3, 0.9
    grid = np.linspace(0.0, r0, 4001)
    values = rho * np.sin(grid / rho)
    values[0] = 0.0
    prof = WarpProfile(grid=grid, values=values, fiber_dim=n - 1,
                       closed_start=True)
    assert round_ball_volume(n, rho, r0) == pytest.approx(
        profile_volume(prof), rel=1e-9)


def test_ball_volume_rejects_overrun():
    with pytest.raises(ParameterOutOfRange):
        round_ball_volume(3, 1.0, 4.0)


# ------------------------------------------------- hemisphere attachment

def test_attach_hemisphere_reaches_diameter_ten():
    res = attach_hemisphere(round_sphere_ingredient(3, 0.5),
                            diameter_target=10.0)
    assert res.status == "PASS"
    assert res.quantity("global_min_scalar") > 6.0
    assert res.quantity("diameter_lower") >= 10.0
    assert claim_status(res, "scalar_floor") == "PASS"
    assert claim_status(res, "diameter_reached") == "PASS"
    assert claim_status(res, "boundary_unchanged") == "PASS"


def test_attach_hemisphere_degenerate_diameter_passes():
    res = attach_hemisphere(round_sphere_ingredient(3, 0.5),
                            diameter_target=0.0)
    assert res.status == "PASS"
    # any nonempty chain beats the zero target
    assert res.claim("diameter_reached")["margin"] > 0.0


def test_attach_hemisphere_rejects_floor_at_target():
    # unit sphere sits exactly at n(n-1); strictness must fail it
    with pytest.raises(IngredientFloorTooLow):
        attach_hemisphere(round_sphere_ingredient(3, 1.0))


def test_attach_hemisphere_rejects_dimension_mismatch():
    with pytest.raises(ParameterOutOfRange):
        attach_hemisphere(round_sphere_ingredient(3, 0.5),
                          hemisphere=hemisphere_standin(4))


def test_attach_hemisphere_glues_at_interior_point_only():
    res = attach_hemisphere(round_sphere_ingredient(3, 0.5),
                            diameter_target=2.0)
    prov = res.certificate["provenance"]
    assert prov["glue_site_clearance"] > 0.0
    assert "never modified" in prov["boundary_policy"]
    assert res.quantity("boundary_jet_gap") == 0.0


def test_attach_hemisphere_volume_accounting_is_dual_route():
    res = attach_hemisphere(round_sphere_ingredient(3, 0.5))
    assert res.quantity("volume_accounting_gap") < 1e-8
    chain = res.assemblies["chain"]
    names = [p.name for p in chain.pieces]
    assert names[0] == "ingredient_remnant"
    assert names[-1] == "hemisphere_remnant"


# ------------------------------------------------------- product variant

def test_product_attachment_recomputes_floor():
    res = attach_product_ingredient(1, 2)
    assert res.status == "PASS"
    assert res.quantity("product_floor_recomputed") == pytest.approx(24.0)
    assert claim_status(res, "product_floor_strict") == "PASS"
    note = res.certificate["provenance"]["construction_note"]
    assert "round product" in note and "not certified" in note


def test_product_attachment_sweeps_radius_when_needed():
    # radius 10 leaves the floor far below 6; halvings must rescue it
    res = attach_product_ingredient(1, 2, factor_radius=10.0)
    assert res.status == "PASS"
    assert res.certificate["parameters"]["rescalings"] > 0
    assert res.certificate["provenance"]["factor_radius_swept"] is True
    chosen = res.quantity("factor_radius")
    assert 2.0 / chosen ** 2 > 6.0


def test_product_attachment_fails_without_sweep_room():
    # the floor clears 6 below radius 0.58: about 100 halvings from 1e30,
    # more than MAX_RESCALINGS allows
    with pytest.raises(FloorCheckFailed):
        attach_product_ingredient(1, 2, factor_radius=1e30)


def test_product_attachment_equal_factors_symmetric():
    res = attach_product_ingredient(2, 2)
    swapped = attach_product_ingredient(2, 2)
    assert res.certificate == swapped.certificate


# ---------------------------------------------------------- sphere chain

def test_sphere_chain_beats_three_sphere_volumes():
    target = 3.0 * unit_sphere_volume(3)
    res = sphere_chain_certificate(target, 3)
    assert res.status == "PASS"
    assert res.quantity("sphere_count") == 8
    assert res.quantity("volume_total") >= target
    assert claim_status(res, "volume_target_met") == "PASS"


def test_sphere_chain_budget_composition():
    res = sphere_chain_certificate(3.0 * unit_sphere_volume(3), 3,
                                   sharpness=100.0)
    m = res.quantity("sphere_count")
    assert res.quantity("floor_composed") == pytest.approx(6.0 - m / 100.0)
    # the chain spends real curvature: global min below the target but
    # above the composed floor
    assert res.quantity("global_min_scalar") < 6.0
    assert claim_status(res, "scalar_floor_composed") == "PASS"


def test_sphere_chain_small_target_uses_two_spheres():
    res = sphere_chain_certificate(0.5 * unit_sphere_volume(3), 3)
    assert res.quantity("sphere_count") == 2
    assert res.status == "PASS"


def test_sphere_chain_additivity_against_closed_forms():
    res = sphere_chain_certificate(1.5 * unit_sphere_volume(3), 3)
    assert res.quantity("volume_accounting_gap") < 1e-7


def test_sphere_chain_rejects_nonpositive_target():
    with pytest.raises(ParameterOutOfRange):
        sphere_chain_certificate(0.0, 3)


def test_sphere_chain_certifies_each_distinct_body_once(monkeypatch):
    # the middle spheres of a chain are one body under many names, so a
    # chain of 20 spheres certifies as many curvature floors as one of 4
    calls = []
    real = assembly.certified_min_scalar

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(assembly, "certified_min_scalar", counted)
    monkeypatch.setattr(pipelines, "certified_min_scalar", counted)
    counts = []
    for volume, spheres in ((30.0, 4), (190.0, 20)):
        calls.clear()
        res = sphere_chain_certificate(volume, 3)
        assert res.quantity("sphere_count") == spheres
        counts.append(len(calls))
    assert counts[0] == counts[1]


# --------------------------------------------------------- volume budget

def unit_half_volume_hemisphere():
    return hemisphere_standin(3, declared_volume=0.5 * unit_sphere_volume(3))


def test_volume_budget_all_links_pass():
    res = verify_volume_budget(unit_half_volume_hemisphere(), 0.05,
                               diameter_target=10.0)
    assert res.status == "PASS"
    for name in ("hypothesis_volume", "link1_reference_vs_removal",
                 "link2_removal_vs_tunnel", "link3_tunnel_vs_total",
                 "link4_additivity", "link5_total_vs_budget",
                 "scalar_floor", "diameter_reached"):
        assert claim_status(res, name) == "PASS", name
    assert res.quantity("achieved_excess_constant") < \
        res.quantity("excess_budget_constant")
    assert res.certificate["provenance"]["ingredient_status"] == \
        "EXTERNAL-TRUSTED"


def test_volume_budget_idealized_volume_leaves_slack_unused():
    res = verify_volume_budget(unit_half_volume_hemisphere(), 0.05)
    # declared volume equals the reference exactly, so the hypothesis
    # claim holds with its whole allowance to spare
    assert res.quantity("hypothesis_gap") == 0.0
    assert res.claim("hypothesis_volume")["margin"] == pytest.approx(
        res.quantity("hypothesis_allowance"))


def test_volume_budget_excess_shrinks_with_dimension_minus_one_power():
    hemi = unit_half_volume_hemisphere()
    excess = []
    for eps in (1e-3, 5e-4):
        res = verify_volume_budget(hemi, eps, diameter_target=40.0)
        assert res.status == "PASS"
        excess.append(res.quantity("volume_total")
                      - res.quantity("vol_reference"))
    exponent = math.log2(excess[0] / excess[1])
    assert 1.7 <= exponent <= 2.3


def test_volume_budget_requires_ingredient():
    with pytest.raises(MissingIngredient):
        verify_volume_budget(None, 0.05)


def test_volume_budget_rejects_weak_floor():
    weak = hemisphere_standin(3)
    weak = type(weak)(name="weak", dim=3, certified_floor=6.0, volume=9.8,
                      trust="external-trusted")
    with pytest.raises(IngredientFloorTooLow):
        verify_volume_budget(weak, 0.05)


def test_volume_budget_rejects_oversized_scale():
    with pytest.raises(ParameterOutOfRange):
        verify_volume_budget(unit_half_volume_hemisphere(), 0.2)
    with pytest.raises(ParameterOutOfRange):
        verify_volume_budget(unit_half_volume_hemisphere(), 0.05,
                             ball_radius=0.05)


# ----------------------------------------------------- tunnel and surgery

def test_tunnel_certificate_claims():
    res = tunnel_certificate(3, 6.0, 0.1, 2.0, 100.0)
    assert res.status == "PASS"
    assert res.quantity("global_min_scalar") > 6.0 - 0.01
    assert res.quantity("diameter_lower") > 2.0
    assert res.quantity("achieved_volume_constant") > 0.0


def test_surgery_certificate_bands():
    res = surgery_certificate(1, 3, 0.05)
    assert res.status == "PASS"
    ref = res.quantity("volume_reference")
    assert (1 - 0.05) * ref <= res.quantity("volume_total") <= (1 + 0.05) * ref
    assert res.quantity("global_min_scalar") > \
        res.quantity("ambient_curvature") - 0.05


def spline_jets(piece, end):
    """A piece's jets at one of its ends, evaluated from its profile's
    splines in the piece's direction instead of read from stored jets."""
    profile_end = end if not piece.reversed else (
        "start" if end == "end" else "end")
    s = piece.profile.grid[0 if profile_end == "start" else -1]
    sign = -1.0 if piece.reversed else 1.0
    return tuple((float(spline(s)), sign * float(spline(s, 1)),
                  float(spline(s, 2)))
                 for spline, _, _ in piece.profile.warp_splines)


# ROADMAP item 1, defect 2: interfaces_glued compares the stored seam
# jets, which close every seam exactly (max_interface_gap reads 0.0),
# while the splines the curvature is sampled from miss each other there:
# the v' gap is 0.84 in the sharp tunnel and 1.3e-7 in the surgery.
# Closing the seams makes these pass, and strict then fails them until
# the marker is removed.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="seams glue stored jets, not the splines")
@pytest.mark.parametrize("build", [
    pytest.param(lambda: tunnel_certificate(3, sharpness=1e6), id="tunnel"),
    pytest.param(lambda: surgery_certificate(1, 3, 0.05), id="surgery")])
def test_seams_close_on_the_pieces_own_splines(build):
    [chain] = build().assemblies.values()
    gap = max(_jet_gap(spline_jets(left, "end"), spline_jets(right, "start"))
              for left, right in zip(chain.pieces[:-1], chain.pieces[1:]))
    assert gap <= DEFAULT_INTERFACE_TOL



LENGTH_ENTRY_POINTS = {
    "tunnel_certificate": lambda x: tunnel_certificate(3, length=x),
    "build_tunnel_between": lambda x: build_tunnel_between(
        round_sphere(3, 1.0), round_sphere(3, 0.5), 0.1, 0.1, 5.9, length=x),
    "attach_hemisphere": lambda x: attach_hemisphere(
        round_sphere_ingredient(3, 0.5), diameter_target=x),
    "verify_volume_budget": lambda x: verify_volume_budget(
        hemisphere_standin(3), 0.05, diameter_target=x),
}


@pytest.mark.parametrize("bad", [-1.0, math.nan], ids=["negative", "nan"])
@pytest.mark.parametrize("build", LENGTH_ENTRY_POINTS.values(),
                         ids=LENGTH_ENTRY_POINTS.keys())
def test_bad_length_is_refused_before_any_curve_is_designed(build, bad,
                                                            monkeypatch):
    def no_design(params):
        raise AssertionError("a curve was designed for a bad length")

    monkeypatch.setattr(assembly, "design_bending_curve", no_design)
    with pytest.raises(ParameterOutOfRange):
        build(bad)


WRONG_DIMENSION_HEMISPHERE = {
    "attach_hemisphere": lambda hemi: attach_hemisphere(
        round_sphere_ingredient(3, 0.5), hemisphere=hemi),
    "sphere_chain_certificate": lambda hemi: sphere_chain_certificate(
        unit_sphere_volume(3), 3, hemisphere=hemi),
    "verify_volume_budget": lambda hemi: verify_volume_budget(
        hemi, 0.05, dim=3),
}


@pytest.mark.parametrize("build", WRONG_DIMENSION_HEMISPHERE.values(),
                         ids=WRONG_DIMENSION_HEMISPHERE)
def test_wrong_dimension_hemisphere_is_refused_before_any_curve_is_designed(
        build, monkeypatch):
    def no_design(params):
        raise AssertionError("a curve was designed for a mismatched hemisphere")

    monkeypatch.setattr(assembly, "design_bending_curve", no_design)
    with pytest.raises(ParameterOutOfRange):
        build(hemisphere_standin(4))


@pytest.mark.parametrize("dims", [(1, 1), (0, 3)])
def test_product_attachment_refuses_bad_factor_dimensions(dims):
    with pytest.raises(ParameterOutOfRange):
        attach_product_ingredient(*dims)

# ------------------------------------------------------- files and bytes

def test_pipeline_certificates_recheck_from_disk(tmp_path):
    res = attach_hemisphere(round_sphere_ingredient(3, 0.5),
                            diameter_target=2.0,
                            certificate_path=tmp_path / "cert.json",
                            profiles_dir=tmp_path / "files")
    report = recheck_certificate(tmp_path / "cert.json")
    assert report["status"] == "PASS"
    assert report["artifacts_verified"] == ["chain_manifest"]
    assert res.certificate_path == tmp_path / "cert.json"


def test_pipeline_artifact_tamper_detected(tmp_path):
    attach_hemisphere(round_sphere_ingredient(3, 0.5),
                      certificate_path=tmp_path / "cert.json",
                      profiles_dir=tmp_path / "files")
    manifest = tmp_path / "files" / "assembly.json"
    original = manifest.read_bytes()
    manifest.write_bytes(original.replace(b"pieces", b"Pieces", 1))
    with pytest.raises(SchemaViolation):
        recheck_certificate(tmp_path / "cert.json")
    # the manifest intact, one value cell of a piece file it lists edited
    manifest.write_bytes(original)
    assert recheck_certificate(tmp_path / "cert.json")["status"] == "PASS"
    piece = sorted((tmp_path / "files" / "pieces").glob("*.csv"))[1]
    lines = piece.read_text().splitlines()
    row = [i for i, ln in enumerate(lines) if not ln.startswith("#")][100]
    cells = lines[row].split(",")
    cells[1] = "%.17g" % (1.5 * float(cells[1]))
    lines[row] = ",".join(cells)
    piece.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaViolation):
        recheck_certificate(tmp_path / "cert.json")
    # an absent piece file is reported, as an absent manifest is
    piece.unlink()
    report = recheck_certificate(tmp_path / "cert.json")
    assert report["artifacts_missing"] == [
        f"chain_manifest/pieces/{piece.name}"]


def test_piece_store_is_flat_in_chain_length(tmp_path):
    # cor-v chains of 4 and 20 spheres store the same 72 piece files
    stores = []
    for volume in (30.0, 190.0):
        d = tmp_path / str(volume)
        res = sphere_chain_certificate(volume, 3, certificate_path=d / "c.json",
                                       profiles_dir=d / "files")
        assert res.status == "PASS"
        store = d / "files" / "pieces"
        stores.append(sorted(f.name for f in store.iterdir()))
    assert stores[0] == stores[1]
    assert len(stores[0]) == 72


def test_rebuild_overwrites_a_stale_store_file(tmp_path):
    build = lambda: tunnel_certificate(3, sharpness=100.0,
                                       certificate_path=tmp_path / "cert.json",
                                       profiles_dir=tmp_path / "files")
    build()
    stored = sorted((tmp_path / "files" / "pieces").glob("*.csv"))[0]
    good = stored.read_bytes()
    stored.write_bytes(good.replace(b"e-", b"e+", 1))
    with pytest.raises(SchemaViolation):
        recheck_certificate(tmp_path / "cert.json")
    build()
    assert stored.read_bytes() == good
    assert recheck_certificate(tmp_path / "cert.json")["status"] == "PASS"
    # the store holds nothing but files named by their own sha256
    for f in (tmp_path / "files" / "pieces").iterdir():
        assert f.name == hashlib.sha256(f.read_bytes()).hexdigest() + ".csv"


def test_format_version_1_manifest_still_rechecks(tmp_path):
    # the layout before the piece store: one file per manifest entry
    res = tunnel_certificate(3, sharpness=100.0, profiles_dir=tmp_path)
    [assembly] = res.assemblies.values()
    manifest = json.loads((tmp_path / "assembly.json").read_text())
    manifest["format_version"] = 1
    for i, (entry, piece) in enumerate(zip(manifest["pieces"],
                                           assembly.pieces)):
        del entry["reversed"]
        entry["file"] = f"piece_{i:02d}_{piece.name}.csv"
        entry["fingerprint"] = save_profile_csv(piece.profile,
                                                tmp_path / entry["file"])
    shutil.rmtree(tmp_path / "pieces")

    def certificate_listing(manifest):
        data = (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode()
        (tmp_path / "assembly.json").write_bytes(data)
        digest = hashlib.sha256(data).hexdigest()
        return dict(res.certificate, artifacts={"tunnel_manifest": {
            "file": "assembly.json", "sha256": digest}})

    doc = certificate_listing(manifest)
    report = recheck_certificate(doc, files_dir=tmp_path)
    assert report["artifacts_verified"] == ["tunnel_manifest"]
    assert report["artifacts_missing"] == []
    piece = tmp_path / manifest["pieces"][-1]["file"]
    piece.write_bytes(piece.read_bytes()[:-3] + b"9\n")
    with pytest.raises(SchemaViolation, match="does not match"):
        recheck_certificate(doc, files_dir=tmp_path)
    # a manifest version this library never wrote is refused
    manifest["format_version"] = 3
    with pytest.raises(SchemaViolation, match="manifest format_version"):
        recheck_certificate(certificate_listing(manifest), files_dir=tmp_path)


# sha256 of certificate_bytes for fixed builds: a speedup must leave every
# certificate byte in place. Recorded with numpy 2.4.6 and scipy 1.17.1 on
# Python 3.11; other versions may move the last bits of the quadratures.
GOLDEN_CERTIFICATE_DIGESTS = [
    (lambda: tunnel_certificate(3, sharpness=100.0, grid_density=1.0),
     "03546acaa0a3edfbd18a6559733b4a5a3cb1cd2746e9d56dfe8c239a9f2eb082"),
    (lambda: tunnel_certificate(4, sharpness=1e4, grid_density=2.0,
                                length=0.0),
     "aed8aabcb38ea5830b0c4f8052bc0d417097eb48bc73d78cc888da7f6e00ac3b"),
    (lambda: surgery_certificate(1, 3, 0.05),
     "4e3975f1b7a2252fb564df1eb36b854503dcfa570d3ea1f750e1de29e590aff3"),
    (lambda: surgery_certificate(2, 4, 0.05),
     "0e821d3d72e74d836b5e2188c2c608d4c1864ba8b8269dc929a00910efdd44ab"),
]


def test_pipeline_reruns_are_byte_identical(tmp_path):
    blobs = []
    for run in ("one", "two"):
        d = tmp_path / run
        attach_hemisphere(round_sphere_ingredient(3, 0.5),
                          diameter_target=10.0,
                          certificate_path=d / "cert.json",
                          profiles_dir=d / "files")
        blobs.append((d / "cert.json").read_bytes())
        blobs.append((d / "files" / "assembly.json").read_bytes())
    assert blobs[0] == blobs[2]
    assert blobs[1] == blobs[3]
    for build, digest in GOLDEN_CERTIFICATE_DIGESTS:
        got = hashlib.sha256(certificate_bytes(build().certificate)).hexdigest()
        assert got == digest


# sha256 over the sorted (relative path, file sha256) pairs of every file a
# build writes: certificate, manifest and each piece CSV of the store. The
# certificate digests above see no artifact bytes, because in-memory
# certificates list no artifacts. Same versions as above.
GOLDEN_ARTIFACT_DIGESTS = [
    pytest.param(
        lambda **files: tunnel_certificate(3, sharpness=100.0, **files),
        "176b223ed5653c65d0b2618aaac9313e81e15e1ea5768e4b40857d8446875c14",
        id="tunnel"),
    pytest.param(
        lambda **files: surgery_certificate(1, 3, 0.05, **files),
        "2448ca10f93c7f60b3c7fd962a837ff07dc89534de6899373965e4d90c2e7b12",
        id="surgery"),
    # four spheres: three links written from one repeated profile chain
    pytest.param(
        lambda **files: sphere_chain_certificate(
            1.5 * unit_sphere_volume(3), 3, **files),
        "bb33bea32a56de1f93555e56c4821215580fd7c725773d0ee2af479dea642927",
        id="chain"),
    # round ingredient remnant from its far pole, hemisphere up to its
    # boundary, with a waist cylinder
    pytest.param(
        lambda **files: attach_hemisphere(round_sphere_ingredient(3, 0.5),
                                          diameter_target=10.0, **files),
        "6c4f6f41d54cc5d08fdcd55db3321b0990017f0c4ce5f13c7f5253d431882d75",
        id="hemisphere"),
    # stand-in attachment: no ingredient remnant, product entries added
    pytest.param(
        lambda **files: attach_product_ingredient(1, 2, factor_radius=10.0,
                                                  **files),
        "f7086a35c977237b3d5fb89eb012a5baea6b6acac5a2b81153d2000490d438c2",
        id="product"),
    # hemisphere from its boundary down to the tunnel, small sphere out
    # to its far pole
    pytest.param(
        lambda **files: verify_volume_budget(
            hemisphere_standin(3, declared_volume=0.5 * unit_sphere_volume(3)),
            0.05, **files),
        "93f9bcc59bb2747307befb1b02f4303b77fc823c65b67413d9da7ea06c795364",
        id="budget"),
]


def tree_digest(root: Path) -> str:
    pairs = sorted((path.relative_to(root).as_posix(),
                    hashlib.sha256(path.read_bytes()).hexdigest())
                   for path in root.rglob("*") if path.is_file())
    return hashlib.sha256(
        "".join(f"{rel}\t{digest}\n" for rel, digest in pairs).encode()
    ).hexdigest()


@pytest.mark.parametrize("build, digest", GOLDEN_ARTIFACT_DIGESTS)
def test_written_artifacts_are_byte_identical(tmp_path, build, digest):
    res = build(certificate_path=tmp_path / "cert.json",
                profiles_dir=tmp_path / "files")
    assert res.status == "PASS"
    assert len(list((tmp_path / "files").rglob("*.csv"))) > 1
    assert tree_digest(tmp_path) == digest


# every entry, mirrors included, of the golden artifact builds and of a
# tunnel with 22 mirrors
@pytest.mark.parametrize("build", [
    *(pytest.param(param.values[0], id=param.id)
      for param in GOLDEN_ARTIFACT_DIGESTS),
    pytest.param(lambda **files: tunnel_certificate(3, sharpness=1e4,
                                                    **files),
                 id="tunnel-1e4")])
def test_reversed_entries_rebuild_their_pieces_exactly(tmp_path, build):
    res = build(profiles_dir=tmp_path)
    [assembly] = res.assemblies.values()
    manifest = json.loads((tmp_path / "assembly.json").read_text())
    entries = manifest["pieces"]
    assert [e["name"] for e in entries] == [p.name for p in assembly.pieces]
    for entry, piece in zip(entries, assembly.pieces):
        stored = load_profile_csv(tmp_path / entry["file"])
        assert stored.canonical_bytes() == piece.profile.canonical_bytes()
        assert entry["reversed"] == piece.reversed
        # the reader step gives the piece's jets in the piece's direction
        rebuilt = stored.reverse() if entry["reversed"] else stored
        for end in ("start", "end"):
            assert rebuilt.boundary_jets(end) == piece.boundary_jets(end)
        assert rebuilt.length == piece.length
    files = len(list((tmp_path / "pieces").iterdir()))
    assert files == len({e["fingerprint"] for e in entries})
    if res.certificate["kind"] == "tunnel":
        # one profile object per stored file
        assert files == len({id(p.profile) for p in assembly.pieces})
