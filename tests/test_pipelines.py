"""End-to-end checks for the gluing pipelines and their certificates."""

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from neckforge import assembly
from neckforge.assembly import (DEFAULT_INTERFACE_TOL, _jet_gap,
                                build_tunnel_between)
from neckforge.bending import START_RADIUS_FACTOR
from neckforge.certificate import (certificate_bytes, recheck_certificate,
                                   write_certificate)
from neckforge.errors import (FloorCheckFailed, IngredientFloorTooLow,
                              MissingIngredient, ParameterOutOfRange,
                              SchemaViolation)
from neckforge.measure import profile_volume
from neckforge.models import round_sphere, unit_sphere_volume
from neckforge.pipelines import (IngredientMetric, attach_hemisphere,
                                 attach_product_ingredient, hemisphere_standin,
                                 product_ingredient, round_ball_volume,
                                 round_sphere_ingredient,
                                 sphere_chain_certificate, surgery_certificate,
                                 tunnel_certificate, verify_volume_budget)
from neckforge.profiles import (DATA_LINE, WarpProfile, load_profile_csv,
                                save_profile_csv)


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


def test_hemisphere_standin_clears_target_and_flags_boundary():
    hemi = hemisphere_standin(3)
    assert hemi.certified_floor > 6.0
    assert hemi.boundary_totally_geodesic
    assert hemi.detail == {"kind": "round", "half": True}
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
    names = [p.name for p in chain.placements]
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


# ------------------------------------------------- standard quantities

def loose_hemisphere(n=3):
    """A hemisphere that declares a floor below its model's curvature, so
    that its floor, not any record, is the construction's minimum."""
    return IngredientMetric(
        name="loose_hemisphere", dim=n, certified_floor=1.0002 * n * (n - 1),
        volume=0.5 * unit_sphere_volume(n), trust="external-trusted",
        model=hemisphere_standin(n, headroom=0.1).model,
        boundary_totally_geodesic=True, detail={"kind": "round", "half": True})


def hemisphere_body(hemisphere):
    # (radius, closed-form volume of the whole model piece, mouths)
    rho = hemisphere.model.slice_curv ** -0.5
    return {"hemisphere_remnant": (rho, 0.5 * unit_sphere_volume(3) * rho ** 3,
                                   1)}


def attachment_case():
    ingredient, hemisphere = round_sphere_ingredient(3, 0.5), loose_hemisphere()
    res = attach_hemisphere(ingredient, hemisphere, diameter_target=2.0)
    bodies = {"ingredient_remnant": (0.5, unit_sphere_volume(3) * 0.125, 1),
              **hemisphere_body(hemisphere)}
    return res, [ingredient, hemisphere], bodies, 0.1


def chain_case():
    hemisphere = loose_hemisphere()
    res = sphere_chain_certificate(30.0, 3, hemisphere=hemisphere)
    bodies = {f"sphere_{i:02d}": (1.0, unit_sphere_volume(3), 1 if i == 1 else 2)
              for i in range(1, 5)}
    return res, [hemisphere], {**bodies, **hemisphere_body(hemisphere)}, 0.1


STANDARD_CASES = {
    "attachment": attachment_case,
    "product": lambda: (
        attach_product_ingredient(1, 2, hemisphere=loose_hemisphere()),
        [product_ingredient(1, 2), loose_hemisphere()], {}, None),
    "chain": chain_case,
    "budget": lambda: (verify_volume_budget(loose_hemisphere(), 0.05),
                       [loose_hemisphere()], {}, None),
    "tunnel": lambda: (tunnel_certificate(3), [], {}, None),
    "surgery": lambda: (surgery_certificate(1, 3, 0.05), [], {}, None),
}


@pytest.mark.parametrize("case", STANDARD_CASES.values(),
                         ids=STANDARD_CASES.keys())
def test_standard_quantities_follow_from_the_assembly_and_its_ingredients(
        case):
    # recomputed from the records, the placements and the inputs: a build
    # that drops an ingredient floor or a body from its totals fails here
    res, ingredients, bodies, tube_radius = case()
    [chain] = res.assemblies.values()

    def rounded(x):
        return float(format(x, ".12e"))

    floors = [r.min_scalar for r in chain.pieces]
    floors += [i.certified_floor for i in ingredients]
    assert res.quantity("global_min_scalar") == rounded(min(floors))
    assert res.quantity("max_interface_gap") == rounded(
        max(i.mismatch for i in chain.interfaces))
    if "diameter_lower" in res.certificate["quantities"]:  # not a surgery's
        assert res.quantity("diameter_lower") == rounded(
            sum(p.profile.length for p in chain.placed))
    if not bodies:
        return
    # quadrature against each body's sphere volume less its mouth balls
    mouth = START_RADIUS_FACTOR * tube_radius
    route = sum(chain.piece(name).volume
                - (whole - mouths * round_ball_volume(3, rho, mouth))
                for name, (rho, whole, mouths) in bodies.items())
    assert abs(res.quantity("volume_accounting_gap") - abs(route)) <= \
        1e-12 * res.quantity("volume_total")


def spline_jets(chain, position, end):
    """The jets at one end of the piece at a chain position, evaluated
    from its profile's splines in the placement's direction instead of
    read from stored jets."""
    placement = chain.placements[position]
    profile = chain.pieces[placement.piece].profile
    profile_end = end if not placement.reversed else (
        "start" if end == "end" else "end")
    s = profile.grid[0 if profile_end == "start" else -1]
    sign = -1.0 if placement.reversed else 1.0
    return tuple((float(spline(s)), sign * float(spline(s, 1)),
                  float(spline(s, 2)))
                 for spline, _, _ in profile.warp_splines)


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
    gap = max(_jet_gap(spline_jets(chain, i, "end"),
                       spline_jets(chain, i + 1, "start"))
              for i in range(len(chain.placements) - 1))
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
    # the manifest intact, one warp value of a piece file it lists edited
    manifest.write_bytes(original)
    assert recheck_certificate(tmp_path / "cert.json")["status"] == "PASS"
    piece = sorted((tmp_path / "files" / "pieces").glob("*.piece"))[1]
    rows = load_profile_csv(piece).grid.size
    head, data_line, payload = piece.read_bytes().partition(DATA_LINE)
    table = np.frombuffer(payload, "<f8").copy()
    table[rows + 100] *= 1.5
    piece.write_bytes(head + data_line + table.astype("<f8").tobytes())
    with pytest.raises(SchemaViolation):
        recheck_certificate(tmp_path / "cert.json")
    # an absent piece file is reported, as an absent manifest is
    piece.unlink()
    report = recheck_certificate(tmp_path / "cert.json")
    assert report["artifacts_missing"] == [
        f"chain_manifest/pieces/{piece.name}"]


def test_piece_store_is_flat_in_chain_length(tmp_path):
    # cor-v chains of 4 and 20 spheres store the same 52 piece files
    stores = []
    for volume in (30.0, 190.0):
        d = tmp_path / str(volume)
        res = sphere_chain_certificate(volume, 3, certificate_path=d / "c.json",
                                       profiles_dir=d / "files")
        assert res.status == "PASS"
        store = d / "files" / "pieces"
        stores.append(sorted(f.name for f in store.iterdir()))
    assert stores[0] == stores[1]
    assert len(stores[0]) == 52


def test_rebuild_overwrites_a_stale_store_file(tmp_path):
    build = lambda: tunnel_certificate(3, sharpness=100.0,
                                       certificate_path=tmp_path / "cert.json",
                                       profiles_dir=tmp_path / "files")
    build()
    stored = sorted((tmp_path / "files" / "pieces").glob("*.piece"))[0]
    good = stored.read_bytes()
    stored.write_bytes(good[:-1] + bytes([good[-1] ^ 1]))
    with pytest.raises(SchemaViolation):
        recheck_certificate(tmp_path / "cert.json")
    build()
    assert stored.read_bytes() == good
    assert recheck_certificate(tmp_path / "cert.json")["status"] == "PASS"
    # the store holds nothing but files named by their own sha256
    for f in (tmp_path / "files" / "pieces").iterdir():
        assert f.name == hashlib.sha256(f.read_bytes()).hexdigest() + ".piece"


def _older_manifest(root):
    """A format 3 tunnel build under root, and its manifest rebuilt in the
    shape formats 1 and 2 share: one pieces entry per position, under the
    placement's name and role, and a seam per adjacent pair, by name."""
    res = tunnel_certificate(3, sharpness=100.0, profiles_dir=root)
    manifest = json.loads((root / "assembly.json").read_text())
    assert manifest["format_version"] == 3
    placements = manifest.pop("placements")
    seams = {(i["left"], i["left_reversed"], i["right"], i["right_reversed"]):
             i["mismatch"] for i in manifest["interfaces"]}
    manifest["interfaces"] = [
        {"left": a["name"], "right": b["name"], "mismatch": seams[
            (a["piece"], a["reversed"], b["piece"], b["reversed"])]}
        for a, b in zip(placements, placements[1:])]
    manifest["pieces"] = [dict(manifest["pieces"][p["piece"]], name=p["name"],
                               role=p["role"], reversed=p["reversed"])
                          for p in placements]
    return res, manifest


def _relisted(res, root, manifest):
    """manifest written as root/assembly.json, and the path of a copy of
    the build's certificate that lists it by its sha256."""
    data = (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode()
    (root / "assembly.json").write_bytes(data)
    write_certificate(dict(res.certificate, artifacts={"tunnel_manifest": {
        "file": "assembly.json", "sha256": hashlib.sha256(data).hexdigest()}}),
        root / "cert.json")
    return root / "cert.json"


def test_format_version_1_manifest_still_rechecks(tmp_path):
    # the layout before the piece store: one file per manifest entry
    res, manifest = _older_manifest(tmp_path)
    [assembly] = res.assemblies.values()
    manifest["format_version"] = 1
    for i, (entry, placement) in enumerate(zip(manifest["pieces"],
                                               assembly.placements)):
        del entry["reversed"]
        entry["file"] = f"piece_{i:02d}_{placement.name}.csv"
        entry["fingerprint"] = save_profile_csv(
            assembly.pieces[placement.piece].profile, tmp_path / entry["file"])
    shutil.rmtree(tmp_path / "pieces")
    cert = _relisted(res, tmp_path, manifest)
    report = recheck_certificate(cert)
    assert report["artifacts_verified"] == ["tunnel_manifest"]
    assert report["artifacts_missing"] == []
    piece = tmp_path / manifest["pieces"][-1]["file"]
    piece.write_bytes(piece.read_bytes()[:-3] + b"9\n")
    with pytest.raises(SchemaViolation, match="does not match"):
        recheck_certificate(cert)
    # a manifest version this library never wrote is refused
    manifest["format_version"] = 4
    with pytest.raises(SchemaViolation, match="manifest format_version"):
        recheck_certificate(_relisted(res, tmp_path, manifest))


def test_format_version_2_manifest_still_rechecks(tmp_path):
    # the piece store listed per position, mirrors marked "reversed"
    res, manifest = _older_manifest(tmp_path)
    manifest["format_version"] = 2
    cert = _relisted(res, tmp_path, manifest)
    entries = manifest["pieces"]
    assert len(entries) > len({e["file"] for e in entries})
    assert any(e["reversed"] for e in entries)
    report = recheck_certificate(cert)
    assert report["artifacts_verified"] == ["tunnel_manifest"]
    assert report["artifacts_missing"] == []
    piece = tmp_path / entries[-1]["file"]
    piece.write_bytes(piece.read_bytes()[:-3] + b"9\n")
    with pytest.raises(SchemaViolation, match="does not match"):
        recheck_certificate(cert)


@pytest.mark.parametrize("edit", [
    lambda doc: doc["placements"][0].update(piece=len(doc["pieces"])),
    lambda doc: doc["placements"][0].update(piece=-1),
    lambda doc: doc["placements"][0].update(piece=True),
    lambda doc: doc["placements"][0].update(piece="0"),
    lambda doc: doc["placements"][0].pop("piece"),
    lambda doc: doc.pop("placements"),
], ids=["past the end", "negative", "bool", "string", "absent", "no list"])
def test_placement_naming_no_pieces_entry_is_refused(tmp_path, edit):
    res = tunnel_certificate(3, sharpness=100.0, profiles_dir=tmp_path)
    manifest = json.loads((tmp_path / "assembly.json").read_text())
    assert recheck_certificate(_relisted(res, tmp_path, manifest))[
        "artifacts_verified"] == ["tunnel_manifest"]
    edit(manifest)
    with pytest.raises(SchemaViolation, match="placements"):
        recheck_certificate(_relisted(res, tmp_path, manifest))


# sha256 of certificate_bytes for fixed builds: a speedup must leave every
# certificate byte in place. Recorded with numpy 2.4.6 and scipy 1.17.1 on
# Python 3.11; other versions may move the last bits of the quadratures.
GOLDEN_CERTIFICATE_DIGESTS = [
    (lambda: tunnel_certificate(3, sharpness=100.0, grid_density=1.0),
     "42f733a05d8c3d9c45cb07d95f2987851e77256a0ba9541465c26064c820436c"),
    (lambda: tunnel_certificate(4, sharpness=1e4, grid_density=2.0,
                                length=0.0),
     "cb086f14a183bd877707dc656eb086162e59f06a8469f887ba83e4e0613d59af"),
    (lambda: surgery_certificate(1, 3, 0.05),
     "aeead5bac687afff32f054b338de6db7f989b42dcb553449e6083adb3f9091d2"),
    (lambda: surgery_certificate(2, 4, 0.05),
     "fedc0e33460fe6269f6bbe216248a7d8d4b87e282236304865b8ab8b0a5d1a4f"),
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
# build writes: certificate, manifest and each piece file of the store. The
# certificate digests above see no artifact bytes, because in-memory
# certificates list no artifacts. Same versions as above.
GOLDEN_ARTIFACT_DIGESTS = [
    pytest.param(
        lambda **files: tunnel_certificate(3, sharpness=100.0, **files),
        "72f566f00438b0672f2046ca1ac4d28c5a0e4981fc2a8f666a2253396b34dd32",
        id="tunnel"),
    pytest.param(
        lambda **files: surgery_certificate(1, 3, 0.05, **files),
        "ddbc853a6476778d71313bd073060c60e44ab87ae424abd0330f613b17cea234",
        id="surgery"),
    # warps of sphere dimension 2 and 3: the piece volumes raise a warp to
    # the power 3, which must not depend on numpy's SIMD dispatch
    pytest.param(
        lambda **files: surgery_certificate(2, 4, 0.05, **files),
        "4ef4d127bfe59a3fb0b4936cdff2e842c9d0fd508855e684dceae5d0b8473d46",
        id="surgery-2-4"),
    # four spheres: three links written from one repeated profile chain
    pytest.param(
        lambda **files: sphere_chain_certificate(
            1.5 * unit_sphere_volume(3), 3, **files),
        "6eec6f70ae15e2d79923c946c84cdbb16dd3c8294b4b9efc26de0637e3522979",
        id="chain"),
    # round ingredient remnant from its far pole, hemisphere up to its
    # boundary, with a waist cylinder
    pytest.param(
        lambda **files: attach_hemisphere(round_sphere_ingredient(3, 0.5),
                                          diameter_target=10.0, **files),
        "cc70bd75409cc808aa4302f7cc7330d3802b329228ac4cf5ddca17101372e0fa",
        id="hemisphere"),
    # stand-in attachment: no ingredient remnant, product entries added
    pytest.param(
        lambda **files: attach_product_ingredient(1, 2, factor_radius=10.0,
                                                  **files),
        "f3c92690e1243411ef1cc4e50b487018db62afd66dcbbfd6b2076e8f7d9a53fb",
        id="product"),
    # hemisphere from its boundary down to the tunnel, small sphere out
    # to its far pole
    pytest.param(
        lambda **files: verify_volume_budget(
            hemisphere_standin(3, declared_volume=0.5 * unit_sphere_volume(3)),
            0.05, **files),
        "3c8e6fc276a80d49ee346a291a17ab229f7f3e45fd00d86979309dccf6e46d58",
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
    assert len(list((tmp_path / "files").rglob("*.piece"))) > 1
    assert tree_digest(tmp_path) == digest


# every placement, mirrors included, of the golden artifact builds and of
# a tunnel with 22 mirrors
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
    assert manifest["placements"] == [p._asdict()
                                      for p in assembly.placements]
    stored = [load_profile_csv(tmp_path / e["file"])
              for e in manifest["pieces"]]
    assert len(stored) == len(assembly.pieces)
    expected = {}  # (piece, reversed) -> canonical bytes in that direction
    for i, entry in enumerate(manifest["placements"]):
        # the reader step: the listed file, reversed when flagged
        key = (entry["piece"], entry["reversed"])
        rebuilt = stored[key[0]].reverse() if key[1] else stored[key[0]]
        if key not in expected:
            record = assembly.pieces[key[0]].profile
            expected[key] = (record.reverse() if key[1]
                             else record).canonical_bytes()
            assert rebuilt.canonical_bytes() == expected[key]
        for end in ("start", "end"):
            assert rebuilt.boundary_jets(end) == assembly.boundary_jets(i, end)
        assert rebuilt.length == assembly.pieces[key[0]].profile.length
    # one file per distinct content, one entry per record: records of
    # equal bytes share the file and keep their own certification
    files = len(list((tmp_path / "pieces").iterdir()))
    assert files == len({e["fingerprint"] for e in manifest["pieces"]})
    assert [(e["min_scalar"], e["scalar_method"], e["volume"])
            for e in manifest["pieces"]] == [
        (r.min_scalar, r.scalar_method, r.volume) for r in assembly.pieces]


def test_a_chain_places_the_records_its_tunnels_certified(monkeypatch):
    # the attach tunnel's side a is the links' unit side: each attach_a...
    # placement names the record of the link01_a... one of its suffix,
    # and only its hemisphere side b adds records of its own
    tunnels = []

    def recorded(*args, real=assembly._chain):
        tunnels.append(real(*args))
        return tunnels[-1]

    monkeypatch.setattr(assembly, "_chain", recorded)
    [chain] = sphere_chain_certificate(30.0, 3).assemblies.values()
    link, attach = tunnels
    assert (link.name, attach.name) == ("tunnel", "tunnel_between")
    placed = {id(r) for r in chain.pieces}
    assert all(id(r) in placed for r in link.pieces + attach.pieces)
    sides = {prefix: {p.name[len(prefix):]: p.piece for p in chain.placements
                      if p.name.startswith(prefix + "a")}
             for prefix in ("link01_", "attach_")}
    assert sides["attach_"] == sides["link01_"] and sides["link01_"]
    assert attach.provenance["side_a"] is link.provenance["side"]
    own = [r for r in attach.pieces if r not in link.pieces]
    assert len(own) == len(attach.pieces) - len(sides["attach_"])
    assert len(chain.pieces) == len(link.pieces) + len(own) + 3


@pytest.mark.parametrize("build, designs", [
    (lambda: assembly.build_tunnel(round_sphere(3, 1.0), 0.1), 1),
    (lambda: assembly.build_tunnel_between(
        round_sphere(3, 1.0), hemisphere_standin(3).model, 0.1, 0.1, 5.99),
     2),
    (lambda: sphere_chain_certificate(30.0, 3), 2),
    (lambda: sphere_chain_certificate(190.0, 3), 2),
], ids=["tunnel", "tunnel-between", "chain-4", "chain-20"])
def test_each_distinct_tunnel_side_is_designed_once(build, designs,
                                                     monkeypatch):
    # a mirror joins its one side to itself, and a chain of any length
    # designs the unit sphere's side once and the hemisphere's once
    calls = []

    def counted(params, real=assembly.design_bending_curve):
        calls.append(params)
        return real(params)

    monkeypatch.setattr(assembly, "design_bending_curve", counted)
    build()
    assert len(calls) == designs


def test_records_seams_and_manifest_are_flat_in_chain_length(tmp_path,
                                                             monkeypatch):
    # cor-v chains of 4, 20 and 100 spheres: the same pieces certified,
    # seams checked, records, and manifest pieces and interfaces
    calls = {"certified_min_scalar": 0, "_jet_gap": 0}
    for name in calls:
        def counted(*args, real=getattr(assembly, name), name=name, **kw):
            calls[name] += 1
            return real(*args, **kw)

        monkeypatch.setattr(assembly, name, counted)
    rows = []
    for m, volume in ((4, 30.0), (20, 190.0), (100, 980.0)):
        calls.update(dict.fromkeys(calls, 0))
        d = tmp_path / str(m)
        res = sphere_chain_certificate(volume, 3, certificate_path=d / "c.json",
                                       profiles_dir=d / "files")
        assert res.status == "PASS" and res.quantity("sphere_count") == m
        [chain] = res.assemblies.values()
        manifest = d / "files" / "assembly.json"
        doc = json.loads(manifest.read_text())
        assert len(doc["placements"]) == len(chain.placements) > 49 * m
        rows.append((*calls.values(), len(chain.pieces), len(doc["pieces"]),
                     len(doc["interfaces"])))
    assert rows[0] == rows[1] == rows[2]
    # records, manifest pieces and distinct seams
    assert rows[0][2:] == (52, 52, 76)
    # a quarter of the 3,109,657 B that format 2 wrote at m = 100
    assert manifest.stat().st_size <= 3_109_657 / 4


PUBLIC_PIPELINES = {
    "tunnel_certificate": lambda **files: tunnel_certificate(3, **files),
    "surgery_certificate": lambda **files: surgery_certificate(
        1, 3, 0.05, **files),
    "attach_hemisphere": lambda **files: attach_hemisphere(
        round_sphere_ingredient(3, 0.5), **files),
    "attach_product_ingredient": lambda **files: attach_product_ingredient(
        1, 2, **files),
    "sphere_chain_certificate": lambda **files: sphere_chain_certificate(
        30.0, 3, **files),
    "verify_volume_budget": lambda **files: verify_volume_budget(
        hemisphere_standin(3), 0.05, **files),
}


@pytest.mark.parametrize("build", PUBLIC_PIPELINES.values(),
                         ids=PUBLIC_PIPELINES.keys())
def test_profiles_outside_the_root_are_refused_before_any_curve_is_designed(
        build, tmp_path, monkeypatch):
    def no_design(params):
        raise AssertionError("a curve was designed for a refused build")

    monkeypatch.setattr(assembly, "design_bending_curve", no_design)
    with pytest.raises(ParameterOutOfRange, match="profiles directory"):
        build(certificate_path=tmp_path / "sub" / "c.json",
              profiles_dir=tmp_path / "elsewhere")
    assert list(tmp_path.iterdir()) == []
