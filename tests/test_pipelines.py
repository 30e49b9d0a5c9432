"""End-to-end checks for the gluing pipelines and their certificates."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from neckforge import assembly
from neckforge.assembly import build_tunnel_between
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
from neckforge.profiles import WarpProfile


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
    piece = sorted((tmp_path / "files").glob("piece_*.csv"))[1]
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
    assert report["artifacts_missing"] == [f"chain_manifest/{piece.name}"]


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
# build writes: certificate, manifest and each piece CSV. The certificate
# digests above see no artifact bytes, because in-memory certificates list
# no artifacts. Same versions as above.
GOLDEN_ARTIFACT_DIGESTS = [
    pytest.param(
        lambda **files: tunnel_certificate(3, sharpness=100.0, **files),
        "8e50d6649ab2f970a775259674184a29221d55845a1b79e178f00df3eb597b0d",
        id="tunnel"),
    pytest.param(
        lambda **files: surgery_certificate(1, 3, 0.05, **files),
        "c778a79201aedae09041a8c0b3a89cff27275dff1a58639b30f35f8acb6b26df",
        id="surgery"),
    # four spheres: three links written from one repeated profile chain
    pytest.param(
        lambda **files: sphere_chain_certificate(
            1.5 * unit_sphere_volume(3), 3, **files),
        "9908ae6b31a4bafb88ca08ab1a530d5b3715f591012099e04e553d62302e6f8a",
        id="chain"),
    # round ingredient remnant from its far pole, hemisphere up to its
    # boundary, with a waist cylinder
    pytest.param(
        lambda **files: attach_hemisphere(round_sphere_ingredient(3, 0.5),
                                          diameter_target=10.0, **files),
        "5538be3057e13cd30557af822ddee6c60ea7b31466563bfd5ca36bed85fcb697",
        id="hemisphere"),
    # stand-in attachment: no ingredient remnant, product entries added
    pytest.param(
        lambda **files: attach_product_ingredient(1, 2, factor_radius=10.0,
                                                  **files),
        "5838037e24d18e7635f7e05840cfaeb1e57fdf2cadbe5edfe6b5b919dc651b59",
        id="product"),
    # hemisphere from its boundary down to the tunnel, small sphere out
    # to its far pole
    pytest.param(
        lambda **files: verify_volume_budget(
            hemisphere_standin(3, declared_volume=0.5 * unit_sphere_volume(3)),
            0.05, **files),
        "61aac317c2c0b773a06285b5a2df5ef4c30dc1b8313c2292dcba52ead1e961e4",
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
