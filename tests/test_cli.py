"""The command line surface: subcommands, config file, exit codes."""

import errno
import json
import os
import shutil
from collections import Counter
from pathlib import Path

import pytest

from neckforge import assembly
from neckforge.certificate import write_certificate
from neckforge.cli import main
from neckforge.models import unit_sphere_volume
from neckforge.pipelines import (attach_hemisphere, attach_product_ingredient,
                                 hemisphere_standin, round_sphere_ingredient,
                                 sphere_chain_certificate,
                                 verify_volume_budget)


def test_build_tunnel_writes_passing_certificate(tmp_path, capsys):
    cert = tmp_path / "tunnel.json"
    code = main(["build-tunnel", "--n", "3", "--kappa", "6", "--delta", "0.1",
                 "--length", "2", "--j", "100", "--out", str(cert),
                 "--profiles-dir", str(tmp_path / "files")])
    out = capsys.readouterr().out
    assert code == 0
    assert "status PASS" in out
    doc = json.loads(cert.read_text())
    assert doc["kind"] == "tunnel"
    assert doc["parameters"]["sharpness"] == 100.0


def test_recheck_roundtrip_and_tamper_exit(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert main(["pipeline", "cor-d", "--out", str(cert)]) == 0
    assert main(["recheck", str(cert)]) == 0
    raw = cert.read_text()
    cert.write_text(raw.replace('"PASS"', '"FAIL"', 1))
    code = main(["recheck", str(cert)])
    assert code == 2
    assert "SchemaViolation" in capsys.readouterr().err


def test_recheck_prints_the_claim_lines_of_the_build(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert main(["build-tunnel", "--out", str(cert)]) == 0
    built = capsys.readouterr().out.splitlines()
    assert main(["recheck", str(cert)]) == 0
    rechecked = capsys.readouterr().out.splitlines()
    claims = [line for line in built if line.startswith("claim ")]
    assert len(claims) == 3
    assert rechecked == claims + ["status PASS"]


def test_pipeline_names_map_to_kinds(tmp_path):
    for name, kind in [("main-a", "hemisphere_attachment"),
                       ("cor-d", "hemisphere_attachment"),
                       ("cor-t", "product_attachment"),
                       ("cor-v", "sphere_chain"),
                       ("main-b-budget", "volume_budget")]:
        cert = tmp_path / f"{name}.json"
        args = ["pipeline", name, "--out", str(cert)]
        if name == "cor-v":
            args += ["--volume", "10.0"]
        assert main(args) == 0, name
        assert json.loads(cert.read_text())["kind"] == kind


def test_cor_d_defaults_to_diameter_ten(tmp_path):
    cert = tmp_path / "cord.json"
    main(["pipeline", "cor-d", "--out", str(cert)])
    doc = json.loads(cert.read_text())
    assert doc["parameters"]["diameter_target"] == 10.0
    assert doc["quantities"]["diameter_lower"] >= 10.0


def test_surgery_command_accepts_body_radii(capsys):
    code = main(["surgery", "--p", "1", "--q", "3", "--delta", "0.05",
                 "--body", "1,1"])
    assert code == 0
    assert "volume_above_band" in capsys.readouterr().out


@pytest.mark.parametrize("body", ["1", "a,b"])
def test_surgery_command_rejects_malformed_body(capsys, body):
    code = main(["surgery", "--p", "1", "--q", "3", "--delta", "0.05",
                 "--body", body])
    assert code == 2
    assert "ParameterOutOfRange" in capsys.readouterr().err


def test_config_file_presets_defaults_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.04\nd = 12  # stretched\n")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["--config", str(cfg), "pipeline", "main-b-budget", "--out", str(a)])
    main(["--config", str(cfg), "pipeline", "main-b-budget", "--eps", "0.05",
          "--out", str(b)])
    doc_a = json.loads(a.read_text())
    doc_b = json.loads(b.read_text())
    assert doc_a["parameters"]["excess_scale"] == 0.04
    assert doc_a["parameters"]["diameter_target"] == 12.0
    assert doc_b["parameters"]["excess_scale"] == 0.05
    assert doc_b["parameters"]["diameter_target"] == 12.0


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sharpnes = 100\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "pipeline", "cor-d"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--config", "bad.cfg", "build-tunnel"],
    ["--config", "unknown.cfg", "build-tunnel"],
    ["--config", "absent.cfg", "build-tunnel"],
    ["recheck", "absent.cert.json"],
    ["recheck", "adir"]], ids=" ".join)
def test_unreadable_inputs_exit_two_with_one_error_line(tmp_path, monkeypatch,
                                                        capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text("bogus\n")
    (tmp_path / "unknown.cfg").write_text("sharpnes = 100\n")
    (tmp_path / "adir").mkdir()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: neckforge")
    assert [line for line in err.splitlines() if "error:" in line] == [
        err.splitlines()[-1]]
    assert "Traceback" not in err


def test_infeasible_construction_exits_two(capsys):
    code = main(["pipeline", "main-a", "--ingredient-radius", "1.0"])
    assert code == 2
    assert "IngredientFloorTooLow" in capsys.readouterr().err


def test_global_tolerance_is_recorded(tmp_path):
    cert = tmp_path / "cert.json"
    main(["--tolerance", "1e-10", "pipeline", "cor-d", "--out", str(cert)])
    doc = json.loads(cert.read_text())
    assert all(c["tolerance"] == 1e-10 for c in doc["claims"])


def test_seed_option_is_rejected():
    # builds are deterministic; there is no seed to set
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "7", "build-tunnel"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name, tube, recorded", [
    ("cor-t", "0.03", 0.03), ("cor-t", None, 0.05), ("main-a", None, 0.1)])
def test_tube_option_reaches_every_gluing_pipeline(tmp_path, name, tube,
                                                   recorded):
    # without --tube each pipeline keeps its own default tube radius
    cert = tmp_path / "cert.json"
    args = ["pipeline", name, "--out", str(cert)]
    if tube is not None:
        args += ["--tube", tube]
    assert main(args) == 0
    doc = json.loads(cert.read_text())
    assert doc["parameters"]["tube_radius"] == recorded


@pytest.mark.parametrize("argv", [
    ["main-b-budget", "--tube", "0.03"], ["main-b-budget", "--j", "5"],
    ["cor-d", "--ingredient-radius", "0.3"], ["cor-t", "--n", "5"],
    ["cor-v", "--d", "3"], ["main-a", "--p", "2"]], ids=" ".join)
def test_pipeline_refuses_options_it_does_not_read(tmp_path, monkeypatch,
                                                   capsys, argv):
    # main-a --p is not taken as an abbreviation of --profiles-dir either
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", *argv, "--out", "cert.json"])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []
    # the refusal shows the usage of that pipeline, not of neckforge
    err = capsys.readouterr().err
    assert err.startswith(f"usage: neckforge pipeline {argv[0]} ")
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err


@pytest.mark.parametrize("option", [["--tolerance", "0.5"],
                                    ["--grid-density", "7"]],
                         ids=" ".join)
def test_recheck_refuses_the_build_options(tmp_path, capsys, option):
    cert = tmp_path / "cert.json"
    assert main(["build-tunnel", "--out", str(cert)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*option, "recheck", str(cert)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: neckforge recheck ")
    assert f"recheck does not read {option[0]}" in err


def test_recheck_ignores_a_config_tolerance(tmp_path):
    # a config key applies to the commands that read it, as any other
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tolerance = 1e-10\n")
    cert = tmp_path / "cert.json"
    assert main(["--config", str(cfg), "build-tunnel", "--out",
                 str(cert)]) == 0
    assert main(["--config", str(cfg), "recheck", str(cert)]) == 0


def test_recheck_catches_an_edited_or_absent_shared_piece_file(tmp_path,
                                                                capsys):
    # cor-v links place one record many times; one edited byte of its
    # file fails them all
    cert = tmp_path / "cert.json"
    assert main(["pipeline", "cor-v", "--volume", "60", "--out", str(cert),
                 "--profiles-dir", str(tmp_path / "profiles")]) == 0
    manifest = json.loads((tmp_path / "profiles" / "assembly.json").read_text())
    pieces = manifest["pieces"]
    [(shared, uses)] = Counter(pieces[p["piece"]]["file"]
                               for p in manifest["placements"]).most_common(1)
    assert uses > 2
    piece = tmp_path / "profiles" / shared
    piece.write_bytes(piece.read_bytes().replace(b"e-", b"e+", 1))
    capsys.readouterr()
    assert main(["recheck", str(cert)]) == 2
    assert "SchemaViolation" in capsys.readouterr().err
    piece.unlink()
    assert main(["recheck", str(cert)]) == 2
    out = capsys.readouterr().out
    assert f"artifacts missing: ['chain_manifest/{shared}']" in out


def _half_sphere_budget(**kw):
    hemisphere = hemisphere_standin(
        3, declared_volume=0.5 * unit_sphere_volume(3))
    return verify_volume_budget(hemisphere, 0.05, diameter_target=10.0,
                                dim=3, **kw)


@pytest.mark.parametrize("name, build", [
    ("main-a", lambda **kw: attach_hemisphere(
        round_sphere_ingredient(3, 0.5), **kw)),
    ("cor-d", lambda **kw: attach_hemisphere(
        round_sphere_ingredient(3, 0.5), diameter_target=10.0, **kw)),
    ("cor-t", lambda **kw: attach_product_ingredient(1, 2, **kw)),
    ("cor-v", lambda **kw: sphere_chain_certificate(
        3 * unit_sphere_volume(3), 3, **kw)),
    ("main-b-budget", _half_sphere_budget)])
def test_pipeline_without_options_builds_its_documented_preset(tmp_path,
                                                               name, build):
    cli_cert, library_cert = tmp_path / "cli.json", tmp_path / "library.json"
    assert main(["pipeline", name, "--out", str(cli_cert)]) == 0
    build(certificate_path=library_cert)
    assert cli_cert.read_bytes() == library_cert.read_bytes()


def test_config_key_applies_only_to_pipelines_that_read_it(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ingredient_radius = 0.3\neps = 0.04\n")
    ingredients = {}
    for name in ("main-a", "cor-d"):
        cert = tmp_path / f"{name}.json"
        assert main(["--config", str(cfg), "pipeline", name,
                     "--out", str(cert)]) == 0
        doc = json.loads(cert.read_text())
        ingredients[name] = doc["parameters"]["ingredient"]
    assert ingredients == {"main-a": "round_sphere_3d_r0.3",
                           "cor-d": "round_sphere_3d_r0.5"}


def test_config_value_goes_through_its_option_type(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("d = ten\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "pipeline", "cor-d"])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def written_tunnel(tmp_path_factory):
    """A default build-tunnel certificate with its profile files."""
    root = tmp_path_factory.mktemp("tunnel")
    assert main(["build-tunnel", "--out", str(root / "t.cert.json"),
                 "--profiles-dir", str(root / "profiles")]) == 0
    return root


def _moved_out(root, name):
    """Move root/profiles/name into a directory beside root; its new path."""
    outside = root.parent / f"{root.name}-outside"
    outside.mkdir(exist_ok=True)
    return (root / "profiles" / name).rename(outside / name)


def _symlinked_out(root, name):
    """Leave at root/profiles/name a symlink to where it moved outside."""
    (root / "profiles" / name).symlink_to(_moved_out(root, name))


def _point_first_piece_at(doc, root, path):
    """Rewrite the manifest so its first piece names path, and the
    certificate so the manifest still matches its fingerprint."""
    manifest = root / "profiles" / "assembly.json"
    listing = json.loads(manifest.read_text())
    listing["pieces"][0]["file"] = path(listing["pieces"][0]["file"])
    entry = doc["artifacts"]["tunnel_manifest"]
    entry["sha256"] = write_certificate(listing, manifest)


REFUSED_EDITS = {
    "lhs_ref list": lambda doc, root: doc["claims"][0].update(lhs_ref=["x"]),
    "rhs_ref object": lambda doc, root: doc["claims"][0].update(
        rhs_ref={"x": 1}),
    "artifact file number": lambda doc, root: doc["artifacts"][
        "tunnel_manifest"].update(file=7),
    "absolute artifact": lambda doc, root: doc["artifacts"][
        "tunnel_manifest"].update(
            file=str((root / "profiles" / "assembly.json").resolve())),
    "directory artifact": lambda doc, root: doc["artifacts"][
        "tunnel_manifest"].update(file="profiles/pieces"),
    "piece path with ..": lambda doc, root: _point_first_piece_at(
        doc, root, lambda file: "../profiles/" + file),
    "absolute piece path": lambda doc, root: _point_first_piece_at(
        doc, root, lambda file: str((root / "profiles" / file).resolve())),
    # the three below name the very bytes the certificate hashes, outside
    # the certificate's directory
    "artifact path with ..": lambda doc, root: doc["artifacts"][
        "tunnel_manifest"].update(file=os.path.relpath(
            _moved_out(root, "assembly.json"), root)),
    "manifest symlinked out": lambda doc, root: _symlinked_out(
        root, "assembly.json"),
    "pieces symlinked out": lambda doc, root: _symlinked_out(root, "pieces"),
}
ESCAPES = ["artifact path with ..", "manifest symlinked out",
           "pieces symlinked out"]


@pytest.mark.parametrize("edit", REFUSED_EDITS.values(),
                         ids=REFUSED_EDITS.keys())
def test_recheck_refuses_mistyped_or_escaping_references(
        written_tunnel, tmp_path, capsys, edit):
    # every edit keeps the certificate canonical, so only the edited
    # field can refuse it; each path edit names a file that exists
    shutil.copytree(written_tunnel, tmp_path, dirs_exist_ok=True)
    cert = tmp_path / "t.cert.json"
    assert main(["recheck", str(cert)]) == 0
    doc = json.loads(cert.read_text())
    edit(doc, tmp_path)
    write_certificate(doc, cert)
    capsys.readouterr()
    assert main(["recheck", str(cert)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaViolation: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("escape", [None, *ESCAPES])
def test_recheck_opens_nothing_outside_the_root(written_tunnel, tmp_path,
                                                monkeypatch, escape):
    root = tmp_path / "root"
    shutil.copytree(written_tunnel, root)
    cert = root / "t.cert.json"
    if escape is not None:
        doc = json.loads(cert.read_text())
        REFUSED_EDITS[escape](doc, root)
        write_certificate(doc, cert)
    opened, real_open = [], os.open

    def spy(path, *args, **kwargs):
        opened.append(Path(path).resolve())
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    code = main(["recheck", str(cert)])
    monkeypatch.undo()
    assert code == (0 if escape is None else 2)
    assert opened[0] == cert.resolve()
    assert len(opened) > (2 if escape is None else 0)
    assert all(path.is_relative_to(root.resolve()) for path in opened)


def test_recheck_without_the_listed_files_exits_two(written_tunnel, tmp_path,
                                                    capsys):
    # a copy of the certificate alone: the manifest it lists is absent
    shutil.copy(written_tunnel / "t.cert.json", tmp_path)
    assert main(["recheck", str(tmp_path / "t.cert.json")]) == 2
    out = capsys.readouterr().out
    assert out.startswith("artifacts missing: ['tunnel_manifest']\n")
    assert out.endswith("status PASS\n")
    # and there is no option to look for the files elsewhere
    with pytest.raises(SystemExit) as exc:
        main(["recheck", "--profiles-dir", str(written_tunnel / "profiles"),
              str(tmp_path / "t.cert.json")])
    assert exc.value.code == 2


def test_build_refuses_profiles_outside_the_certificate_directory(
        tmp_path, monkeypatch, capsys):
    # refused before any construction work: no curve is designed
    def no_design(params):
        raise AssertionError("a curve was designed for a refused build")

    monkeypatch.setattr(assembly, "design_bending_curve", no_design)
    monkeypatch.chdir(tmp_path)
    for argv in (["build-tunnel"], ["pipeline", "cor-v", "--volume", "190"]):
        assert main([*argv, "--out", "a/c.json", "--profiles-dir", "b"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: ParameterOutOfRange: profiles directory b ")
        assert not (tmp_path / "b").exists()
        assert not (tmp_path / "a").exists()


def _plant_link(tmp_path, name, target):
    """work/profiles/name as a link to target, made relative."""
    link = tmp_path / "work" / "profiles" / name
    link.parent.mkdir(parents=True, exist_ok=True)
    link.symlink_to(os.path.relpath(target, link.parent))
    return link


@pytest.mark.parametrize("at_piece", [False, True])
def test_build_replaces_a_planted_link_and_never_follows_it(tmp_path,
                                                             at_piece):
    outside = tmp_path / "outside.json"
    outside.write_bytes(b"not the build's\n")
    profiles = tmp_path / "work" / "profiles"
    cert = tmp_path / "work" / "c.json"
    argv = ["build-tunnel", "--out", str(cert), "--profiles-dir",
            str(profiles)]
    name = "assembly.json"
    if at_piece:  # a link where the next build writes one of its pieces
        assert main(argv) == 0
        name = json.loads((profiles / name).read_text())["pieces"][0]["file"]
        (profiles / name).unlink()
    link = _plant_link(tmp_path, name, outside)
    assert main(argv) == 0
    assert outside.read_bytes() == b"not the build's\n"
    assert not link.is_symlink()
    assert main(["recheck", str(cert)]) == 0


def test_build_refuses_a_piece_store_outside_the_root(tmp_path, capsys):
    outside = tmp_path / "outside"
    outside.mkdir()
    _plant_link(tmp_path, "pieces", outside)
    cert = tmp_path / "work" / "c.json"
    assert main(["build-tunnel", "--out", str(cert), "--profiles-dir",
                 str(tmp_path / "work" / "profiles")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: ParameterOutOfRange: piece store ")
    assert list(outside.iterdir()) == []
    # nothing written: the store link is all the profiles directory holds
    assert [p.name for p in (tmp_path / "work").rglob("*")] == [
        "profiles", "pieces"]


def test_build_replaces_a_link_planted_at_out_and_never_follows_it(
        tmp_path):
    outside = tmp_path / "outside.json"
    outside.write_bytes(b"not the build's\n")
    cert = tmp_path / "work" / "c.json"
    cert.parent.mkdir()
    cert.symlink_to(os.path.join("..", "outside.json"))
    assert main(["build-tunnel", "--out", str(cert), "--profiles-dir",
                 str(tmp_path / "work" / "profiles")]) == 0
    assert outside.read_bytes() == b"not the build's\n"
    assert cert.is_file() and not cert.is_symlink()
    assert not list(cert.parent.glob(".incoming-*"))
    assert main(["recheck", str(cert)]) == 0


def _no_space(src, dst):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(dst))


# name: (what lies in the way under tmp_path, whether a profiles directory
# is written, whether the build is refused before any curve is designed)
HOSTILE_OUTPUTS = {
    "out a directory": (lambda w: (w / "c.json").mkdir(), True, True),
    "out a FIFO": (lambda w: os.mkfifo(w / "c.json"), True, True),
    "profiles-dir a file": (
        lambda w: (w / "profiles").write_text(""), True, False),
    "pieces a file": (lambda w: ((w / "profiles").mkdir(),
                                 (w / "profiles" / "pieces").write_text("")),
                      True, False),
    "manifest a directory": (
        lambda w: (w / "profiles" / "assembly.json").mkdir(parents=True),
        True, False),
    "disk full at a piece": (None, True, False),
    "disk full at the certificate": (None, False, False),
}


@pytest.mark.parametrize("state", HOSTILE_OUTPUTS)
def test_a_failed_write_exits_two_and_leaves_nothing_behind(
        tmp_path, monkeypatch, capsys, state):
    prepare, with_profiles, early = HOSTILE_OUTPUTS[state]
    if prepare is None:
        monkeypatch.setattr(os, "replace", _no_space)
    else:
        prepare(tmp_path)
    if early:
        def no_design(params):
            raise AssertionError("a curve was designed for a refused build")
        monkeypatch.setattr(assembly, "design_bending_curve", no_design)
    argv = ["build-tunnel", "--out", str(tmp_path / "c.json")]
    if with_profiles:
        argv += ["--profiles-dir", str(tmp_path / "profiles")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not list(tmp_path.rglob(".incoming-*"))
