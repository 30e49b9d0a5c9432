"""The command line surface: subcommands, config file, exit codes."""

import json

import pytest

from neckforge.cli import main


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
    with pytest.raises(SystemExit):
        main(["--config", str(cfg), "pipeline", "cor-d"])


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
