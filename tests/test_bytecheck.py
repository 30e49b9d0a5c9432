"""The byte oracle's record and diff, on small records and one written
tunnel (the full corpus runs in CI's self-diff step)."""

import copy
import importlib.util
from pathlib import Path

from neckforge.pipelines import tunnel_certificate

BYTECHECK = Path(__file__).resolve().parents[1] / "bytecheck" / "__main__.py"


def load_bytecheck():
    spec = importlib.util.spec_from_file_location("bytecheck_main", BYTECHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fields_key_claims_by_name_and_other_entries_by_index():
    fields = load_bytecheck().fields({
        "claims": [{"name": "scalar_floor", "margin": 0.5}],
        "pieces": [{"volume": 1.0}, {"volume": 2.0}],
        "status": "PASS"})
    assert fields == {"claims[scalar_floor].margin": 0.5,
                      "claims[scalar_floor].name": "scalar_floor",
                      "pieces[0].volume": 1.0, "pieces[1].volume": 2.0,
                      "status": "PASS"}


def test_a_written_tree_records_every_file_with_its_role(tmp_path):
    bytecheck = load_bytecheck()
    tunnel_certificate(3, sharpness=100.0,
                       certificate_path=tmp_path / "cert.json",
                       profiles_dir=tmp_path / "files")
    files = bytecheck.tree(tmp_path)
    roles = {entry["role"] for entry in files.values()}
    assert files["cert.json"]["role"] == "certificate"
    assert files["files/assembly.json"]["role"] == "manifest"
    assert "other" not in roles and "bent_neck" in roles
    assert files["files/assembly.json"]["fields"]["totals.volume"] > 0.0


def test_diff_lists_what_moved_and_nothing_else():
    bytecheck = load_bytecheck()
    a = {"versions": {"numpy": "2.4.6"}, "runs": {
        "golden/x": {"status": "PASS", "files": {
            "cert.json": {"sha256": "c1", "role": "certificate",
                          "fields": {"quantities.volume": 2.0,
                                     "status": "PASS"}},
            "pieces/p.csv": {"sha256": "p1", "role": "bent_neck"}}},
        "readme/00 build-tunnel": {"exit": 0, "output": ["status PASS"]}}}
    lines, moved = bytecheck.diff(a, copy.deepcopy(a))
    assert not moved
    assert lines == ["moved fields: 0", "moved files: 0", "other moves: 0"]
    b = copy.deepcopy(a)
    cert = b["runs"]["golden/x"]["files"]["cert.json"]
    cert["sha256"] = "c2"
    cert["fields"]["quantities.volume"] = 2.5
    b["runs"]["golden/x"]["files"]["pieces/p.csv"]["sha256"] = "p2"
    b["runs"]["readme/00 build-tunnel"] = {"exit": 1,
                                           "output": ["status FAIL"]}
    lines, moved = bytecheck.diff(a, b)
    assert moved
    report = "\n".join(lines)
    assert "moved fields: 1, largest relative change 0.2" in report
    assert "quantities.volume  2.0 -> 2.5  change +0.5  rel 0.2" in report
    assert "  bent_neck (1)\n    golden/x: pieces/p.csv" in report
    assert "  certificate (1)\n    golden/x: cert.json" in report
    assert "readme/00 build-tunnel: exit 0 -> 1" in report
    assert "- status PASS" in report and "+ status FAIL" in report
