"""Canonical certificate encoding, claim semantics, and recheck."""

import hashlib
import json
import math
import numbers
import os
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from test_pipelines import GOLDEN_CERTIFICATE_DIGESTS

import neckforge
from neckforge.certificate import (certificate_bytes, load_certificate,
                                   make_certificate, recheck_certificate,
                                   write_certificate)
from neckforge.cli import main
from neckforge.errors import ParameterOutOfRange, SchemaViolation


def demo_certificate():
    return make_certificate(
        kind="demo",
        parameters={"tube_radius": 0.1, "sharpness": 100},
        quantities={"min_scalar": 5.997483238098574,
                    "floor": 5.99,
                    "diameter_lower": 2.7960037030318654,
                    "volume": 0.28404842889349646},
        claims=[("scalar_floor", "min_scalar", ">", "floor"),
                ("diameter", "diameter_lower", ">=", 2.0),
                ("volume_positive", "volume", ">", 0.0)],
        provenance={"builder": "build_tunnel"},
    )


def test_certificate_bytes_deterministic():
    a = certificate_bytes(demo_certificate())
    b = certificate_bytes(demo_certificate())
    assert a == b
    assert b"timestamp" not in a.lower()


def test_certificate_roundtrip_is_fixed_point(tmp_path):
    doc = demo_certificate()
    path = tmp_path / "cert.json"
    write_certificate(doc, path)
    reloaded = load_certificate(path)
    assert certificate_bytes(reloaded) == path.read_bytes()
    # floats are rounded to the canonical 13 significant digits once
    assert reloaded["quantities"]["min_scalar"] == pytest.approx(
        5.997483238098574, rel=1e-12)


def test_write_twice_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_certificate(demo_certificate(), p1)
    write_certificate(demo_certificate(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_claim_status_three_valued():
    doc = make_certificate(
        "demo", {}, {"x": 1.0},
        claims=[("pass", "x", ">", 0.5),
                ("fail", "x", "<", 0.5),
                ("close", "x", ">", 1.0 - 1e-12)])
    by_name = {c["name"]: c["status"] for c in doc["claims"]}
    assert by_name == {"pass": "PASS", "fail": "FAIL", "close": "INCONCLUSIVE"}
    assert doc["status"] == "FAIL"


def test_aggregate_prefers_inconclusive_over_pass():
    doc = make_certificate("demo", {}, {"x": 1.0},
                           claims=[("a", "x", ">", 0.0),
                                   ("b", "x", ">", 1.0)])
    assert [c["status"] for c in doc["claims"]] == ["PASS", "INCONCLUSIVE"]
    assert doc["status"] == "INCONCLUSIVE"


def test_margin_orientation_for_upper_bounds():
    doc = make_certificate("demo", {}, {"x": 0.3},
                           claims=[("cap", "x", "<=", 0.5)])
    assert doc["claims"][0]["margin"] == pytest.approx(0.2)
    assert doc["status"] == "PASS"


def test_rhs_reference_double_entry():
    doc = demo_certificate()
    claim = doc["claims"][0]
    assert claim["rhs_ref"] == "floor"
    assert claim["rhs_value"] == doc["quantities"]["floor"]
    assert claim["lhs_value"] == doc["quantities"]["min_scalar"]


def test_make_certificate_validates_inputs():
    with pytest.raises(ParameterOutOfRange):
        make_certificate("demo", {}, {"x": 1.0}, [("c", "missing", ">", 0.0)])
    with pytest.raises(ParameterOutOfRange):
        make_certificate("demo", {}, {"x": 1.0}, [("c", "x", "!=", 0.0)])
    with pytest.raises(SchemaViolation):
        make_certificate("demo", {}, {"x": float("nan")}, [])
    with pytest.raises(ParameterOutOfRange):
        make_certificate("demo", {}, {"x": True}, [])


def test_numpy_scalars_are_accepted():
    doc = make_certificate("demo", {}, {"x": np.float64(2.0),
                                        "n": int(np.int64(3))},
                           claims=[("c", "x", ">", np.float64(1.0))])
    assert doc["status"] == "PASS"
    recheck_certificate(doc)


def test_recheck_passes_written_file(tmp_path):
    path = tmp_path / "cert.json"
    write_certificate(demo_certificate(), path)
    report = recheck_certificate(path)
    assert report["status"] == "PASS"
    assert report["n_claims"] == 3
    assert all(c["status"] == "PASS" for c in report["claims"])


def test_recheck_rejects_reformatted_file(tmp_path):
    path = tmp_path / "cert.json"
    write_certificate(demo_certificate(), path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(doc, sort_keys=True))  # same data, other bytes
    with pytest.raises(SchemaViolation):
        recheck_certificate(path)


def test_recheck_catches_quantity_edit(tmp_path):
    path = tmp_path / "cert.json"
    write_certificate(demo_certificate(), path)
    text = path.read_text()
    assert text.count("5.997483238099e+00") == 2  # quantity + lhs_value
    tampered = text.replace("5.997483238099e+00", "5.897483238099e+00", 1)
    path.write_text(tampered)
    with pytest.raises(SchemaViolation):
        recheck_certificate(path)


def test_recheck_catches_status_flip():
    doc = json.loads(certificate_bytes(demo_certificate()))
    doc["claims"][1]["status"] = "FAIL"
    with pytest.raises(SchemaViolation):
        recheck_certificate(doc)


def test_recheck_catches_margin_edit():
    doc = json.loads(certificate_bytes(demo_certificate()))
    doc["claims"][0]["margin"] = doc["claims"][0]["margin"] + 1e-3
    with pytest.raises(SchemaViolation):
        recheck_certificate(doc)


def test_recheck_catches_last_digit_wiggle_on_literal_bound(tmp_path):
    # margins are exact fixed points, so even a 1e-12 nudge of a literal
    # rhs (which has no double-entry partner) breaks the recomputation
    path = tmp_path / "cert.json"
    write_certificate(demo_certificate(), path)
    text = path.read_text()
    assert "2.000000000000e+00" in text  # the diameter bound literal
    path.write_text(text.replace("2.000000000000e+00",
                                 "2.000000000003e+00", 1))
    with pytest.raises(SchemaViolation):
        recheck_certificate(path)


def test_recheck_catches_aggregate_mismatch():
    doc = json.loads(certificate_bytes(demo_certificate()))
    doc["status"] = "FAIL"
    with pytest.raises(SchemaViolation):
        recheck_certificate(doc)


def test_recheck_enforces_exact_key_sets():
    doc = json.loads(certificate_bytes(demo_certificate()))
    doc["extra"] = 1
    with pytest.raises(SchemaViolation):
        recheck_certificate(doc)
    doc = json.loads(certificate_bytes(demo_certificate()))
    del doc["claims"][0]["tolerance"]
    with pytest.raises(SchemaViolation):
        recheck_certificate(doc)


def test_recheck_rejects_malformed_json(tmp_path):
    path = tmp_path / "cert.json"
    path.write_text("{not json")
    with pytest.raises(SchemaViolation):
        recheck_certificate(path)


def test_artifact_fingerprints(tmp_path):
    payload = tmp_path / "assembly.json"
    payload.write_bytes(b"piece data\n")
    import hashlib
    digest = hashlib.sha256(payload.read_bytes()).hexdigest()
    doc = make_certificate(
        "demo", {}, {"x": 1.0}, [("c", "x", ">", 0.0)],
        artifacts={"assembly": {"file": "assembly.json", "sha256": digest}})
    path = tmp_path / "cert.json"
    write_certificate(doc, path)
    report = recheck_certificate(path)
    assert report["artifacts_verified"] == ["assembly"]
    payload.write_bytes(b"tampered\n")
    with pytest.raises(SchemaViolation):
        recheck_certificate(path)
    payload.unlink()
    report = recheck_certificate(path)
    assert report["artifacts_missing"] == ["assembly"]


def test_seeded_digit_tampering_cannot_forge_verdicts(tmp_path):
    """Random single-digit edits either fail recheck or leave verdicts intact."""
    path = tmp_path / "cert.json"
    write_certificate(demo_certificate(), path)
    original = path.read_bytes()
    reference = json.loads(original)
    rng = np.random.default_rng(20260816)
    digit_positions = [i for i, b in enumerate(original)
                       if chr(b).isdigit()]
    caught = 0
    for _ in range(40):
        pos = int(rng.choice(digit_positions))
        old = chr(original[pos])
        new = str((int(old) + int(rng.integers(1, 10))) % 10)
        mutated = original[:pos] + new.encode() + original[pos + 1:]
        path.write_bytes(mutated)
        try:
            recheck_certificate(path)
        except SchemaViolation:
            caught += 1
            continue
        survived = json.loads(path.read_bytes())
        # a mutation that passes recheck must not have touched any verdict:
        # the only editable digits live in informational fields (parameters,
        # versions) or in tolerances too slack to flip a status
        assert survived["status"] == reference["status"]
        assert survived["quantities"] == reference["quantities"]
        for got, want in zip(survived["claims"], reference["claims"]):
            assert got["status"] == want["status"]
            assert got["lhs_value"] == want["lhs_value"]
            assert got["rhs_value"] == want["rhs_value"]
            assert got["margin"] == want["margin"]
    assert caught >= 20  # most digits sit in double-entry checked fields


# -- the serializer against the one it replaced ---------------------------

def _reference_canon(value, indent: int) -> str:
    """The serializer before its exact-type dispatch, kept as the oracle
    for byte identity: an abstract-type chain and json.dumps per key."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise SchemaViolation("certificate object keys must be strings")
            items.append(f"{pad}  {json.dumps(key)}: "
                         f"{_reference_canon(value[key], indent + 1)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if len(value) == 0:
            return "[]"
        items = [f"{pad}  {_reference_canon(x, indent + 1)}" for x in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        v = float(value)
        if not math.isfinite(v):
            raise SchemaViolation("certificates must not contain non-finite numbers")
        return format(v, ".12e")
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise SchemaViolation(
        f"unsupported value type {type(value).__name__} in certificate")


def _outcome(serialize, value):
    """The bytes, or the type and message of what was raised."""
    try:
        return serialize(value)
    except Exception as exc:
        return type(exc), str(exc)


def _same_as_reference(value):
    got = _outcome(certificate_bytes, value)
    want = _outcome(lambda v: (_reference_canon(v, 0) + "\n").encode("ascii"),
                    value)
    assert got == want
    return got


@pytest.mark.parametrize("index", range(len(GOLDEN_CERTIFICATE_DIGESTS)))
def test_golden_builds_serialize_as_before(index):
    build, digest = GOLDEN_CERTIFICATE_DIGESTS[index]
    data = _same_as_reference(build().certificate)
    assert hashlib.sha256(data).hexdigest() == digest


SCALARS = [
    np.float64(2.0 / 3.0), np.float32(0.1), np.int64(-7), np.bool_(True),
    True, False, None, -0.0, 5e-324, 1e308, -1e308, 10 ** 29 + 7, -10 ** 29,
    0, 1.0, float("nan"), float("inf"), -float("inf"), np.float64("nan"),
    '"quoted"', "back\\slash", "ctrl\x00\x01\x1f\t\n\r", "caf\u00e9",
    "line\u2028sep", "", type("Name", (str,), {})("sub\u00e9"),
    type("Count", (int,), {})(3), object(), b"bytes", 1j]


def _id(value):
    return "object" if type(value) is object else ascii(value)


@pytest.mark.parametrize("value", SCALARS, ids=_id)
def test_scalars_serialize_as_before(value):
    _same_as_reference(value)
    _same_as_reference({"k": value, "list": [value], "tuple": (value, 1.5)})


def test_np_bool_is_refused_as_before():
    got = _same_as_reference({"flag": np.bool_(False)})
    assert got == (SchemaViolation,
                   "unsupported value type bool in certificate")


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, ((1, 2), [3.5, (None,)]),
    OrderedDict([("z", 1.0), ("a", OrderedDict([("y", [])]))]),
    {"\u00e9": 1, '"': 2, "\\": 3, "\u2028": 4, "": 5},
    {"a": [{"b": [{"c": (1, 2.0, "3")}]}], "b": None},
    {1: 2}, {"a": {2.0: 1}}], ids=ascii)
def test_containers_serialize_as_before(value):
    _same_as_reference(value)


@pytest.mark.parametrize("keys", [{1: 2, "a": 3}, {"a": 3, None: 1}])
def test_mixed_keys_are_a_schema_error(keys):
    with pytest.raises(SchemaViolation, match="keys must be strings"):
        certificate_bytes({"parameters": keys})
    with pytest.raises(SchemaViolation, match="keys must be strings"):
        make_certificate("demo", parameters=keys, quantities={"x": 1.0},
                         claims=[])


def _deep_list(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


def test_deep_nesting_is_a_schema_error(tmp_path, capsys):
    with pytest.raises(SchemaViolation, match="nesting is too deep"):
        certificate_bytes({"parameters": {"deep": _deep_list(100_000)}})
    path = tmp_path / "deep.cert.json"
    path.write_text("[" * 100_000)
    with pytest.raises(SchemaViolation, match="nesting is too deep"):
        load_certificate(path)
    assert main(["recheck", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: SchemaViolation: certificate nesting is too deep"]


def test_deep_nested_artifact_is_not_read_as_a_manifest(tmp_path):
    payload = b"[" * 100_000
    (tmp_path / "deep.json").write_bytes(payload)
    doc = make_certificate(
        "demo", {}, {"x": 1.0}, [("c", "x", ">", 0.0)],
        artifacts={"deep": {"file": "deep.json",
                            "sha256": hashlib.sha256(payload).hexdigest()}})
    write_certificate(doc, tmp_path / "deep.cert.json")
    report = recheck_certificate(tmp_path / "deep.cert.json")
    assert report["artifacts_verified"] == ["deep"]


@pytest.mark.parametrize("quantities, claims", [
    (lambda big: {"x": big}, lambda big: []),
    (lambda big: {"x": 1.0}, lambda big: [("c", "x", ">", big)])],
    ids=["quantity", "literal bound"])
def test_make_certificate_reads_an_int_too_large_for_a_float_as_inf(
        quantities, claims):
    # the typed error an infinite float gets, not a bare OverflowError
    errors = []
    for value in (10 ** 400, math.inf):
        with pytest.raises(SchemaViolation) as exc:
            make_certificate("d", {}, quantities(value), claims(value))
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


def test_recheck_of_a_document_touches_no_file(monkeypatch):
    # a dict has no root: its artifacts are missing, with no file call
    doc = make_certificate("d", {}, {"x": 1.0}, [("c", "x", ">", 0.0)],
                           artifacts={"m": {"file": "m.json", "sha256": "0"}})

    def refuse(*args, **kwargs):
        raise AssertionError("filesystem call")

    for name in ("open", "stat", "lstat", "readlink", "getcwd"):
        monkeypatch.setattr(os, name, refuse)
    report = recheck_certificate(doc)
    monkeypatch.undo()
    assert report["artifacts_missing"] == ["m"]
    with pytest.raises(SchemaViolation, match="free of '..'"):
        recheck_certificate(dict(doc, artifacts={
            "m": {"file": "../m.json", "sha256": "0"}}))


def test_recheck_refuses_an_int_too_large_for_a_float():
    doc = json.loads(certificate_bytes(demo_certificate()))
    doc["quantities"]["volume"] = 10 ** 400
    with pytest.raises(SchemaViolation, match="quantity volume must be finite"):
        recheck_certificate(doc)


def test_recheck_refuses_a_device_as_certificate():
    # a character device is checked after the open, before any read
    with pytest.raises(SchemaViolation, match="is not a regular file"):
        recheck_certificate(os.devnull)
    with pytest.raises(SchemaViolation, match="is not a regular file"):
        load_certificate(os.devnull)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_recheck_refuses_a_fifo_without_waiting(tmp_path):
    os.mkfifo(tmp_path / "fifo.cert.json")
    src = Path(neckforge.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from neckforge.cli import main; "
         "sys.exit(main(['recheck', 'fifo.cert.json']))"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "error: SchemaViolation: certificate: fifo.cert.json "
        "is not a regular file"]
