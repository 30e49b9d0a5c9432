"""Machine-checkable certificates with a canonical byte encoding.

A certificate is a JSON document whose serialization is a pure function
of its content: keys sorted, floats rendered as 13-significant-digit
scientific notation, two-space indentation, no timestamps and no
environment-dependent fields. Rebuilding the same construction therefore
yields byte-identical files, and any edit to a stored certificate is
detectable by re-serializing.

Claims are double-entry: every claim names the quantity it constrains
(lhs_ref) and also embeds the value it saw (lhs_value), which must equal
quantities[lhs_ref] exactly. The margin and status are stored too, and
recheck recomputes both from the stored numbers. All claim-relevant
numbers are rounded to the serializer's 13 significant digits at build
time, so a built document is a fixed point of serialization and the
margin recomputation has a unique right answer: recheck demands exact
float equality, leaving no wiggle room in any digit. Verdicts are three
valued: PASS needs the margin to clear the tolerance (default 1e-9),
FAIL needs it to miss by the tolerance, and anything closer is
INCONCLUSIVE; too close to call is never rounded up to a pass.

The serializer renders the exact built-in types float, str, dict, list,
tuple, int, bool and None without an abstract type test; numpy scalars,
subclasses and anything it refuses (np.bool_ among them) take the
numbers.Integral / numbers.Real chain, with the same bytes and the same
errors. Non-string keys, non-finite numbers and nesting deeper than the
interpreter's recursion limit are SchemaViolation, in the serializer and
in the parse. A certificate file is read once, through one descriptor
opened without blocking, and must be a regular file: a FIFO or a device
is refused, never waited on or read without end.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import stat
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from pathlib import Path, PurePath

from . import __version__
from .errors import ParameterOutOfRange, SchemaViolation

__all__ = [
    "DEFAULT_TOLERANCE",
    "make_certificate",
    "certificate_bytes",
    "write_certificate",
    "load_certificate",
    "recheck_certificate",
]

DEFAULT_TOLERANCE = 1e-9

_OPS = (">", ">=", "<", "<=")
_STATUSES = ("PASS", "FAIL", "INCONCLUSIVE")
_TOP_KEYS = {"format_version", "kind", "parameters", "quantities", "claims",
             "artifacts", "provenance", "library_version", "status"}
_CLAIM_KEYS = {"name", "lhs_ref", "lhs_value", "op", "rhs_ref", "rhs_value",
               "margin", "tolerance", "status"}


def _canon(value, pad: str) -> str:
    """The canonical text of value, nested under the indentation pad.

    The exact built-in types a certificate is made of (float, str, dict,
    list, tuple, int, bool and None) are rendered first, with no abstract
    type test; keys and strings are quoted by json's C encoder, which is
    what json.dumps calls for a str. Anything else (numpy scalars,
    subclasses) takes the abstract-type chain at the end, which refuses
    what it cannot render.
    """
    kind = type(value)
    if kind is float:
        if not math.isfinite(value):
            raise SchemaViolation(
                "certificates must not contain non-finite numbers")
        return format(value, ".12e")
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is dict:
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise SchemaViolation("certificate object keys must be strings")
        inner = pad + "  "
        items = [f"{inner}{encode_basestring_ascii(key)}: "
                 f"{_canon(value[key], inner)}" for key in sorted(value)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        items = [inner + _canon(x, inner) for x in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if kind is int:
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, dict):
        return _canon({key: value[key] for key in value}, pad)
    if isinstance(value, (list, tuple)):
        return _canon(list(value), pad)
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return _canon(float(value), pad)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    raise SchemaViolation(
        f"unsupported value type {type(value).__name__} in certificate")


def certificate_bytes(doc: dict) -> bytes:
    """Canonical serialization; the byte-identity anchor for rechecks."""
    try:
        text = _canon(doc, "")
    except RecursionError:
        raise SchemaViolation("certificate nesting is too deep") from None
    return (text + "\n").encode("ascii")


def _as_float(value) -> float:
    """float(value), with an int too large for a float read as inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _round12(value) -> float:
    # the serializer's float precision; idempotent since 13 < 15 digits
    return float(format(_as_float(value), ".12e"))


def _status_for(margin: float, tolerance: float) -> str:
    if margin >= tolerance:
        return "PASS"
    if margin <= -tolerance:
        return "FAIL"
    return "INCONCLUSIVE"


def _aggregate(statuses) -> str:
    statuses = list(statuses)
    if any(s == "FAIL" for s in statuses):
        return "FAIL"
    if any(s == "INCONCLUSIVE" for s in statuses):
        return "INCONCLUSIVE"
    return "PASS"


def make_certificate(kind: str, parameters: dict, quantities: dict, claims,
                     *, provenance: dict | None = None,
                     artifacts: dict | None = None,
                     tolerance: float = DEFAULT_TOLERANCE) -> dict:
    """Assemble a certificate document.

    claims is an iterable of (name, lhs_ref, op, rhs) tuples; rhs is
    either a number or the name of another quantity. Every claim stores
    the one tolerance. Margins are
    oriented so that positive always means the claim holds: lhs - rhs for
    ">" and ">=", rhs - lhs otherwise. Quantities, bounds, tolerances and
    margins are rounded to the canonical 13 significant digits here, so
    the returned document survives a write/load cycle unchanged.
    """
    if not tolerance > 0.0:
        raise ParameterOutOfRange("tolerance must be positive")
    tol = _round12(tolerance)
    clean = {}
    for key, val in quantities.items():
        if isinstance(val, bool) or not isinstance(val, numbers.Real):
            raise ParameterOutOfRange(f"quantity {key} must be a number")
        if not math.isfinite(_as_float(val)):
            raise SchemaViolation(f"quantity {key} is not finite")
        clean[str(key)] = (int(val) if isinstance(val, numbers.Integral)
                           else _round12(val))
    quantities = clean
    claim_docs = []
    for name, lhs_ref, op, rhs in claims:
        if op not in _OPS:
            raise ParameterOutOfRange(f"unsupported comparison {op!r}")
        if lhs_ref not in quantities:
            raise ParameterOutOfRange(f"claim {name}: unknown quantity {lhs_ref!r}")
        lhs_value = float(quantities[lhs_ref])
        if isinstance(rhs, str):
            if rhs not in quantities:
                raise ParameterOutOfRange(f"claim {name}: unknown quantity {rhs!r}")
            rhs_ref, rhs_value = rhs, float(quantities[rhs])
        else:
            rhs_ref, rhs_value = None, _round12(rhs)
        margin = _round12(lhs_value - rhs_value if op in (">", ">=")
                          else rhs_value - lhs_value)
        claim_docs.append({
            "name": str(name),
            "lhs_ref": lhs_ref,
            "lhs_value": lhs_value,
            "op": op,
            "rhs_ref": rhs_ref,
            "rhs_value": rhs_value,
            "margin": margin,
            "tolerance": tol,
            "status": _status_for(margin, tol),
        })
    doc = {
        "format_version": 1,
        "kind": str(kind),
        "parameters": dict(parameters),
        "quantities": quantities,
        "claims": claim_docs,
        "artifacts": dict(artifacts) if artifacts else {},
        "provenance": dict(provenance) if provenance else {},
        "library_version": __version__,
        "status": _aggregate(c["status"] for c in claim_docs),
    }
    certificate_bytes(doc)  # fail fast on unserializable content
    return doc


@contextmanager
def _incoming(directory):
    """A new, uniquely named empty file in directory, world-readable as a
    plain write leaves it, for the block to fill and os.replace over its
    target; it is removed if the block leaves it behind, as a failed
    write or replace does."""
    import tempfile  # writers only: recheck does not load it
    fd, path = tempfile.mkstemp(dir=directory, prefix=".incoming-")
    try:
        os.fchmod(fd, 0o644)
        os.close(fd)
        yield path
    finally:
        Path(path).unlink(missing_ok=True)


def write_certificate(doc: dict, path) -> str:
    """Write canonical bytes, replacing a link at path; returns sha256."""
    data = certificate_bytes(doc)
    with _incoming(Path(path).parent) as incoming:
        Path(incoming).write_bytes(data)
        os.replace(incoming, path)
    return hashlib.sha256(data).hexdigest()


def _parse(data: bytes):
    try:
        return json.loads(data.decode("ascii"))
    except ValueError as exc:  # UnicodeDecodeError included
        raise SchemaViolation(
            f"certificate is not well-formed JSON: {exc}") from exc
    except RecursionError:
        raise SchemaViolation("certificate nesting is too deep") from None


def load_certificate(path) -> dict:
    return _parse(_read_regular(Path(path), "certificate"))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaViolation(message)


def _check_number(value, where: str) -> float:
    kind = type(value)
    if kind is not float:
        _require(kind is int or (isinstance(value, numbers.Real)
                                 and not isinstance(value, bool)),
                 f"{where} must be a number")
        value = _as_float(value)
    _require(math.isfinite(value), f"{where} must be finite")
    return value


def _read_regular(path: Path, what: str) -> bytes:
    """The bytes of the regular file at path, read through one open file.

    The file is opened without blocking and checked before it is read,
    so a FIFO or a device is refused, not waited on or read without end.
    A missing path or a directory raises the OSError of its open.
    """
    def nonblocking(name, flags: int) -> int:
        return os.open(name, flags | os.O_NONBLOCK)

    with open(path, "rb", opener=nonblocking) as file:
        _require(stat.S_ISREG(os.fstat(file.fileno()).st_mode),
                 f"{what}: {path} is not a regular file")
        return file.read()


def _read_below(root: Path | None, path: PurePath, what: str) -> bytes | None:
    """The bytes of the regular file root / path, None without a root or a
    file there. The one rule for a path a certificate or manifest names:
    relative, free of "..", and not resolving outside root, which is
    refused before anything is opened."""
    _require(not path.is_absolute() and ".." not in path.parts,
             f"{what}: path {str(path)!r} must be relative and free of '..'")
    if root is None:
        return None
    resolved = (root / path).resolve()
    _require(resolved.is_relative_to(root), f"{what}: {path} leaves {root}")
    try:
        return _read_regular(resolved, what)
    except FileNotFoundError:
        return None
    except IsADirectoryError:
        raise SchemaViolation(f"{what}: {path} is not a regular file") from None


def _manifest_pieces(data: bytes) -> list:
    """The pieces an assembly manifest lists; none for other artifacts.

    data has already matched its certificate hash, so a file cannot stop
    being a manifest without failing that check first. Manifests of
    format version 1 give each position its own file, version 2 a piece
    store; version 3 lists each stored piece once, and placements, each
    of which must name a pieces entry by index.
    """
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError):  # UnicodeDecodeError included
        return []
    if not isinstance(doc, dict) or "pieces" not in doc:
        return []
    version = doc.get("format_version")
    _require(version in (1, 2, 3), "unsupported manifest format_version")
    pieces = doc["pieces"]
    _require(isinstance(pieces, list) and all(
        isinstance(p, dict) and isinstance(p.get("file"), str)
        and isinstance(p.get("fingerprint"), str) for p in pieces),
        "manifest pieces must each name a file and a fingerprint")
    _require(version < 3 or isinstance(doc.get("placements"), list) and all(
        isinstance(p, dict) and type(p.get("piece")) is int
        and 0 <= p["piece"] < len(pieces) for p in doc["placements"]),
        "manifest placements must each name a pieces entry by index")
    return pieces


def recheck_certificate(source) -> dict:
    """Validate a certificate's schema and internal consistency.

    source is a path or a loaded document. A path is read once: a missing
    path or a directory raises its OSError, a FIFO, a device or nesting
    too deep to parse is a SchemaViolation, and the bytes must equal the
    canonical re-serialization. The path's directory is the one root of
    the files it names. An artifact path, or a piece path relative to its
    manifest, must be relative, free of ".." and resolve inside the root,
    so a symlink out is refused before any open; only regular files are
    read. A present artifact must match its sha256, and a manifest
    (format version 1, 2 or 3) has each distinct piece file it lists
    hashed once against the fingerprint of every entry naming it. Absent
    files are reported missing, a piece file as "<artifact>/<file>", and
    so is every artifact of a document, which has no root: that path
    makes no filesystem call. Numbers must be an int, a float or another
    numbers.Real, never a bool, and finite (an int too large for a float
    is not). Raises SchemaViolation on any inconsistency; returns a
    report with the verified aggregate status.
    """
    doc, root = source, None
    if isinstance(source, (str, Path)):
        raw = _read_regular(Path(source), "certificate")
        doc = _parse(raw)
        _require(certificate_bytes(doc) == raw,
                 "stored bytes differ from the canonical serialization")
        root = Path(source).parent.resolve()
    _require(isinstance(doc, dict), "certificate must be a JSON object")
    if set(doc) != _TOP_KEYS:  # the message sorts: build it on failure only
        raise SchemaViolation(
            f"top-level keys must be exactly {sorted(_TOP_KEYS)}")
    _require(doc["format_version"] == 1, "unsupported format_version")
    _require(isinstance(doc["kind"], str), "kind must be a string")
    _require(isinstance(doc["library_version"], str),
             "library_version must be a string")
    for section in ("parameters", "quantities", "artifacts", "provenance"):
        _require(isinstance(doc[section], dict), f"{section} must be an object")
    quantities = {}
    for key, val in doc["quantities"].items():
        quantities[key] = _check_number(val, f"quantity {key}")
    _require(isinstance(doc["claims"], list), "claims must be a list")
    report_claims = []
    for i, claim in enumerate(doc["claims"]):
        where = f"claim #{i}"
        _require(isinstance(claim, dict), f"{where} must be an object")
        if set(claim) != _CLAIM_KEYS:
            raise SchemaViolation(
                f"{where} keys must be exactly {sorted(_CLAIM_KEYS)}")
        _require(isinstance(claim["name"], str), f"{where} name must be a string")
        _require(claim["op"] in _OPS, f"{where} has unsupported op")
        _require(claim["status"] in _STATUSES, f"{where} has unknown status")
        lhs_ref, rhs_ref = claim["lhs_ref"], claim["rhs_ref"]
        _require(isinstance(lhs_ref, str), f"{where} lhs_ref must be a string")
        _require(rhs_ref is None or isinstance(rhs_ref, str),
                 f"{where} rhs_ref must be a string or null")
        _require(lhs_ref in quantities, f"{where} references unknown {lhs_ref!r}")
        lhs = _check_number(claim["lhs_value"], f"{where} lhs_value")
        _require(lhs == quantities[lhs_ref],
                 f"{where}: lhs_value disagrees with quantities[{lhs_ref!r}]")
        rhs = _check_number(claim["rhs_value"], f"{where} rhs_value")
        if rhs_ref is not None:
            _require(rhs_ref in quantities,
                     f"{where} references unknown {rhs_ref!r}")
            _require(rhs == quantities[rhs_ref],
                     f"{where}: rhs_value disagrees with its reference")
        tol = _check_number(claim["tolerance"], f"{where} tolerance")
        _require(tol > 0.0, f"{where} tolerance must be positive")
        margin = _check_number(claim["margin"], f"{where} margin")
        expect = _round12(lhs - rhs if claim["op"] in (">", ">=") else rhs - lhs)
        _require(margin == expect,
                 f"{where}: stored margin {margin!r} does not match "
                 f"recomputed {expect!r}")
        _require(claim["status"] == _status_for(margin, tol),
                 f"{where}: status does not match margin and tolerance")
        report_claims.append({"name": claim["name"],
                              "status": claim["status"],
                              "margin": margin})
    _require(doc["status"] == _aggregate(c["status"] for c in doc["claims"]),
             "aggregate status does not match the claims")
    verified, missing = [], []
    for name, entry in doc["artifacts"].items():
        _require(isinstance(entry, dict) and set(entry) == {"file", "sha256"}
                 and isinstance(entry["file"], str),
                 f"artifact {name} must be {{file, sha256}} with a file path")
        path = PurePath(entry["file"])
        data = _read_below(root, path, f"artifact {name}")
        if data is None:
            missing.append(name)
            continue
        _require(hashlib.sha256(data).hexdigest() == entry["sha256"],
                 f"artifact {name}: file content does not match fingerprint")
        digests = {}  # each listed file is read and hashed once
        for piece in _manifest_pieces(data):
            file = piece["file"]
            if file not in digests:
                piece_data = _read_below(root, path.parent / file,
                                         f"artifact {name}: piece {file}")
                digests[file] = (None if piece_data is None
                                 else hashlib.sha256(piece_data).hexdigest())
                if digests[file] is None:
                    missing.append(f"{name}/{file}")
            _require(digests[file] in (None, piece["fingerprint"]),
                     f"artifact {name}: piece {file} does not match "
                     f"its fingerprint")
        verified.append(name)
    return {
        "status": doc["status"],
        "kind": doc["kind"],
        "n_claims": len(doc["claims"]),
        "claims": report_claims,
        "artifacts_verified": verified,
        "artifacts_missing": missing,
    }
