"""Seeded inputs for each workload and the calls that run one input.

Inputs come in blocks. A block holds one cell per slot of the workload
(a grid density and construction, or a CLI command), in a
seeded order. Each slot draws its parameters from its own additive
recurrence frac(offset + k * alpha) (the R_d sequence of Roberts, 2018)
with a seeded offset, so any run of consecutive blocks covers the
slot's parameter box almost evenly. A run measures whole blocks, so
every run sees the same mix of slots, and the seed moves only where in
each box the points fall.

The program only ever sees the generated parameters: public pipeline
functions for the in-memory workloads, ``neckforge.cli.main`` argument
lists for the artifact round trip.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

GRID_DENSITIES = (1.0, 2.0, 4.0, 8.0)
SURGERY_FACTORS = ((1, 3), (1, 4), (2, 3), (2, 4))
PRODUCT_FACTORS = ((1, 2), (2, 2), (1, 3), (2, 3))


def _unit_sphere_volume(n: int) -> float:
    return 2.0 * math.pi ** (0.5 * (n + 1)) / math.gamma(0.5 * (n + 1))


def _recurrence(rng: random.Random, dims: int):
    """Endless points in [0, 1)^dims from R_d with a seeded offset."""
    g = 2.0
    for _ in range(60):  # g is the positive root of x^(dims+1) = x + 1
        g = (1.0 + g) ** (1.0 / (dims + 1))
    alpha = [g ** -(i + 1) for i in range(dims)]
    offset = [rng.random() for _ in range(dims)]
    k = 0
    while True:
        yield [(o + k * a) % 1.0 for o, a in zip(offset, alpha)]
        k += 1


def _pick(u: float, choices):
    return choices[int(u * len(choices))]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _uniform(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * u


# -- slots ---------------------------------------------------------------
# each slot maps one point of its recurrence to one input

def _tunnel(gd):
    def cell(u):
        n = _pick(u[0], (3, 4, 5))
        return {"call": "tunnel_certificate", "args": {
            "dim": n, "curvature": float(n * (n - 1)),
            "tube_radius": _uniform(u[1], 0.03, 0.2),
            "length": _uniform(u[2], 0.0, 4.0),
            "sharpness": _log_uniform(u[3], 1e2, 1e6),
            "grid_density": gd}}
    return 4, cell


def _surgery(gd):
    def cell(u):
        p, q = _pick(u[0], SURGERY_FACTORS)
        return {"call": "surgery_certificate", "args": {
            "base_dim": p, "slice_dim": q,
            "tube_radius": _uniform(u[1], 0.03, 0.2), "grid_density": gd}}
    return 2, cell


def _command(dims, make):
    def cell(u):
        return {"argv": [a if isinstance(a, str) else repr(a)
                         for a in make(u)]}
    return dims, cell


def _flags(names, values):
    return [x for pair in zip(names, values) for x in pair]


def _four_sphere_volume(u: float, n: int) -> float:
    # cor-v chains m = 2 (floor(V / omega) + 1) unit spheres; m = 4 here
    return _uniform(u, 1.3, 1.95) * _unit_sphere_volume(n)


SLOTS = {
    "neck-sweep": [make(gd) for gd in GRID_DENSITIES
                   for make in (_tunnel, _surgery)],
    "artifact-roundtrip": [
        _command(4, lambda u: [
            "build-tunnel", "--n", _pick(u[0], (3, 4, 5)),
            "--kappa", _pick(u[0], (6, 12, 20)),
            "--delta", _uniform(u[1], 0.03, 0.2),
            "--length", _uniform(u[2], 0.0, 4.0),
            "--j", _log_uniform(u[3], 1e2, 1e6)]),
        _command(2, lambda u: [
            "surgery", *_flags(("--p", "--q"), _pick(u[0], SURGERY_FACTORS)),
            "--delta", _uniform(u[1], 0.03, 0.2)]),
        _command(2, lambda u: [
            "pipeline", "main-a", "--n", _pick(u[0], (3, 4)),
            "--ingredient-radius", _uniform(u[1], 0.3, 0.95)]),
        _command(2, lambda u: [
            "pipeline", "cor-d", "--n", _pick(u[0], (3, 4)),
            "--d", _uniform(u[1], 2.0, 12.0)]),
        _command(1, lambda u: [
            "pipeline", "cor-t",
            *_flags(("--p", "--q"), _pick(u[0], PRODUCT_FACTORS))]),
        _command(2, lambda u: [
            "pipeline", "cor-v", "--n", _pick(u[0], (3, 4)),
            "--volume", _four_sphere_volume(u[1], _pick(u[0], (3, 4)))]),
        _command(3, lambda u: [
            "pipeline", "main-b-budget", "--n", _pick(u[0], (3, 4)),
            "--eps", _uniform(u[1], 0.02, 0.08),
            "--d", _uniform(u[2], 2.0, 10.0)]),
    ],
}


# fixed, seed-independent input for the untimed warm-up build
WARMUP = {
    "neck-sweep": {"call": "tunnel_certificate", "args": {}},
    "artifact-roundtrip": {"argv": ["build-tunnel"]},
}


def inputs(workload: str, seed: int):
    """Endless stream of (block index, input) for one workload and seed."""
    rng = random.Random(f"neckforge-bench/{workload}/{seed}")
    slots = [(_recurrence(rng, dims), cell) for dims, cell in SLOTS[workload]]
    block = 0
    while True:
        cells = [cell(next(points)) for points, cell in slots]
        rng.shuffle(cells)
        for cell in cells:
            yield block, cell
        block += 1


# -- running one input ---------------------------------------------------

@dataclass
class Outcome:
    """What one input produced, as the benchmark checked it."""

    kind: str  # PASS, INCONCLUSIVE, FAIL, an error type, crash:<type>, ...
    build_s: float
    verify_s: float = 0.0
    certificate: bytes | None = None
    artifact_bytes: int = 0
    pieces: int = 0
    distinct_pieces: int = 0
    problems: list = field(default_factory=list)  # wrong outputs only


def _profile_key(profile) -> bytes:
    # every field the fingerprint's canonical bytes are derived from;
    # %.17g round-trips floats, so equal keys mean equal fingerprints
    h = hashlib.sha256(repr((profile.kind, profile.component_dims,
                             profile.closed_start, profile.closed_end,
                             profile.boundary_jets("start"),
                             profile.boundary_jets("end"))).encode())
    h.update(profile.grid.tobytes())
    for values in ((profile.values,) if profile.kind == "warped"
                   else (profile.values_a, profile.values_b)):
        h.update(values.tobytes())
    return h.digest()


def _count_pieces(outcome: Outcome, assemblies) -> None:
    keys: dict = {}
    for assembly in assemblies.values():
        for piece in assembly.pieces:
            outcome.pieces += 1
            if id(piece.profile) not in keys:
                keys[id(piece.profile)] = _profile_key(piece.profile)
    outcome.distinct_pieces = len(set(keys.values()))


def run_in_memory(nf, cell: dict, count_pieces: bool = False) -> Outcome:
    """Build through a public pipeline function, then recheck the bytes."""
    t0 = perf_counter()
    try:
        result = getattr(nf.pipelines, cell["call"])(**cell["args"])
    except nf.errors.NeckforgeError as exc:
        return Outcome(type(exc).__name__, perf_counter() - t0)
    except Exception as exc:  # counted as a crash, the run goes on
        return Outcome(f"crash:{type(exc).__name__}", perf_counter() - t0)
    t1 = perf_counter()
    data = nf.certificate.certificate_bytes(result.certificate)
    out = Outcome(result.status, t1 - t0, certificate=data,
                  artifact_bytes=len(data))
    try:
        doc = json.loads(data)
        if nf.certificate.certificate_bytes(doc) != data:
            raise nf.errors.SchemaViolation("bytes are not canonical")
        report = nf.certificate.recheck_certificate(doc)
    except nf.errors.NeckforgeError as exc:
        out.kind = "recheck_rejected"
        out.problems.append(repr(exc))
    else:
        if report["status"] != result.status:
            out.problems.append(f"recheck status {report['status']} != "
                                f"built status {result.status}")
    out.verify_s = perf_counter() - t1
    if count_pieces:
        _count_pieces(out, result.assemblies)
    return out


def _cli(nf, argv: list) -> tuple[int | None, str]:
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            return nf.cli.main(argv), err.getvalue()
    except SystemExit as exc:  # argparse refused the arguments
        return None, f"{err.getvalue()}SystemExit({exc.code})"


def run_roundtrip(nf, cell: dict, workdir: Path) -> Outcome:
    """CLI build with files, then the reader step, then delete the files.

    The reader runs ``recheck`` and reloads every piece file that each
    manifest lists, matching the reloaded fingerprint to the manifest:
    recheck alone hashes only the manifests.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cert = workdir / "cert.json"
    argv = cell["argv"] + ["--out", str(cert),
                           "--profiles-dir", str(workdir / "profiles")]
    try:
        t0 = perf_counter()
        try:
            code, err = _cli(nf, argv)
        except Exception as exc:  # counted as a crash, the run goes on
            return Outcome(f"crash:{type(exc).__name__}", perf_counter() - t0)
        t1 = perf_counter()
        if code == 2 and err.startswith("error: "):
            return Outcome(err[7:].split(":", 1)[0], t1 - t0)
        if code not in (0, 1) or not cert.exists():
            return Outcome(f"cli_exit_{code}", t1 - t0)
        data = cert.read_bytes()
        doc = json.loads(data)
        out = Outcome(doc["status"], t1 - t0, certificate=data)
        if (code == 0) != (doc["status"] == "PASS"):
            out.kind = "cli_exit_mismatch"
            out.problems.append(f"exit code {code} with status {doc['status']}")
        recheck_code, err = _cli(nf, ["recheck", str(cert)])
        if recheck_code != code:
            out.kind = "recheck_rejected"
            out.problems.append(f"recheck exit {recheck_code}: {err}")
        for artifact in doc["artifacts"].values():
            manifest_path = workdir / artifact["file"]
            manifest = json.loads(manifest_path.read_bytes())
            for piece in manifest["pieces"]:
                profile = nf.profiles.load_profile_csv(
                    manifest_path.parent / piece["file"])
                if profile.fingerprint() != piece["fingerprint"]:
                    out.kind = "fingerprint_mismatch"
                    out.problems.append(f"{piece['file']} fingerprint")
            out.pieces += len(manifest["pieces"])
            out.distinct_pieces += len({p["fingerprint"]
                                        for p in manifest["pieces"]})
        out.verify_s = perf_counter() - t1
        out.artifact_bytes = sum(f.stat().st_size
                                 for f in workdir.rglob("*") if f.is_file())
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_input(nf, workload: str, cell: dict, workdir: Path,
              count_pieces: bool = False) -> Outcome:
    if workload == "artifact-roundtrip":
        return run_roundtrip(nf, cell, workdir)
    return run_in_memory(nf, cell, count_pieces)
