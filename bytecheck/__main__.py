"""Command line of the byte oracle; see the package docstring."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the README's command line, in order, in one directory (with the
# --profiles-dir that its CI step gives the first cor-v chain)
README_COMMANDS = [
    ["build-tunnel", "--n", "3", "--kappa", "6", "--delta", "0.1",
     "--length", "2", "--j", "100", "--out", "tunnel.cert.json",
     "--profiles-dir", "profiles"],
    ["recheck", "tunnel.cert.json"],
    ["surgery", "--p", "1", "--q", "3", "--delta", "0.05", "--body", "1,1",
     "--out", "surgery.cert.json"],
    ["recheck", "surgery.cert.json"],
    ["pipeline", "main-a", "--n", "3", "--ingredient-radius", "0.8"],
    ["pipeline", "cor-d", "--n", "3", "--d", "10"],
    ["pipeline", "cor-t", "--p", "2", "--q", "2"],
    ["pipeline", "cor-v", "--n", "3", "--volume", "60",
     "--profiles-dir", "chain8"],
    ["pipeline", "cor-v", "--n", "3", "--volume", "190",
     "--out", "chain20.cert.json", "--profiles-dir", "chain20"],
    ["recheck", "chain20.cert.json"],
    ["pipeline", "main-b-budget", "--n", "3", "--eps", "0.05"],
]
NECK_SWEEP_SEEDS = (1, 2)
NECK_SWEEP_INPUTS = 32  # perfbench's cert_digest prefix for neck-sweep
ROUNDTRIP_SEED = 1
ROUNDTRIP_INPUTS = 14  # and for artifact-roundtrip
MEMORY = "<memory>"  # the file name of a certificate that was not written


def load():
    """neckforge from this checkout's src/, and perfbench's workloads."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    nf = importlib.import_module("neckforge")
    for name in ("certificate", "cli", "errors", "models", "pipelines"):
        importlib.import_module(f"neckforge.{name}")
    return nf, importlib.import_module("perfbench.workloads")


def golden_builds(nf):
    """(in-memory builds, written builds) of tests/test_pipelines.py's
    GOLDEN_CERTIFICATE_DIGESTS and GOLDEN_ARTIFACT_DIGESTS."""
    p = nf.pipelines
    unit3 = nf.models.unit_sphere_volume(3)
    memory = {
        "tunnel-3": lambda: p.tunnel_certificate(3, sharpness=100.0,
                                                 grid_density=1.0),
        "tunnel-4": lambda: p.tunnel_certificate(4, sharpness=1e4,
                                                 grid_density=2.0, length=0.0),
        "surgery-1-3": lambda: p.surgery_certificate(1, 3, 0.05),
        "surgery-2-4": lambda: p.surgery_certificate(2, 4, 0.05),
    }
    written = {
        "tunnel": lambda **f: p.tunnel_certificate(3, sharpness=100.0, **f),
        "surgery": lambda **f: p.surgery_certificate(1, 3, 0.05, **f),
        "surgery-2-4": lambda **f: p.surgery_certificate(2, 4, 0.05, **f),
        "chain": lambda **f: p.sphere_chain_certificate(1.5 * unit3, 3, **f),
        "hemisphere": lambda **f: p.attach_hemisphere(
            p.round_sphere_ingredient(3, 0.5), diameter_target=10.0, **f),
        "product": lambda **f: p.attach_product_ingredient(
            1, 2, factor_radius=10.0, **f),
        "budget": lambda **f: p.verify_volume_budget(
            p.hemisphere_standin(3, declared_volume=0.5 * unit3), 0.05, **f),
    }
    return memory, written


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fields(value, path: str = "", out: dict | None = None) -> dict:
    """Every leaf of a JSON document by its path; a list entry that has a
    string name (a claim) is keyed by it, any other by its index."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for key, item in value.items():
            fields(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            name = item.get("name") if isinstance(item, dict) else None
            fields(item, f"{path}[{name if isinstance(name, str) else i}]",
                   out)
    else:
        out[path] = value
    return out


def certificate_entry(data: bytes) -> dict:
    return {"sha256": sha256(data), "role": "certificate",
            "fields": fields(json.loads(data))}


def piece_roles(root: Path) -> dict:
    """The placement roles of each piece file that a manifest lists (its
    own role in manifests before format 3, which have no placements)."""
    roles: dict = {}
    for manifest in root.rglob("assembly.json"):
        doc = json.loads(manifest.read_bytes())
        placed: dict = {}
        for placement in doc.get("placements", []):
            placed.setdefault(placement["piece"], set()).add(placement["role"])
        for i, piece in enumerate(doc["pieces"]):
            rel = (manifest.parent / piece["file"]).relative_to(root)
            roles.setdefault(rel.as_posix(), set()).update(
                placed.get(i, [piece.get("role", "other")]))
    return {rel: "+".join(sorted(r)) for rel, r in roles.items()}


def tree(root: Path) -> dict:
    """sha256 and role of every file below root, and the fields of every
    JSON file."""
    roles = piece_roles(root)
    files = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        data = path.read_bytes()
        if path.name == "assembly.json":
            entry = {"sha256": sha256(data), "role": "manifest",
                     "fields": fields(json.loads(data))}
        elif path.suffix == ".json":
            entry = certificate_entry(data)
        else:
            entry = {"sha256": sha256(data), "role": roles.get(rel, "other")}
        files[rel] = entry
    return files


def cli(nf, argv: list) -> tuple:
    """(exit code, the lines printed) of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = nf.cli.main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            code = f"SystemExit({exc.code})"
    return code, out.getvalue().splitlines()


def record(nf, workloads) -> dict:
    """Build the corpus; the record of every run and the versions."""
    runs = {}
    memory, written = golden_builds(nf)
    for name, build in memory.items():
        result = build()
        runs[f"golden/{name}"] = {"status": result.status, "files": {
            MEMORY: certificate_entry(
                nf.certificate.certificate_bytes(result.certificate))}}
    for name, build in written.items():
        with tempfile.TemporaryDirectory() as tmp:
            result = build(certificate_path=Path(tmp, "cert.json"),
                           profiles_dir=Path(tmp, "files"))
            runs[f"golden-files/{name}"] = {"status": result.status,
                                            "files": tree(Path(tmp))}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for i, argv in enumerate(README_COMMANDS):
                code, output = cli(nf, argv)
                runs[f"readme/{i:02d} {' '.join(argv[:2])}"] = {
                    "exit": code, "output": output}
        finally:
            os.chdir(here)
        runs["readme/tree"] = {"files": tree(Path(tmp))}
    stream = workloads.inputs("artifact-roundtrip", ROUNDTRIP_SEED)
    for i in range(ROUNDTRIP_INPUTS):
        _, cell = next(stream)
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                run = f"artifact-roundtrip/{ROUNDTRIP_SEED}/{i:02d}"
                code, output = cli(nf, cell["argv"] + [
                    "--out", "cert.json", "--profiles-dir", "profiles"])
                runs[run] = {"input": cell, "exit": code, "output": output}
                code, output = cli(nf, ["recheck", "cert.json"])
                runs[f"{run} recheck"] = {"exit": code, "output": output}
            finally:
                os.chdir(here)
            runs[run]["files"] = tree(Path(tmp))
    for seed in NECK_SWEEP_SEEDS:
        stream = workloads.inputs("neck-sweep", seed)
        for i in range(NECK_SWEEP_INPUTS):
            _, cell = next(stream)
            outcome = workloads.run_in_memory(nf, cell)
            run = {"input": cell, "status": outcome.kind,
                   "problems": outcome.problems, "files": {}}
            if outcome.certificate is not None:
                run["files"][MEMORY] = certificate_entry(outcome.certificate)
            runs[f"neck-sweep/{seed}/{i:02d}"] = run
    import numpy
    import scipy
    return {"versions": {"python": platform.python_version(),
                         "numpy": numpy.__version__,
                         "scipy": scipy.__version__,
                         "machine": platform.machine()},
            "runs": runs}


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _relative(a, b):
    if not (_number(a) and _number(b)):
        return None
    scale = max(abs(a), abs(b))
    return abs(b - a) / scale if scale else 0.0


def diff(a: dict, b: dict) -> tuple[list[str], bool]:
    """The report lines of everything that moved from record a to b, and
    whether anything did."""
    absent = object()
    moved, files, other = [], {}, []
    runs_a, runs_b = a["runs"], b["runs"]
    for run in sorted(set(runs_a) | set(runs_b)):
        if run not in runs_a or run not in runs_b:
            other.append(f"{run}: only in {'B' if run in runs_b else 'A'}")
            continue
        ra, rb = runs_a[run], runs_b[run]
        for key in ("input", "status", "problems", "exit"):
            if ra.get(key) != rb.get(key):
                other.append(f"{run}: {key} {ra.get(key)!r} -> {rb.get(key)!r}")
        out_a, out_b = ra.get("output", []), rb.get("output", [])
        if out_a != out_b:
            other.append("\n    ".join(
                [f"{run}: output moved"]
                + [f"- {line}" for line in out_a if line not in out_b]
                + [f"+ {line}" for line in out_b if line not in out_a]))
        fa, fb = ra.get("files", {}), rb.get("files", {})
        for name in sorted(set(fa) | set(fb)):
            if name not in fa or name not in fb:
                side = "B" if name in fb else "A"
                files.setdefault((fa.get(name) or fb[name])["role"], []).append(
                    f"{run}: {name} (only in {side})")
                continue
            ea, eb = fa[name], fb[name]
            if ea["sha256"] != eb["sha256"]:
                files.setdefault(eb["role"], []).append(f"{run}: {name}")
            xa, xb = ea.get("fields", {}), eb.get("fields", {})
            for key in sorted(set(xa) | set(xb)):
                va, vb = xa.get(key, absent), xb.get(key, absent)
                if type(va) is not type(vb) or va != vb:
                    moved.append((run, name, eb["role"], key, va, vb))
    lines = []
    if a["versions"] != b["versions"]:
        lines.append(f"versions: {a['versions']} -> {b['versions']}")
    rels = [r for r in (_relative(m[4], m[5]) for m in moved) if r is not None]
    lines.append(f"moved fields: {len(moved)}" + (
        f", largest relative change {max(rels):.3g}" if rels else ""))
    summary: dict = {}
    for run, name, role, key, va, vb in moved:
        rel = _relative(va, vb)
        show = lambda v: "(absent)" if v is absent else repr(v)  # noqa: E731
        lines.append(f"  {run}  {name}  {key}  {show(va)} -> {show(vb)}"
                     + ("" if rel is None
                        else f"  change {vb - va:+.3g}  rel {rel:.3g}"))
        group = summary.setdefault((role, re.sub(r"\[\d+\]", "[]", key)),
                                   [0, None])
        group[0] += 1
        if rel is not None:
            group[1] = max(group[1] or 0.0, rel)
    if summary:
        lines.append("moved fields by file role and path:")
        for (role, key), (count, rel) in sorted(summary.items()):
            lines.append(f"  {role}  {key}  {count}"
                         + ("" if rel is None else f"  largest rel {rel:.3g}"))
    lines.append(f"moved files: {sum(len(v) for v in files.values())}")
    for role in sorted(files):
        lines.append(f"  {role} ({len(files[role])})")
        lines.extend(f"    {entry}" for entry in files[role])
    lines.append(f"other moves: {len(other)}")
    lines.extend(f"  {line}" for line in other)
    return lines, bool(moved or files or other)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m bytecheck",
        description="Record the bytes a fixed corpus of builds produces, "
                    "or diff two records.")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("record", help="build the corpus, write a record").add_argument(
        "out", type=Path)
    differ = sub.add_parser("diff", help="list what moved from A to B; "
                                         "exit 1 if anything did")
    differ.add_argument("a", type=Path)
    differ.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    if args.command == "record":
        args.out.write_text(json.dumps(record(*load()), indent=1,
                                       sort_keys=True) + "\n")
        return 0
    lines, moved = diff(json.loads(args.a.read_text()),
                        json.loads(args.b.read_text()))
    print("\n".join(lines))
    return int(moved)


if __name__ == "__main__":
    sys.exit(main())
