"""neckforge benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload neck-sweep --seed 1 --seconds 50 --trace 0

Runs from the root of a source checkout and imports neckforge from its
``src/``. One caller drives a closed loop: the next input starts when the
previous one has been built and checked. Inputs come from the seed alone
(see workloads.py); the loop measures whole input blocks until
``--seconds`` have passed. BLAS/OpenMP pools are pinned to one thread
before numpy loads.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` builds every
input twice, untraced and then traced, requires byte-identical
certificates, prints the per-layer metrics and writes the spans to
``perfbench/out/``. ``--smoke`` runs exactly three inputs. The last line
of standard output is the result object; the line before it reports the
machine, versions, outcome tallies and the certificate digest.
"""

import os

THREAD_PINNING = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINNING)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
SMOKE_INPUTS = 3
# certificates folded into cert_digest: a prefix of the input stream that
# a full run completes in well under half of its time
DIGEST_BUILDS = {"neck-sweep": 32, "artifact-roundtrip": 14}
# latency_tail_s percentile: the highest that leaves at least ten builds
# beyond it in a 50 s run at the commit that defined the benchmark. It is
# fixed, not recomputed per run, so that a faster program, which fits
# more builds into the run, is not measured at a higher percentile.
TAIL_PERCENTILE = {"neck-sweep": 95.0, "artifact-roundtrip": 70.0}
VERIFIED = ("PASS", "INCONCLUSIVE", "FAIL")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SLOTS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help=f"run exactly {SMOKE_INPUTS} inputs, whatever --seconds")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap


def load_neckforge():
    """Import neckforge from this checkout's src/, never from elsewhere."""
    if not (SRC / "neckforge" / "__init__.py").is_file():
        sys.exit(f"no neckforge sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    nf = importlib.import_module("neckforge")
    for name in ("cli", "certificate", "errors", "pipelines", "profiles"):
        importlib.import_module(f"neckforge.{name}")
    if Path(nf.__file__).resolve().parent != SRC / "neckforge":
        sys.exit(f"imported neckforge from {nf.__file__}, not from {SRC}")
    return nf


def _workdir() -> Path:
    return OUT / f"work-{os.getpid()}"


def _warm_up(nf, workload: str) -> None:
    outcome = workloads.run_input(nf, workload, workloads.WARMUP[workload],
                                  _workdir())
    if outcome.kind != "PASS" or outcome.problems:
        sys.exit(f"warm-up build failed: {outcome.kind} {outcome.problems}")


def measure_setup(workload: str, probes: int) -> list[float]:
    """Seconds from interpreter start to a warmed-up process, per probe.

    Each probe is a fresh interpreter that imports numpy, scipy and
    neckforge and runs the warm-up build, then prints the monotonic
    clock, which Linux shares between processes.
    """
    samples = []
    for _ in range(probes):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            sys.exit(f"setup probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]) - start)
    return samples


def _machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model}


def _versions(nf) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "neckforge": nf.__version__}


def _tally(outcomes) -> dict:
    return dict(sorted(Counter(o.kind for o in outcomes).items()))


def _digest(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(o.certificate if o.certificate is not None
                 else f"<{o.kind}>\n".encode())
    return h.hexdigest()


def _tail(samples: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile of samples and how many samples lie beyond."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _loop(args, run_one) -> tuple[list, float, int]:
    """Closed loop over whole blocks; returns (results, seconds, blocks)."""
    results = []
    current = 0
    start = time.perf_counter()
    for index, (block, cell) in enumerate(
            workloads.inputs(args.workload, args.seed)):
        if args.smoke and index == SMOKE_INPUTS:
            break
        if block != current:
            if not args.smoke and time.perf_counter() - start >= args.seconds:
                break
            current = block
        results.append(run_one(index, cell))
    return results, time.perf_counter() - start, current + 1


def _end_to_end(args, nf, setup: list[float]) -> tuple[dict, dict, list]:
    workdir = _workdir()
    outcomes, wall, blocks = _loop(
        args, lambda i, cell: workloads.run_input(nf, args.workload, cell,
                                                  workdir))
    certified = [o for o in outcomes if o.kind in VERIFIED]
    verified = [o for o in outcomes if o.kind == "PASS" and not o.problems]
    pct = TAIL_PERCENTILE[args.workload]
    tail, beyond = _tail([o.build_s for o in outcomes], pct)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "certs_per_s": (len(verified) / wall, "1/s"),
        "latency_p50_s": (statistics.median(o.build_s for o in outcomes), "s"),
        "latency_tail_s": (tail, "s"),
        "verify_p50_s": (statistics.median(o.verify_s for o in certified)
                         if certified else 0.0, "s"),
        "artifact_bytes_per_cert": (
            statistics.fmean(o.artifact_bytes for o in certified)
            if certified else 0.0, "B"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "pass_ratio": (sum(o.kind == "PASS" for o in outcomes)
                       / len(outcomes), "ratio"),
    }
    report = {"blocks": blocks, "builds": len(outcomes),
              "measured_s": wall, "setup_samples_s": setup,
              "latency_tail_percentile": pct,
              "latency_samples": len(outcomes),
              "latency_samples_beyond_tail": beyond}
    return metrics, report, outcomes


def _per_layer(args, nf) -> tuple[dict, dict, list]:
    tracer = Tracer()
    workdir = _workdir()
    times = {"untraced": 0.0, "traced": 0.0}

    def run_both(index, cell):
        plain = workloads.run_input(nf, args.workload, cell, workdir)
        tracer.build = index
        tracer.install()
        try:
            traced = tracer.timed("bench.input", workloads.run_input)(
                nf, args.workload, cell, workdir, count_pieces=True)
        finally:
            tracer.uninstall()
        if (plain.certificate, plain.kind) != (traced.certificate, traced.kind):
            traced.problems.append("traced certificate differs from untraced")
        times["untraced"] += plain.build_s + plain.verify_s
        times["traced"] += traced.build_s + traced.verify_s
        return traced

    outcomes, wall, blocks = _loop(args, run_both)
    certs = len(outcomes)
    layers = tracer.layer_totals()
    counts = tracer.counts

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def seconds(name, key="s"):
        return layers.get(name, {}).get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    pieces = sum(o.pieces for o in outcomes)
    per_cert = {
        "bending.design_calls": calls("bending.design"),
        "bending.design_s": seconds("bending.design"),
        "bending.curve_nodes": counts["bending.curve_nodes"],
        "bending.verify_calls": calls("bending.verify"),
        "bending.verify_s": seconds("bending.verify"),
        "bending.segment_calls": calls("bending.segment"),
        "bending.segment_s": seconds("bending.segment"),
        "bending.piece_floor_s": seconds("bending.piece_floor"),
        "assembly.pieces": pieces,
        "assembly.sampled_floor_calls": calls("assembly.sampled_floor"),
        "assembly.sampled_floor_s": seconds("assembly.sampled_floor"),
        "assembly.collar_attempts": calls("assembly.collar_attempt"),
        "assembly.collar_s": seconds("assembly.collar"),
        "assembly.builder_self_s": seconds("assembly.builder", "self_s"),
        "assembly.save_files_s": seconds("assembly.save_files"),
        "assembly.save_files_bytes": counts["assembly.save_files_bytes"],
        "measure.volume_calls": calls("measure.volume"),
        "measure.volume_s": seconds("measure.volume"),
        "measure.quadrature_passes": counts["measure.quadrature_passes"],
        "measure.diameter_calls": calls("measure.diameter"),
        "measure.diameter_s": seconds("measure.diameter"),
        "profiles.spline_builds": counts["profiles.spline_builds"],
        "profiles.curvature_samples_s": seconds("profiles.curvature_samples"),
        "profiles.save_csv_calls": calls("profiles.save_csv"),
        "profiles.save_csv_s": seconds("profiles.save_csv"),
        "profiles.load_csv_s": seconds("profiles.load_csv"),
        "profiles.fingerprint_s": seconds("profiles.fingerprint"),
        "curvature.points": counts["curvature.points"],
        "curvature.s": seconds("curvature"),
        "certificate.make_s": seconds("certificate.make"),
        "certificate.write_s": seconds("certificate.write"),
        "certificate.recheck_s": seconds("certificate.recheck"),
        "certificate.bytes": sum(len(o.certificate) for o in outcomes
                                 if o.certificate is not None),
        "pipelines.self_s": seconds("pipelines", "self_s"),
        "cli.self_s": seconds("cli", "self_s"),
    }
    metrics = {}
    for name, total in per_cert.items():
        unit = ("s/cert" if name.endswith("_s") or name == "curvature.s"
                else "B/cert" if name.endswith("bytes") else "count/cert")
        metrics[name] = (total / certs, unit)
    metrics.update({
        "bending.verify_per_curve": (
            ratio(calls("bending.verify"), calls("bending.design")), "ratio"),
        "assembly.distinct_pieces_ratio": (
            ratio(sum(o.distinct_pieces for o in outcomes), pieces), "ratio"),
        "assembly.collar_accept_ratio": (
            ratio(counts["assembly.collar_accepted"],
                  calls("assembly.collar_attempt")), "ratio"),
        "measure.passes_per_volume": (
            ratio(counts["measure.quadrature_passes"], calls("measure.volume")),
            "ratio"),
        "trace.slowdown": (ratio(times["traced"], times["untraced"]), "ratio"),
    })
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    report = {"blocks": blocks, "builds": certs, "measured_s": wall,
              "untraced_certs_per_s": ratio(certs, times["untraced"]),
              "traced_certs_per_s": ratio(certs, times["traced"]),
              "spans": len(tracer.spans),
              "spans_file": str(spans_path.relative_to(ROOT)),
              "layers": layers, "counters": dict(sorted(counts.items()))}
    return metrics, report, outcomes


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.setup_probe:
        _warm_up(load_neckforge(), args.workload)
        print(time.monotonic())
        return 0
    nf = load_neckforge()
    setup = ([] if args.trace else
             measure_setup(args.workload, 1 if args.smoke else SETUP_PROBES))
    _warm_up(nf, args.workload)
    if args.trace:
        metrics, report, outcomes = _per_layer(args, nf)
    else:
        metrics, report, outcomes = _end_to_end(args, nf, setup)

    failed = sum(o.kind != "PASS" for o in outcomes)
    problems = [(i, p) for i, o in enumerate(outcomes) for p in o.problems]
    digest_n = min(DIGEST_BUILDS[args.workload], len(outcomes))
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds,
        "machine": _machine(), "versions": _versions(nf),
        "thread_pinning": THREAD_PINNING, "callers": 1,
        "outcomes": _tally(outcomes),
        "cert_digest": _digest(outcomes[:digest_n]),
        "digest_builds": digest_n,
        "problems": problems[:20],
        **report,
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
