"""Smoke tests for the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs on three inputs, untraced and traced. Every metric
that BENCHMARK.json names must come out with its unit, and the traced
run must reproduce the untraced certificates byte for byte.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _parse(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_and_traces_identically(workload):
    plain_report, plain = _parse(_run(workload, 0))
    traced_report, traced = _parse(_run(workload, 1))
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert (result["attempted"], result["failed"]) == (3, 0)
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == {m["name"]: m["unit"] for m in SPEC[section]}
    assert traced_report["problems"] == []
    assert traced_report["digest_builds"] == plain_report["digest_builds"] == 3
    assert traced_report["cert_digest"] == plain_report["cert_digest"]
    assert plain_report["outcomes"] == traced_report["outcomes"] == {"PASS": 3}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    done = _run("neck-sweep", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
