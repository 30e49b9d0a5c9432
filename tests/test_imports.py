"""What each entry point loads: every check runs in a fresh interpreter.

A build loads numpy and scipy.linalg, but not scipy.interpolate, and
scipy.special only for round-ball volumes; `neckforge recheck` loads
only the standard library. The package's names resolve lazily.
"""

import os
import subprocess
import sys
from pathlib import Path

import neckforge
from neckforge import pipelines
from neckforge.pipelines import tunnel_certificate

SRC = Path(neckforge.__file__).resolve().parent.parent


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done


def loaded(code: str) -> set[str]:
    """The numpy and scipy modules loaded after running code."""
    done = run_python("-c", code + "\nimport sys\nprint(' '.join("
                      "m for m in sys.modules if m.split('.')[0] in "
                      "('numpy', 'scipy')))")
    return set(done.stdout.splitlines()[-1].split())


def test_builds_load_neither_interpolate_nor_special():
    modules = loaded(
        "from neckforge import surgery_certificate, tunnel_certificate\n"
        "assert tunnel_certificate(3, sharpness=100.0).status == 'PASS'\n"
        "assert surgery_certificate(1, 3, 0.1).status == 'PASS'")
    assert "numpy" in modules and "scipy.linalg" in modules
    assert not any(m.startswith(("scipy.interpolate", "scipy.special"))
                   for m in modules)


def test_recheck_command_loads_no_numpy_or_scipy(tmp_path):
    cert = tmp_path / "tunnel.cert.json"
    tunnel_certificate(3, 6.0, 0.1, 2.0, 100.0, certificate_path=cert,
                       profiles_dir=tmp_path / "profiles")
    # -X importtime names every module the command imports
    done = run_python("-X", "importtime", "-m", "neckforge.cli", "recheck",
                      str(cert))
    assert done.stdout.rstrip().endswith("status PASS")
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in done.stderr.splitlines()
                if line.startswith("import time:")]
    assert "neckforge.certificate" in imported
    assert not [m for m in imported
                if m.split(".")[0] in ("numpy", "scipy")]


def test_package_names_resolve_lazily():
    assert loaded("import neckforge") == set()
    run_python("-c", "from neckforge import tunnel_certificate\n"
                     "import neckforge.pipelines as p\n"
                     "assert tunnel_certificate is p.tunnel_certificate")


def test_public_names_are_unchanged_and_resolve():
    assert neckforge.__all__ == [
        "AmbientModel", "Assembly", "AssemblyPiece", "DoublyWarpProfile",
        "IngredientMetric", "PipelineResult", "WarpProfile",
        "attach_hemisphere", "attach_product_ingredient", "build_tunnel",
        "build_tunnel_between", "certificate_bytes", "certified_min_scalar",
        "flat_space", "hemisphere_standin", "load_certificate",
        "make_certificate", "perform_surgery", "product_ingredient",
        "product_of_rounds", "profile_ingredient", "recheck_certificate",
        "round_ball_volume", "round_sphere", "round_sphere_ingredient",
        "sphere_chain_certificate", "sphere_times_flat",
        "surgery_certificate", "tunnel_certificate", "unit_sphere_volume",
        "verify_volume_budget", "write_certificate",
    ]
    for name in neckforge.__all__:
        assert getattr(neckforge, name) is not None
    assert set(neckforge.__all__) <= set(dir(neckforge))


def test_each_access_reads_the_submodules_binding(monkeypatch):
    # a wrapper installed in the submodule is what the package returns
    def wrapped(*args, **kwargs):
        return tunnel_certificate(*args, **kwargs)

    monkeypatch.setattr(pipelines, "tunnel_certificate", wrapped)
    assert neckforge.tunnel_certificate is wrapped
    monkeypatch.undo()
    assert neckforge.tunnel_certificate is tunnel_certificate
    assert "tunnel_certificate" not in vars(neckforge)
