"""The benchmark tracer's hooks still find what they patch.

perfbench/tracer.py wraps neckforge functions by module and name from
outside the library; a renamed hook target breaks `--trace 1`. This
checks that the tracer installs and uninstalls cleanly and that its two
call counters count what their names say on a tunnel build.
"""

import importlib.util
from pathlib import Path

import neckforge.cli  # noqa: F401  (the tracer wraps neckforge.cli.main)
from neckforge import measure, numerics, profiles
from neckforge.pipelines import tunnel_certificate

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_spline_builds_and_quadrature_passes(monkeypatch):
    builds = []
    real_builder = profiles.CubicSpline

    def counting(x, y):
        builds.append(1)
        return real_builder(x, y)

    monkeypatch.setattr(profiles, "CubicSpline", counting)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        tunnel_certificate(3, sharpness=1e4)
    finally:
        tracer.uninstall()
    assert profiles.CubicSpline is counting
    assert measure.gauss_legendre_panels is numerics.gauss_legendre_panels
    volumes = tracer.layer_totals()["measure.volume"]["calls"]
    assert builds and volumes
    assert tracer.counts["profiles.spline_builds"] == len(builds)
    # every piece of this tunnel takes the one-pass exact path
    assert tracer.counts["measure.quadrature_passes"] == volumes
