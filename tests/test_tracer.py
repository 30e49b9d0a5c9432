"""The benchmark tracer's hooks still find what they patch.

perfbench/tracer.py wraps neckforge functions by module and name from
outside the library; a renamed hook target breaks `--trace 1`. This
checks that every target resolves, that the tracer installs and
uninstalls cleanly, that it times both profile classes' methods, and that
its two call counters count what their names say on a tunnel build.
"""

import importlib.util
from pathlib import Path

import pytest

import neckforge.cli  # noqa: F401  (the tracer wraps neckforge.cli.main)
from neckforge import measure, numerics, profiles
from neckforge.pipelines import surgery_certificate, tunnel_certificate

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


def test_every_hook_target_resolves():
    tracer = load_tracer()
    for module, name, *_ in tracer.FUNCTIONS + tracer.COUNTED:
        assert callable(getattr(importlib.import_module(module), name))
    for module, cls_name, method, *_ in tracer.METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        # the tracer wraps cls.__dict__[method]; an inherited one is missed
        assert callable(cls.__dict__.get(method)), (cls_name, method)


@pytest.mark.parametrize("build, profile_class", [
    (lambda: tunnel_certificate(3), profiles.WarpProfile),
    (lambda: surgery_certificate(1, 3, 0.1), profiles.DoublyWarpProfile),
], ids=["tunnel", "surgery"])
def test_both_profile_classes_are_traced_and_restored(build, profile_class):
    originals = {(cls, name): cls.__dict__[name]
                 for cls in (profiles.WarpProfile, profiles.DoublyWarpProfile)
                 for name in ("curvature_samples", "fingerprint")}
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        result = build()
    finally:
        tracer.uninstall()
    assert {type(piece.profile) for assembly in result.assemblies.values()
            for piece in assembly.pieces} == {profile_class}
    assert tracer.layer_totals()["profiles.curvature_samples"]["calls"] > 0
    for (cls, name), original in originals.items():
        assert cls.__dict__[name] is original
