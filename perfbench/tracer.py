"""Spans and counters recorded around neckforge's public functions.

The tracer never edits the library. It swaps each instrumented function
for a timing wrapper in every ``neckforge.*`` module namespace that holds
it (so ``from .measure import profile_volume`` in assembly.py is caught
as well as ``measure.profile_volume``), and each instrumented method on
its class. ``uninstall`` puts the originals back, which lets one process
alternate untraced and traced builds of the same input.

A span is ``[name, start, end, parent, build]``: perf_counter seconds,
the index of the enclosing span (-1 at the top) and the build id the
benchmark set before the call. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from time import perf_counter


def _curve_nodes(counts, args, kwargs, result):
    counts["bending.curve_nodes"] += int(result.s_nodes.size)


def _warped_points(counts, args, kwargs, result):
    counts["curvature.points"] += int(result.size)


def _csv_bytes(counts, args, kwargs, result):
    counts["assembly.save_files_bytes"] += os.path.getsize(args[1])


def _manifest_bytes(counts, args, kwargs, result):
    counts["assembly.save_files_bytes"] += os.path.getsize(result)


def _accepted_leg(counts, args, kwargs, result):
    counts["assembly.collar_accepted"] += 1


# (module, function, span name, counter hook); every binding is patched
FUNCTIONS = [
    ("neckforge.bending", "design_bending_curve", "bending.design",
     _curve_nodes),
    ("neckforge.assembly", "certified_min_scalar", "assembly.sampled_floor",
     None),
    ("neckforge.assembly", "collar_metric", "assembly.collar_attempt", None),
    ("neckforge.assembly", "choose_stretch", "assembly.collar",
     _accepted_leg),
    ("neckforge.assembly", "build_tunnel", "assembly.builder", None),
    ("neckforge.assembly", "build_tunnel_between", "assembly.builder", None),
    ("neckforge.assembly", "perform_surgery", "assembly.builder", None),
    ("neckforge.measure", "profile_volume", "measure.volume", None),
    ("neckforge.measure", "diameter_bounds", "measure.diameter", None),
    ("neckforge.profiles", "save_profile_csv", "profiles.save_csv",
     _csv_bytes),
    ("neckforge.profiles", "load_profile_csv", "profiles.load_csv", None),
    ("neckforge.curvature", "scalar_curvature_warped", "curvature",
     _warped_points),
    ("neckforge.curvature", "scalar_curvature_doubly_warped", "curvature",
     _warped_points),
    ("neckforge.certificate", "make_certificate", "certificate.make", None),
    ("neckforge.certificate", "write_certificate", "certificate.write", None),
    ("neckforge.certificate", "recheck_certificate", "certificate.recheck",
     None),
    ("neckforge.pipelines", "tunnel_certificate", "pipelines", None),
    ("neckforge.pipelines", "surgery_certificate", "pipelines", None),
    ("neckforge.pipelines", "sphere_chain_certificate", "pipelines", None),
    ("neckforge.pipelines", "attach_hemisphere", "pipelines", None),
    ("neckforge.pipelines", "attach_product_ingredient", "pipelines", None),
    ("neckforge.pipelines", "verify_volume_budget", "pipelines", None),
    ("neckforge.cli", "main", "cli", None),
]

# (module, class, method, span name, counter hook)
METHODS = [
    ("neckforge.bending", "BendingCurve", "verify_floor", "bending.verify",
     None),
    ("neckforge.bending", "BendingCurve", "segment_profile",
     "bending.segment", None),
    ("neckforge.bending", "BendingCurve", "min_scalar_on",
     "bending.piece_floor", None),
    ("neckforge.profiles", "WarpProfile", "curvature_samples",
     "profiles.curvature_samples", None),
    ("neckforge.profiles", "DoublyWarpProfile", "curvature_samples",
     "profiles.curvature_samples", None),
    ("neckforge.profiles", "WarpProfile", "fingerprint",
     "profiles.fingerprint", None),
    ("neckforge.profiles", "DoublyWarpProfile", "fingerprint",
     "profiles.fingerprint", None),
    ("neckforge.assembly", "Assembly", "save_files", "assembly.save_files",
     _manifest_bytes),
]

# (module, name, counter): call counts only, patched in that module alone,
# because the same callee serves other layers too (models.py integrates
# with gauss_legendre_panels as well)
COUNTED = [
    ("neckforge.measure", "gauss_legendre_panels", "measure.quadrature_passes"),
    ("neckforge.profiles", "CubicSpline", "profiles.spline_builds"),
]


class Tracer:
    """In-memory span and counter store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.build = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.build]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self) -> None:
        self._stack.pop()

    def timed(self, name: str, fn, hook=None):
        """fn wrapped so that each call records one span named name."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = tracer._open(name)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer._close()
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def counted(self, counter: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "neckforge"
                                         or name.startswith("neckforge."))]
        for module_name, fn_name, span, hook in FUNCTIONS:
            original = getattr(sys.modules[module_name], fn_name)
            wrapper = self.timed(span, original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for module_name, cls_name, method, span, hook in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._patch(cls, method,
                        self.timed(span, cls.__dict__[method], hook))
        for module_name, name, counter in COUNTED:
            module = sys.modules[module_name]
            self._patch(module, name,
                        self.counted(counter, getattr(module, name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans in one thread nest, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return {name: {"calls": c, "s": s, "self_s": own}
                for name, (c, s, own) in totals.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")

