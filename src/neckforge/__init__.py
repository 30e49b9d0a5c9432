"""neckforge: scalar-curvature-controlled necks as explicit warped metrics.

The library builds Gromov-Lawson style tunnels and surgery necks as
piecewise (doubly) warped-product metrics, verifies curvature, volume and
diameter inequalities numerically, and emits machine-checkable certificates.

Importing the package loads no submodule. Each public name below is read
from its submodule when it is first asked for (PEP 562), so a reader that
only rechecks certificates never loads the numerical build code. Nothing
is cached here: every access returns the submodule's current binding.
"""

import importlib

__version__ = "0.1.0"

# submodule: the public names it defines
_EXPORTS = {
    "assembly": ("Assembly", "AssemblyPiece", "build_tunnel",
                 "build_tunnel_between", "certified_min_scalar",
                 "perform_surgery"),
    "certificate": ("certificate_bytes", "load_certificate",
                    "make_certificate", "recheck_certificate",
                    "write_certificate"),
    "models": ("AmbientModel", "flat_space", "product_of_rounds",
               "round_sphere", "sphere_times_flat", "unit_sphere_volume"),
    "pipelines": ("IngredientMetric", "PipelineResult", "attach_hemisphere",
                  "attach_product_ingredient", "hemisphere_standin",
                  "product_ingredient", "round_ball_volume",
                  "round_sphere_ingredient",
                  "sphere_chain_certificate", "surgery_certificate",
                  "tunnel_certificate", "verify_volume_budget"),
    "profiles": ("DoublyWarpProfile", "WarpProfile"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}
_SUBMODULES = {"assembly", "bending", "certificate", "cli", "curvature",
               "errors", "measure", "models", "numerics", "oracle",
               "pipelines", "profiles"}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _SOURCE:
        return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__),
                       name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
