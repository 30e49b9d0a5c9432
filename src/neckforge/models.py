"""Exact ambient model spaces that necks are built inside.

A model is a product X = S^p(rho) x R x N, where N is a q-dimensional
simply connected space form of constant curvature c >= 0 (flat space or a
round sphere) and the S^p factor may be absent (base_dim = 0). In
cylindrical coordinates (t, r, base angles, link angles) the metric is

    dt^2 + rho^2 g_{S^p} + dr^2 + sn_c(r)^2 g_{S^{q-1}}

with sn_c(r) = sin(sqrt(c) r)/sqrt(c) for c > 0 and sn_0(r) = r. The
identities 1 - sn'^2 = c sn^2 and sn'' = -c sn make every curvature
quantity of tubes and bent hypersurfaces closed-form; that exactness is
what the numerical certificates lean on.

Everything a construction needs from the ambient geometry lives here:
scalar curvature, the radial warp, the warps of the fiber over a slice
radius, the distance spheres of the slice factor (principal curvatures
with the inner normal, the one pointing toward the axis) and the volume
of the unit sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterOutOfRange, RadiusExceedsModel

__all__ = [
    "AmbientModel",
    "GeodesicSphereData",
    "flat_space",
    "round_sphere",
    "sphere_times_flat",
    "product_of_rounds",
    "unit_sphere_volume",
]


def unit_sphere_volume(dim: int) -> float:
    """Volume of the unit round sphere S^dim: 2 pi^((d+1)/2) / Gamma((d+1)/2)."""
    if dim < 0:
        raise ParameterOutOfRange("sphere dimension must be >= 0")
    return 2.0 * math.pi ** ((dim + 1) / 2.0) / math.gamma((dim + 1) / 2.0)


@dataclass(frozen=True)
class GeodesicSphereData:
    """Distance sphere of the slice factor, second fundamental form wrt the
    inner normal, and how far its induced metric sits from a literal round
    sphere of the same radius."""

    radius: float
    warp_value: float
    principal_curvatures: np.ndarray
    metric_deviation: float


@dataclass(frozen=True)
class AmbientModel:
    base_dim: int
    slice_dim: int
    base_radius: float = 1.0
    slice_curv: float = 0.0

    def __post_init__(self) -> None:
        if self.base_dim < 0:
            raise ParameterOutOfRange("base_dim must be >= 0")
        if self.slice_dim < 2:
            raise ParameterOutOfRange("slice_dim must be >= 2")
        if not self.base_radius > 0.0:
            raise ParameterOutOfRange("base_radius must be positive")
        if self.slice_curv < 0.0:
            raise ParameterOutOfRange("slice_curv must be >= 0")

    # -- bookkeeping -------------------------------------------------------

    @property
    def surface_dim(self) -> int:
        """Dimension n of hypersurfaces swept by a curve in the (t, r) plane."""
        return self.base_dim + self.slice_dim

    def fiber(self, slice_warp) -> tuple[tuple, tuple]:
        """(warps, sphere dims) of the fiber S^p(rho) x S^(q-1)(slice_warp):
        the base sphere's radius first, and no base sphere when p = 0."""
        if self.base_dim == 0:
            return (slice_warp,), (self.slice_dim - 1,)
        return ((self.base_radius, slice_warp),
                (self.base_dim, self.slice_dim - 1))

    @property
    def scalar_curvature(self) -> float:
        p, q, c = self.base_dim, self.slice_dim, self.slice_curv
        base = p * (p - 1) / self.base_radius**2 if p >= 1 else 0.0
        return base + c * q * (q - 1)

    @property
    def max_radius(self) -> float:
        """Largest usable slice radius: the equator distance for round
        slices (the warp stops growing there), unbounded for flat ones."""
        if self.slice_curv == 0.0:
            return math.inf
        return 0.5 * math.pi / math.sqrt(self.slice_curv)

    def _check_radius(self, r) -> None:
        r = np.asarray(r, dtype=float)
        if np.any(r < 0.0):
            raise RadiusExceedsModel("slice radius must be >= 0")
        if np.any(r > self.max_radius * (1.0 + 1e-12)):
            raise RadiusExceedsModel(
                f"slice radius {float(np.max(r))} exceeds the model's "
                f"equator distance {self.max_radius}")

    # -- radial warp ---------------------------------------------------------

    def warp(self, r):
        """sn_c(r): the link sphere at distance r has radius sn_c(r)."""
        self._check_radius(r)
        r = np.asarray(r, dtype=float)
        c = self.slice_curv
        if c == 0.0:
            return r.copy()
        rt = math.sqrt(c)
        return np.sin(rt * r) / rt

    def warp_d1(self, r):
        """sn_c'(r) = cos(sqrt(c) r); equals 1 for flat slices."""
        self._check_radius(r)
        r = np.asarray(r, dtype=float)
        c = self.slice_curv
        if c == 0.0:
            return np.ones_like(r)
        return np.cos(math.sqrt(c) * r)

    def radial_log_slope(self, r):
        """sn'/sn, the mean curvature scale of the distance tube at r."""
        w = self.warp(r)
        if np.any(np.asarray(w) <= 0.0):
            raise RadiusExceedsModel("radial slope needs 0 < r <= equator")
        return self.warp_d1(r) / w

    # -- distance spheres -----------------------------------------------------

    def geodesic_sphere_data(self, radius: float) -> GeodesicSphereData:
        """The distance sphere of the slice factor at the given radius.

        Principal curvatures (all slice_dim - 1 of them) are taken with
        respect to the inner normal and equal -sn'/sn: -1/radius in a flat
        slice, -sqrt(c) cot(sqrt(c) radius) in a round one. The metric
        deviation is |sn^2/radius^2 - 1|, the relative gap between the
        induced metric and a literal round sphere of the same radius.
        """
        if not radius > 0.0:
            raise ParameterOutOfRange("radius must be positive")
        self._check_radius(radius)
        w = float(self.warp(radius))
        slope = float(self.radial_log_slope(radius))
        lam = np.full(self.slice_dim - 1, -slope)
        deviation = abs(w * w / (radius * radius) - 1.0)
        return GeodesicSphereData(radius=float(radius), warp_value=w,
                                  principal_curvatures=lam,
                                  metric_deviation=deviation)


def flat_space(dim: int) -> AmbientModel:
    """Flat R^(dim+1); hypersurfaces built in it have dimension dim."""
    return AmbientModel(base_dim=0, slice_dim=dim, base_radius=1.0, slice_curv=0.0)


def round_sphere(dim: int, radius: float) -> AmbientModel:
    """R x S^dim(radius): the model around a point of a round sphere."""
    if not radius > 0.0:
        raise ParameterOutOfRange("radius must be positive")
    return AmbientModel(base_dim=0, slice_dim=dim, base_radius=1.0,
                        slice_curv=radius**-2)


def sphere_times_flat(base_dim: int, base_radius: float, slice_dim: int) -> AmbientModel:
    """S^p(rho) x R^(q+1): surgery model with flat normal directions."""
    return AmbientModel(base_dim=base_dim, slice_dim=slice_dim,
                        base_radius=base_radius, slice_curv=0.0)


def product_of_rounds(base_dim: int, base_radius: float,
                      slice_dim: int, slice_radius: float) -> AmbientModel:
    """S^p(rho) x R x S^q(sigma): surgery model inside a product of spheres."""
    if not slice_radius > 0.0:
        raise ParameterOutOfRange("slice_radius must be positive")
    return AmbientModel(base_dim=base_dim, slice_dim=slice_dim,
                        base_radius=base_radius, slice_curv=slice_radius**-2)
