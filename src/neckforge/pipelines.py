"""Headline constructions and their machine-checkable certificates.

Each pipeline assembles profile pieces into one glued chain, measures
curvature, volume and diameter with the library's certified routines,
and emits a certificate whose claims a reader can recheck from the
stored numbers alone.  Trusted inputs, meaning ingredient metrics whose
geometry is not profile-backed, are marked external-trusted in the
provenance instead of being silently assumed.

Ingredient slots follow one convention.  A round ingredient carries its
exact ambient model and its remnant enters the assembly as a real
profile piece; anything else is summarized by its certified floor and
volume, the tunnel attaches to a round local stand-in of matching
curvature, and the certificate records attachment_model =
"round-standin" so the substitution is visible.  Every pipeline builds
its hemisphere slot through one hemisphere end, _hemisphere_end.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .assembly import (DEFAULT_INTERFACE_TOL, PROFILE_NODES, _chain,
                       _sampled_piece, build_tunnel, build_tunnel_between,
                       certified_min_scalar, perform_surgery)
from .bending import START_RADIUS_FACTOR
from .certificate import (DEFAULT_TOLERANCE, make_certificate,
                          write_certificate)
from .errors import (FloorCheckFailed, IngredientFloorTooLow,
                     MissingIngredient, ParameterOutOfRange)
from .measure import profile_volume
from .models import AmbientModel, round_sphere, unit_sphere_volume
from .profiles import WarpProfile

__all__ = [
    "IngredientMetric",
    "round_sphere_ingredient",
    "product_ingredient",
    "profile_ingredient",
    "hemisphere_standin",
    "round_ball_volume",
    "PipelineResult",
    "attach_hemisphere",
    "attach_product_ingredient",
    "sphere_chain_certificate",
    "verify_volume_budget",
    "tunnel_certificate",
    "surgery_certificate",
]

STANDIN_HEADROOM = 1e-3
# halvings of a product ingredient's factor radius before giving up
MAX_RESCALINGS = 40


# ---------------------------------------------------------------- volumes

def _sin_power_integral(power: int, theta: float) -> float:
    """integral of sin(u)^power over [0, theta] for integer power >= 0."""
    # imported here: only ball volumes need it, and it loads slowly
    from scipy import special

    if theta < 0.0:
        raise ParameterOutOfRange(f"angle {theta:.6g} must be nonnegative")
    theta = min(theta, math.pi)
    half = 0.5 * special.beta(0.5 * (power + 1), 0.5)
    if theta <= 0.5 * math.pi:
        return half * special.betainc(0.5 * (power + 1), 0.5,
                                      math.sin(theta) ** 2)
    # symmetry about the equator angle pi/2
    tail = half * special.betainc(0.5 * (power + 1), 0.5,
                                  math.sin(math.pi - theta) ** 2)
    return 2.0 * half - tail


def round_ball_volume(dim: int, sphere_radius: float,
                      ball_radius: float) -> float:
    """Volume of a metric ball in the round sphere of the given radius.

    Closed form through the incomplete beta function, so pipeline volume
    accounting has a route independent of profile quadrature.
    """
    if dim < 2:
        raise ParameterOutOfRange("ball volume needs dimension >= 2")
    if sphere_radius <= 0.0:
        raise ParameterOutOfRange("sphere radius must be positive")
    if not 0.0 <= ball_radius <= math.pi * sphere_radius + 1e-12:
        raise ParameterOutOfRange(
            f"ball radius {ball_radius:.6g} outside [0, pi*{sphere_radius:.6g}]")
    theta = ball_radius / sphere_radius
    return (unit_sphere_volume(dim - 1) * sphere_radius ** dim
            * _sin_power_integral(dim - 1, theta))


# ------------------------------------------------------------ ingredients

@dataclass(frozen=True)
class IngredientMetric:
    """A closed manifold summarized for use in a gluing pipeline.

    certified_floor is a strict lower bound for scalar curvature and
    volume the total volume.  trust records where those numbers come
    from: "closed-form" means this library recomputes them from the
    descriptor, "external-trusted" means they were supplied and are
    hypotheses of the resulting certificate, not conclusions.
    """

    name: str
    dim: int
    certified_floor: float
    volume: float
    trust: str = "closed-form"
    model: AmbientModel | None = None
    boundary_totally_geodesic: bool = False
    detail: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ParameterOutOfRange("ingredient dimension must be >= 2")
        if not self.volume > 0.0:
            raise ParameterOutOfRange("ingredient volume must be positive")
        if self.trust not in ("closed-form", "external-trusted"):
            raise ParameterOutOfRange(f"unknown trust level {self.trust!r}")

    def recomputed_floor(self) -> float | None:
        """Recompute the curvature floor from the descriptor.

        Returns None for external-trusted ingredients; their floor is an
        input.  Used by the constructors and the test suite to hold the
        declared floor to within 1e-9 of an independent evaluation.
        """
        kind = self.detail.get("kind")
        if kind == "round":
            return self.model.scalar_curvature
        if kind == "product":
            p, q = self.detail["factor_dims"]
            r = self.detail["factor_radius"]
            return (p * (p - 1) + q * (q - 1)) / r ** 2
        if kind == "profile":
            profile = self.detail["profile"]
            return certified_min_scalar(
                profile, pole_scalars=self.detail.get("pole_scalars", ()))
        return None

    def summary(self) -> dict:
        return {"name": self.name, "dim": self.dim, "trust": self.trust,
                "certified_floor": self.certified_floor,
                "volume": self.volume,
                "boundary_totally_geodesic": self.boundary_totally_geodesic}


def round_sphere_ingredient(dim: int, radius: float) -> IngredientMetric:
    """The round sphere of the given radius as a pipeline ingredient."""
    model = round_sphere(dim, radius)
    return IngredientMetric(
        name=f"round_sphere_{dim}d_r{radius:g}", dim=dim,
        certified_floor=model.scalar_curvature,
        volume=unit_sphere_volume(dim) * radius ** dim,
        model=model, detail={"kind": "round"})


def product_ingredient(base_dim: int, slice_dim: int,
                       factor_radius: float | None = None) -> IngredientMetric:
    """Product of two round spheres scaled to a common factor radius.

    The default radius 1/sqrt(2 n(n-1)) puts the scalar curvature at
    2 n(n-1) (p(p-1)+q(q-1)) which clears the n(n-1) target whenever at
    least one factor has dimension >= 2; equal-dimension products are
    symmetric under swapping the factors by construction.
    """
    p, q = int(base_dim), int(slice_dim)
    if p < 1 or q < 1:
        raise ParameterOutOfRange("product factor dimensions must be >= 1")
    n = p + q
    if n < 3:
        raise ParameterOutOfRange("product ingredient needs dimension >= 3")
    if factor_radius is None:
        factor_radius = 1.0 / math.sqrt(2.0 * n * (n - 1))
    r = float(factor_radius)
    if not r > 0.0:
        raise ParameterOutOfRange("factor radius must be positive")
    floor = (p * (p - 1) + q * (q - 1)) / r ** 2
    volume = (unit_sphere_volume(p) * r ** p) * (unit_sphere_volume(q) * r ** q)
    return IngredientMetric(
        name=f"round_product_{p}x{q}_r{r:g}", dim=n,
        certified_floor=floor, volume=volume, model=None,
        detail={"kind": "product", "factor_dims": (p, q),
                "factor_radius": r})


def profile_ingredient(name: str, profile: WarpProfile,
                       pole_scalars=()) -> IngredientMetric:
    """Wrap a warped profile as an ingredient; floor and volume measured."""
    floor = certified_min_scalar(profile, pole_scalars=tuple(pole_scalars))
    return IngredientMetric(
        name=name, dim=sum(profile.component_dims) + 1,
        certified_floor=floor, volume=profile_volume(profile),
        detail={"kind": "profile", "profile": profile,
                "pole_scalars": tuple(pole_scalars)})


def hemisphere_standin(dim: int, headroom: float = STANDIN_HEADROOM,
                       declared_volume: float | None = None) -> IngredientMetric:
    """Round hemisphere with a strict curvature margin over n(n-1).

    The geodesically convex half of the round sphere with scalar
    curvature n(n-1)(1+headroom), boundary a totally geodesic round
    sphere.  Passing declared_volume replaces the model's own volume by
    an externally certified figure; the result is then marked
    external-trusted and the substitution shows up in certificates.
    """
    if dim < 2:
        raise ParameterOutOfRange("hemisphere dimension must be >= 2")
    if not headroom > 0.0:
        raise ParameterOutOfRange(
            "headroom must be positive; gluing needs strict floor clearance")
    n = int(dim)
    curv = (1.0 + headroom) * n * (n - 1)
    model = AmbientModel(0, n, 1.0, curv / (n * (n - 1)))
    rho = model.slice_curv ** -0.5
    trust = "closed-form" if declared_volume is None else "external-trusted"
    volume = (0.5 * unit_sphere_volume(n) * rho ** n if declared_volume is None
              else float(declared_volume))
    return IngredientMetric(
        name=f"hemisphere_standin_{n}d", dim=n,
        certified_floor=curv, volume=volume, trust=trust, model=model,
        boundary_totally_geodesic=True,
        detail={"kind": "round", "half": True,
                "do_not_glue": "boundary annulus"})


# ------------------------------------------------------------- chain parts

@dataclass(frozen=True)
class _Body:
    """A round body of a glued chain: an arc of the sphere of radius rho.

    An end body also names its far end: ("pole", pole scalar) closes it
    at the pole opposite its glue site, ("boundary", jet) stops it at the
    equator on a hemisphere's boundary jet.
    """

    name: str
    rho: float
    far: tuple = (None, None)


def _rename(pieces, prefix: str):
    return [dataclasses.replace(p, name=f"{prefix}_{p.name}") for p in pieces]


def _compose(name: str, spec, provenance: dict, fiber_dim: int,
             mouth: float):
    """Glue round bodies and tunnels, listed in chain order, into one chain.

    spec mixes _Body entries with (prefix, tunnel) pairs; a tunnel's
    pieces are renamed prefix_<name> unless prefix is None.  The tunnels
    of one chain share one tube radius, so each tunnel mouth lies at the
    distance mouth from its glue site.  A body is the arc at distance u
    from a pole of its sphere: from mouth to pi*rho - mouth, or out to
    its far end (pi*rho at a pole, pi*rho/2 at a boundary) when no
    tunnel follows; a first body runs from its far end down to mouth.
    Seam jets are copied verbatim from the neighbouring tunnel pieces,
    so glued interfaces close with gap exactly zero.  A body equal to an
    earlier one, byte for byte and in its pole scalars, reuses that
    body's certified record under its own name.
    """
    pieces = []
    bodies = {}
    for i, item in enumerate(spec):
        if not isinstance(item, _Body):
            prefix, tunnel = item
            pieces.extend(tunnel.pieces if prefix is None
                          else _rename(tunnel.pieces, prefix))
            continue
        left = spec[i - 1][1] if i > 0 else None
        right = spec[i + 1][1] if i + 1 < len(spec) else None
        kind, end = item.far
        rho = item.rho
        far = math.pi * rho if kind == "pole" else 0.5 * math.pi * rho
        if left is None:
            u_start, u_stop = far, mouth
        elif right is None:
            u_start, u_stop = mouth, far
        else:
            u_start, u_stop = mouth, math.pi * rho - mouth
        boundary = end if kind == "boundary" else None
        closed_start = left is None and kind == "pole"
        closed_end = right is None and kind == "pole"
        u = np.linspace(u_start, u_stop, PROFILE_NODES)
        values = rho * np.sin(u / rho)
        if closed_start:
            values[0] = 0.0
        if closed_end:
            values[-1] = 0.0
        profile = WarpProfile(
            grid=np.linspace(0.0, abs(u_stop - u_start), PROFILE_NODES),
            values=values, fiber_dim=fiber_dim,
            closed_start=closed_start, closed_end=closed_end,
            jet_start=(boundary if left is None
                       else left.pieces[-1].boundary_jets("end")[0]),
            jet_end=(boundary if right is None
                     else right.pieces[0].boundary_jets("start")[0]))
        poles = (end,) if kind == "pole" else ()
        key = (profile.content_key(), poles)
        if key not in bodies:
            bodies[key] = _sampled_piece(item.name, "remnant", profile,
                                         pole_scalars=poles)
        pieces.append(dataclasses.replace(bodies[key], name=item.name))
    return _chain(name, pieces, provenance)


def _require_floor(what: str, ingredient: IngredientMetric,
                   target: float) -> None:
    if not ingredient.certified_floor > target:
        raise IngredientFloorTooLow(
            f"{what} floor {ingredient.certified_floor:.9g} must exceed "
            f"{target:.9g} strictly; equality leaves no bending budget")


def _attachment_model(
        ingredient: IngredientMetric) -> tuple[AmbientModel, str]:
    """Ambient model the tunnel mouth lives in, plus how it was chosen.

    Round ingredients attach in their own exact model.  Anything else is
    represented near the gluing ball by the round sphere of matching
    scalar curvature; only the declared floor and volume of the original
    are used beyond that neighborhood.
    """
    if ingredient.model is not None:
        tag = "round-standin" if ingredient.detail.get("half") else "exact-round"
        return ingredient.model, tag
    n = ingredient.dim
    model = AmbientModel(0, n, 1.0, ingredient.certified_floor / (n * (n - 1)))
    return model, "round-standin"


def _hemisphere_end(hemisphere: IngredientMetric, n: int, target: float):
    """A hemisphere of dimension n with floor above target, as a chain end.

    Returns its attachment model and tag, its remnant body, which stops
    on the totally geodesic boundary jet (rho, 0, -1/rho), and the round
    hemisphere volume omega_n rho^n / 2, with rho = slice_curv ** -0.5.
    """
    if hemisphere.dim != n:
        raise ParameterOutOfRange(
            f"hemisphere dimension {hemisphere.dim} != chain dimension {n}")
    _require_floor("hemisphere", hemisphere, target)
    model, tag = _attachment_model(hemisphere)
    rho = model.slice_curv ** -0.5
    body = _Body("hemisphere_remnant", rho,
                 ("boundary", (rho, 0.0, -1.0 / rho)))
    return model, tag, body, 0.5 * unit_sphere_volume(n) * rho ** n


def _boundary_deviation(profile: WarpProfile, jet) -> float:
    # spline-sampled jet at the open end against the declared one
    s = float(profile.grid[-1])
    return max(abs(float(profile.value(s)) - jet[0]),
               abs(float(profile.derivative(s)) - jet[1]),
               abs(float(profile.derivative(s, 2)) - jet[2]))


# ---------------------------------------------------------------- results

@dataclass(frozen=True)
class PipelineResult:
    """Certificate document plus the assemblies that back its claims."""

    certificate: dict
    assemblies: dict
    certificate_path: Path | None = None

    @property
    def status(self) -> str:
        return self.certificate["status"]

    def claim(self, name: str) -> dict:
        for entry in self.certificate["claims"]:
            if entry["name"] == name:
                return entry
        raise KeyError(name)

    def quantity(self, name: str):
        return self.certificate["quantities"][name]


def _finalize(kind: str, parameters: dict, quantities: dict, claims,
              provenance: dict, assemblies: dict,
              certificate_path, profiles_dir, tolerance: float) -> PipelineResult:
    """Save the one assembly, fingerprint its manifest, emit the
    certificate; every certificate records n_profile_nodes here."""
    artifacts = {}
    if profiles_dir is not None:
        profiles_dir = Path(profiles_dir)
        anchor = (Path(certificate_path).parent if certificate_path is not None
                  else profiles_dir)
        cert_name = (Path(certificate_path).name
                     if certificate_path is not None else None)
        [(label, assembly)] = assemblies.items()
        manifest = assembly.save_files(profiles_dir, certificate_ref=cert_name)
        artifacts[f"{label}_manifest"] = {
            "file": os.path.relpath(manifest, anchor),
            "sha256": hashlib.sha256(manifest.read_bytes()).hexdigest(),
        }
    parameters = {**parameters, "n_profile_nodes": PROFILE_NODES}
    doc = make_certificate(kind, parameters, quantities, claims,
                           provenance=provenance, artifacts=artifacts,
                           tolerance=tolerance)
    path = None
    if certificate_path is not None:
        path = Path(certificate_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_certificate(doc, path)
    return PipelineResult(certificate=doc, assemblies=dict(assemblies),
                          certificate_path=path)


# ---------------------------------------------------------------- gluings

def _attachment(name: str, ingredient: IngredientMetric,
                hemisphere: IngredientMetric | None, diameter_target: float,
                sharpness: float, tube_radius: float, grid_density: float):
    """Parameters, quantities, claims, provenance and assemblies of one
    hemisphere attachment, before finalizing; see attach_hemisphere."""
    n = ingredient.dim
    target = float(n * (n - 1))
    if hemisphere is None:
        hemisphere = hemisphere_standin(n)
    if not diameter_target >= 0.0:
        raise ParameterOutOfRange("diameter target must be nonnegative")
    _require_floor("ingredient", ingredient, target)
    model_b, attach_b, hemi_body, hemi_model_volume = _hemisphere_end(
        hemisphere, n, target)
    model_a, attach_a = _attachment_model(ingredient)
    floor = max(target, min(model_a.scalar_curvature,
                            model_b.scalar_curvature) - 1.0 / sharpness)
    tunnel = build_tunnel_between(
        model_a, model_b, tube_radius, tube_radius, floor,
        length=diameter_target, grid_density=grid_density)
    mouth = START_RADIUS_FACTOR * tube_radius
    rho_a = model_a.slice_curv ** -0.5
    ball_a = round_ball_volume(n, rho_a, mouth)
    ball_b = round_ball_volume(n, hemi_body.rho, mouth)
    boundary_jet = hemi_body.far[1]

    spec = [(None, tunnel), hemi_body]
    exact_a = attach_a == "exact-round"
    if exact_a:
        # the unglued rest of the round ingredient, pole to seam
        spec.insert(0, _Body("ingredient_remnant", rho_a,
                             ("pole", model_a.scalar_curvature)))
    provenance = {
        "pipeline": name,
        "ingredient": ingredient.summary(),
        "hemisphere": hemisphere.summary(),
        "attachment_model_a": attach_a,
        "attachment_model_b": attach_b,
        "glue_site_clearance": 0.5 * math.pi * hemi_body.rho - mouth,
        "boundary_policy": "glued at an interior pole only; the totally "
                           "geodesic boundary annulus is never modified",
        "tunnel": tunnel.provenance,
    }
    assembly = _compose(name, spec, provenance, n - 1, mouth)
    hemi_arc = assembly.pieces[-1].profile

    # dual route over the profile-backed pieces only: quadrature on one
    # side, closed-form sphere arithmetic on the other
    route_closed = tunnel.total_volume + (hemi_model_volume - ball_b)
    if exact_a:
        route_closed += ingredient.volume - ball_a
    volume_total = assembly.total_volume
    if not exact_a:
        volume_total += ingredient.volume - ball_a
    volume_total += hemisphere.volume - hemi_model_volume
    diameter_lower, diameter_upper = assembly.diameter_bounds()
    global_min = min(assembly.min_scalar, ingredient.certified_floor,
                     hemisphere.certified_floor)

    quantities = {
        "curvature_target": target,
        "ingredient_floor": ingredient.certified_floor,
        "hemisphere_floor": hemisphere.certified_floor,
        "tunnel_floor": floor,
        "global_min_scalar": global_min,
        "diameter_target": float(diameter_target),
        "diameter_lower": diameter_lower,
        "diameter_upper": diameter_upper,
        "volume_total": volume_total,
        "volume_accounting_gap": abs(assembly.total_volume - route_closed),
        "max_interface_gap": assembly.max_interface_gap,
        "boundary_jet_gap": max(
            abs(a - b) for a, b in
            zip(hemi_arc.boundary_jets("end")[0], boundary_jet)),
        "boundary_profile_deviation": _boundary_deviation(hemi_arc,
                                                          boundary_jet),
    }
    claims = [
        ("ingredient_floor_strict", "ingredient_floor", ">", "curvature_target"),
        ("hemisphere_floor_strict", "hemisphere_floor", ">", "curvature_target"),
        ("scalar_floor", "global_min_scalar", ">", "curvature_target"),
        ("diameter_reached", "diameter_lower", ">=", "diameter_target"),
        ("interfaces_glued", "max_interface_gap", "<=", DEFAULT_INTERFACE_TOL),
        ("boundary_unchanged", "boundary_jet_gap", "<=", 1e-8),
        ("boundary_profile_consistent", "boundary_profile_deviation", "<=", 1e-4),
        ("volume_additivity", "volume_accounting_gap", "<=", 1e-6),
    ]
    parameters = {
        "dim": n,
        "ingredient": ingredient.name,
        "hemisphere": hemisphere.name,
        "diameter_target": float(diameter_target),
        "sharpness": float(sharpness),
        "tube_radius": float(tube_radius),
        "grid_density": float(grid_density),
    }
    return parameters, quantities, claims, provenance, {"chain": assembly}


def attach_hemisphere(ingredient: IngredientMetric,
                      hemisphere: IngredientMetric | None = None, *,
                      diameter_target: float = 0.0,
                      sharpness: float = 100.0,
                      tube_radius: float = 0.1,
                      grid_density: float = 1.0,
                      tolerance: float = DEFAULT_TOLERANCE,
                      certificate_path=None,
                      profiles_dir=None) -> PipelineResult:
    """Join an ingredient to a hemisphere through a curvature-safe tunnel.

    Both floors must clear n(n-1) strictly; the tunnel floor sits at
    most 1/sharpness below the smaller attachment curvature and never
    below the target.  With diameter_target > 0 the connecting cylinder
    alone forces the diameter lower bound, so the certificate claims
    min scalar > n(n-1) and diameter >= diameter_target side by side.
    The hemisphere's boundary sphere is never touched: gluing happens at
    an interior pole, the boundary jet rides along verbatim, and the
    certificate checks the built profile actually ends on it.
    """
    return _finalize("hemisphere_attachment",
                     *_attachment("hemisphere_attachment", ingredient,
                                  hemisphere, diameter_target, sharpness,
                                  tube_radius, grid_density),
                     certificate_path, profiles_dir, tolerance)


def attach_product_ingredient(base_dim: int, slice_dim: int, *,
                              factor_radius: float | None = None,
                              hemisphere: IngredientMetric | None = None,
                              diameter_target: float = 0.0,
                              sharpness: float = 100.0,
                              tube_radius: float = 0.05,
                              grid_density: float = 1.0,
                              tolerance: float = DEFAULT_TOLERANCE,
                              certificate_path=None,
                              profiles_dir=None) -> PipelineResult:
    """Hemisphere attachment whose ingredient is a round product of spheres.

    The floor is recomputed from the factor dimensions and radius, never
    assumed.  If the requested radius leaves the floor at or below the
    n(n-1) target, the radius is halved until the floor clears it and
    the chosen value lands in the certificate; running out of halvings
    raises FloorCheckFailed.  The certificate notes that the certified
    object is the round product; a connected-sum reading of the factors
    is not what is certified here.
    """
    ingredient = product_ingredient(base_dim, slice_dim, factor_radius)
    p, q = ingredient.detail["factor_dims"]
    target = float(ingredient.dim * (ingredient.dim - 1))
    swept = 0
    while not ingredient.certified_floor > target and swept < MAX_RESCALINGS:
        ingredient = product_ingredient(
            p, q, ingredient.detail["factor_radius"] / 2)
        swept += 1
    if not ingredient.certified_floor > target:
        raise FloorCheckFailed(
            f"product floor {ingredient.certified_floor:.6g} never cleared "
            f"{target:.6g} within {MAX_RESCALINGS} rescalings")
    note = ("certified object is the round product of the two sphere "
            "factors; a connected-sum reading of the same factors is a "
            "different space and is not certified here")
    parameters, quantities, claims, provenance, assemblies = _attachment(
        "product_attachment", ingredient, hemisphere, diameter_target,
        sharpness, tube_radius, grid_density)
    parameters.update(factor_dims=[p, q], rescalings=swept)
    quantities.update(product_floor_recomputed=ingredient.recomputed_floor(),
                      factor_radius=ingredient.detail["factor_radius"])
    claims.append(("product_floor_strict", "product_floor_recomputed",
                   ">", "curvature_target"))
    provenance.update(construction_note=note,
                      factor_radius_swept=bool(swept))
    return _finalize("product_attachment", parameters, quantities, claims,
                     provenance, assemblies, certificate_path, profiles_dir,
                     tolerance)


def sphere_chain_certificate(volume_target: float, dim: int = 3, *,
                             hemisphere: IngredientMetric | None = None,
                             sharpness: float = 100.0,
                             tube_radius: float = 0.1,
                             grid_density: float = 1.0,
                             tolerance: float = DEFAULT_TOLERANCE,
                             certificate_path=None,
                             profiles_dir=None) -> PipelineResult:
    """Beat a volume target by chaining unit round spheres.

    Picks the even count m with floor(m/2) unit-sphere volumes already
    above the target, strings the spheres along identical tunnels, then
    attaches the hemisphere at the far end.  Each gluing spends at most
    1/sharpness of curvature, so the certified composed floor is
    n(n-1) - m/sharpness; the claim list carries that composition
    explicitly rather than assuming losses cancel.
    """
    if not volume_target > 0.0:
        raise ParameterOutOfRange("volume target must be positive")
    n = int(dim)
    if n < 3:
        raise ParameterOutOfRange("sphere chain needs dimension >= 3")
    target = float(n * (n - 1))
    omega = unit_sphere_volume(n)
    m = 2 * (int(volume_target / omega) + 1)
    if hemisphere is None:
        hemisphere = hemisphere_standin(n)
    model_b, attach_b, hemi_body, hemi_model_volume = _hemisphere_end(
        hemisphere, n, target)

    unit = round_sphere(n, 1.0)
    link = build_tunnel(unit, tube_radius, length=0.0, sharpness=sharpness,
                        grid_density=grid_density)
    attach = build_tunnel_between(
        unit, model_b, tube_radius, tube_radius, target - 1.0 / sharpness,
        length=0.0, grid_density=grid_density)
    mouth = START_RADIUS_FACTOR * tube_radius

    spec = [_Body("sphere_01", 1.0, ("pole", target))]
    for i in range(1, m):
        spec += [(f"link{i:02d}", link), _Body(f"sphere_{i + 1:02d}", 1.0)]
    spec += [("attach", attach), hemi_body]
    provenance = {
        "pipeline": "sphere_chain",
        "hemisphere": hemisphere.summary(),
        "attachment_model_b": attach_b,
        "link_tunnel": link.provenance,
        "attach_tunnel": attach.provenance,
        "link_note": "all inter-sphere tunnels reuse one built profile "
                     "chain; links differ only by name",
    }
    assembly = _compose("sphere_chain", spec, provenance, n - 1, mouth)

    cap = round_ball_volume(n, 1.0, mouth)
    cap_b = round_ball_volume(n, hemi_body.rho, mouth)
    # caps of radius mouth removed: one from each end sphere, two from each
    # of the m-2 middles, so 2(m-1) in total, plus one more from the last
    # sphere and cap_b from the hemisphere for the attachment tunnel
    route_closed = (m * omega - 2.0 * (m - 1) * cap - cap - cap_b
                    + (m - 1) * link.total_volume + attach.total_volume
                    + hemi_model_volume)
    diameter_lower, diameter_upper = assembly.diameter_bounds()
    floor_composed = target - m / sharpness
    global_min = min(assembly.min_scalar, hemisphere.certified_floor)
    volume_total = (assembly.total_volume
                    + hemisphere.volume - hemi_model_volume)

    quantities = {
        "curvature_target": target,
        "volume_target": float(volume_target),
        "unit_sphere_volume": omega,
        "sphere_count": m,
        "hemisphere_floor": hemisphere.certified_floor,
        "floor_composed": floor_composed,
        "global_min_scalar": global_min,
        "volume_total": volume_total,
        "volume_accounting_gap": abs(assembly.total_volume - route_closed),
        "diameter_lower": diameter_lower,
        "diameter_upper": diameter_upper,
        "max_interface_gap": assembly.max_interface_gap,
    }
    claims = [
        ("volume_target_met", "volume_total", ">=", "volume_target"),
        ("scalar_floor_composed", "global_min_scalar", ">", "floor_composed"),
        ("hemisphere_floor_strict", "hemisphere_floor", ">", "curvature_target"),
        ("interfaces_glued", "max_interface_gap", "<=", DEFAULT_INTERFACE_TOL),
        ("volume_additivity", "volume_accounting_gap", "<=", 1e-6),
    ]
    parameters = {
        "dim": n,
        "volume_target": float(volume_target),
        "hemisphere": hemisphere.name,
        "sharpness": float(sharpness),
        "tube_radius": float(tube_radius),
        "grid_density": float(grid_density),
    }
    return _finalize("sphere_chain", parameters, quantities, claims,
                     provenance, {"chain": assembly}, certificate_path,
                     profiles_dir, tolerance)


def verify_volume_budget(hemisphere: IngredientMetric | None,
                         excess_scale: float, *,
                         diameter_target: float = 10.0,
                         dim: int = 3,
                         ball_radius: float | None = None,
                         grid_density: float = 1.0,
                         tolerance: float = DEFAULT_TOLERANCE,
                         certificate_path=None,
                         profiles_dir=None) -> PipelineResult:
    """Long thin tunnel from a certified hemisphere to a small sphere.

    The hemisphere is an external hypothesis: its volume must sit within
    omega_n * eps^n of the half-sphere reference and its floor above
    n(n-1).  A tunnel of length diameter_target and mouth radius below
    eps runs to a round sphere of radius 10 * eps, and the certificate
    walks the volume excess through five checked links: reference vs
    remnant, remnant vs tunnel, tunnel vs measured total, quadrature vs
    closed-form additivity, and total vs the a-priori budget
    reference + C * eps^(n-1) with C recorded and independent of eps.
    """
    if hemisphere is None:
        raise MissingIngredient(
            "an externally certified hemisphere is required; supply its "
            "floor and volume as an IngredientMetric")
    n = int(dim)
    if n < 3:
        raise ParameterOutOfRange("volume budget check needs dimension >= 3")
    target = float(n * (n - 1))
    omega = unit_sphere_volume(n)
    eps = float(excess_scale)
    if not 0.0 < eps <= 0.08:
        raise ParameterOutOfRange(
            "excess scale must lie in (0, 0.08]; beyond that the small "
            "sphere cannot keep its curvature above the target")
    if not diameter_target >= 0.0:
        raise ParameterOutOfRange("diameter target must be nonnegative")
    model_a, attach_a, hemi_body, hemi_model_volume = _hemisphere_end(
        hemisphere, n, target)
    delta = 0.8 * eps if ball_radius is None else float(ball_radius)
    if not 0.0 < delta < eps:
        raise ParameterOutOfRange(
            f"removed ball radius {delta:.6g} must be positive and smaller "
            f"than the excess scale {eps:.6g}")

    eta = 10.0 * eps
    eta_model = round_sphere(n, eta)
    floor = target + 0.5 * min(hemisphere.certified_floor - target,
                               eta_model.scalar_curvature - target)
    tube = delta / START_RADIUS_FACTOR
    tunnel = build_tunnel_between(
        model_a, eta_model, tube, tube, floor, length=diameter_target,
        grid_density=grid_density)
    mouth = START_RADIUS_FACTOR * tube
    ball_a = round_ball_volume(n, hemi_body.rho, mouth)
    cap_eta = round_ball_volume(n, eta, mouth)

    spec = [hemi_body, (None, tunnel),
            _Body("small_sphere_remnant", eta,
                  ("pole", eta_model.scalar_curvature))]
    provenance = {
        "pipeline": "volume_budget",
        "hemisphere": hemisphere.summary(),
        "ingredient_status": "EXTERNAL-TRUSTED" if
            hemisphere.trust == "external-trusted" else "closed-form",
        "attachment_model_a": attach_a,
        "small_sphere_radius": eta,
        "tunnel": tunnel.provenance,
    }
    assembly = _compose("volume_budget", spec, provenance, n - 1, mouth)
    hemi_piece, eta_piece = assembly.pieces[0], assembly.pieces[-1]

    pack = omega * eps ** n
    vol_reference = 0.5 * omega
    vol_remnant = hemisphere.volume - ball_a
    vol_tunnel = tunnel.total_volume
    vol_eta = omega * eta ** n - cap_eta
    volume_total = vol_remnant + vol_tunnel + vol_eta
    hemi_model_closed = hemi_model_volume - ball_a
    additivity_gap = (abs(hemi_piece.volume - hemi_model_closed)
                      + abs(eta_piece.volume - vol_eta))
    # a-priori, eps-free: lateral tube area times stretched length, plus
    # the small-sphere block at the largest admitted scale
    budget_constant = (1.2 * unit_sphere_volume(n - 1) * 0.46 ** (n - 1)
                       * (diameter_target + 1.0)
                       + (10.0 ** n + 2.0) * omega * 0.08)
    bound_final = vol_reference + budget_constant * eps ** (n - 1)
    diameter_lower, diameter_upper = assembly.diameter_bounds()
    global_min = min(assembly.min_scalar, hemisphere.certified_floor)

    quantities = {
        "curvature_target": target,
        "excess_scale": eps,
        "ball_radius": delta,
        "small_sphere_radius": eta,
        "ingredient_floor": hemisphere.certified_floor,
        "ingredient_volume": hemisphere.volume,
        "vol_reference": vol_reference,
        "hypothesis_gap": abs(hemisphere.volume - vol_reference),
        "hypothesis_allowance": pack,
        "ball_removed": ball_a,
        "vol_remnant": vol_remnant,
        "vol_tunnel": vol_tunnel,
        "vol_small_sphere": vol_eta,
        "volume_total": volume_total,
        "bound_removal": vol_remnant + 2.0 * pack,
        "bound_tunnel": vol_remnant + vol_tunnel + (10.0 ** n - 1.0) * pack,
        "excess_budget_constant": budget_constant,
        "bound_final": bound_final,
        "achieved_excess_constant": (volume_total - vol_reference)
                                    / eps ** (n - 1),
        "additivity_gap": additivity_gap,
        "global_min_scalar": global_min,
        "diameter_target": float(diameter_target),
        "diameter_lower": diameter_lower,
        "diameter_upper": diameter_upper,
        "max_interface_gap": assembly.max_interface_gap,
    }
    claims = [
        ("hypothesis_volume", "hypothesis_gap", "<", "hypothesis_allowance"),
        ("hypothesis_floor", "ingredient_floor", ">", "curvature_target"),
        ("link1_reference_vs_removal", "vol_reference", "<=", "bound_removal"),
        ("link2_removal_vs_tunnel", "bound_removal", "<=", "bound_tunnel"),
        ("link3_tunnel_vs_total", "bound_tunnel", "<=", "volume_total"),
        ("link4_additivity", "additivity_gap", "<=", 1e-6),
        ("link5_total_vs_budget", "volume_total", "<=", "bound_final"),
        ("scalar_floor", "global_min_scalar", ">", "curvature_target"),
        ("diameter_reached", "diameter_lower", ">=", "diameter_target"),
        ("interfaces_glued", "max_interface_gap", "<=", DEFAULT_INTERFACE_TOL),
    ]
    parameters = {
        "dim": n,
        "excess_scale": eps,
        "ball_radius": delta,
        "diameter_target": float(diameter_target),
        "hemisphere": hemisphere.name,
        "grid_density": float(grid_density),
    }
    return _finalize("volume_budget", parameters, quantities, claims,
                     provenance, {"chain": assembly}, certificate_path,
                     profiles_dir, tolerance)


# ----------------------------------------------------- plain certificates

def tunnel_certificate(dim: int = 3, curvature: float = 6.0,
                       tube_radius: float = 0.1, length: float = 2.0,
                       sharpness: float = 100.0, *,
                       grid_density: float = 1.0,
                       tolerance: float = DEFAULT_TOLERANCE,
                       certificate_path=None,
                       profiles_dir=None) -> PipelineResult:
    """Certify one tunnel within a single round ambient model.

    Claims the sampled scalar curvature stays above
    curvature - 1/sharpness, the diameter lower bound clears the
    requested length, and all interfaces glue below tolerance.  The
    volume is normalized by tube^n + length*tube^(n-1) so tunnels across
    scales can be compared against one constant.
    """
    n = int(dim)
    if n < 3:
        raise ParameterOutOfRange("tunnel certificate needs dimension >= 3")
    if not curvature > 0.0:
        raise ParameterOutOfRange("ambient curvature must be positive")
    model = AmbientModel(0, n, 1.0, curvature / (n * (n - 1)))
    tunnel = build_tunnel(model, tube_radius, length=length,
                          sharpness=sharpness, grid_density=grid_density)
    diameter_lower, diameter_upper = tunnel.diameter_bounds()
    norm = tube_radius ** n + length * tube_radius ** (n - 1)
    quantities = {
        "curvature": float(curvature),
        "floor": tunnel.provenance["floor"],
        "global_min_scalar": tunnel.min_scalar,
        "length_target": float(length),
        "diameter_lower": diameter_lower,
        "diameter_upper": diameter_upper,
        "volume_total": tunnel.total_volume,
        "achieved_volume_constant": tunnel.total_volume / norm,
        "max_interface_gap": tunnel.max_interface_gap,
    }
    claims = [
        ("scalar_floor", "global_min_scalar", ">", "floor"),
        ("length_reached", "diameter_lower", ">=", "length_target"),
        ("interfaces_glued", "max_interface_gap", "<=", DEFAULT_INTERFACE_TOL),
    ]
    parameters = {
        "dim": n,
        "curvature": float(curvature),
        "tube_radius": float(tube_radius),
        "length": float(length),
        "sharpness": float(sharpness),
        "grid_density": float(grid_density),
    }
    provenance = {"pipeline": "tunnel", "tunnel": tunnel.provenance}
    return _finalize("tunnel", parameters, quantities, claims, provenance,
                     {"tunnel": tunnel}, certificate_path, profiles_dir,
                     tolerance)


def surgery_certificate(base_dim: int, slice_dim: int, tube_radius: float, *,
                        base_radius: float = 1.0, slice_radius: float = 1.0,
                        grid_density: float = 1.0,
                        tolerance: float = DEFAULT_TOLERANCE,
                        certificate_path=None,
                        profiles_dir=None) -> PipelineResult:
    """Certify a codimension >= 3 surgery on a product of round spheres.

    The tube radius is also the allowance delta of both certified bands:
    scalar curvature above kappa - delta, which is the surgery builder's
    own curvature budget, and total volume within (1 +- delta) of the
    unmodified product.
    """
    delta = float(tube_radius)
    surgery = perform_surgery(base_dim, slice_dim, tube_radius,
                              base_radius=base_radius,
                              slice_radius=slice_radius,
                              grid_density=grid_density)
    kappa = surgery.provenance["floor"] + delta
    reference = surgery.provenance["volume_reference"]
    quantities = {
        "ambient_curvature": kappa,
        "floor": surgery.provenance["floor"],
        "global_min_scalar": surgery.min_scalar,
        "volume_reference": reference,
        "volume_total": surgery.total_volume,
        "volume_lower_band": (1.0 - delta) * reference,
        "volume_upper_band": (1.0 + delta) * reference,
        "max_interface_gap": surgery.max_interface_gap,
    }
    claims = [
        ("scalar_floor", "global_min_scalar", ">", "floor"),
        ("volume_above_band", "volume_total", ">=", "volume_lower_band"),
        ("volume_below_band", "volume_total", "<=", "volume_upper_band"),
        ("interfaces_glued", "max_interface_gap", "<=", DEFAULT_INTERFACE_TOL),
    ]
    parameters = {
        "base_dim": int(base_dim),
        "slice_dim": int(slice_dim),
        "tube_radius": float(tube_radius),
        "allowance": delta,
        "base_radius": float(base_radius),
        "slice_radius": float(slice_radius),
        "grid_density": float(grid_density),
    }
    provenance = {"pipeline": "surgery", "surgery": surgery.provenance}
    return _finalize("surgery", parameters, quantities, claims, provenance,
                     {"surgery": surgery}, certificate_path, profiles_dir,
                     tolerance)
