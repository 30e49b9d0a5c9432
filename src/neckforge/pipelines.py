"""Six constructions and their machine-checkable certificates.

Each construction is a spec plus its own claims.  A spec lists round
bodies and tunnels in chain order with the ingredients its end bodies
stand for; _glue builds it into one assembly and measures the standard
quantities (the tunnel and surgery certificates measure their assembly
as built), and _claims states the standard claims in one order: the
scalar floor, the diameter or length target when there is one,
interfaces_glued, and volume_additivity when bodies are present.  Each
builder then adds its own parameters, quantities and claims.

Ingredient slots follow one convention (_end).  A round ingredient
carries its exact ambient model and its remnant enters the assembly as a
real profile piece; anything else is summarized by its certified floor
and volume, the tunnel attaches to a round local stand-in of matching
curvature, and the certificate records attachment_model =
"round-standin" so the substitution is visible.  Trusted inputs are
marked external-trusted in the provenance, never silently assumed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .assembly import (DEFAULT_INTERFACE_TOL, PROFILE_NODES, _below, _chain,
                       _sampled_piece, _tunnel_between, build_tunnel,
                       build_tunnel_between, perform_surgery)
from .bending import START_RADIUS_FACTOR
from .certificate import (DEFAULT_TOLERANCE, make_certificate,
                          write_certificate)
from .errors import (ArtifactWriteFailed, FloorCheckFailed,
                     IngredientFloorTooLow, MissingIngredient,
                     ParameterOutOfRange)
from .models import AmbientModel, round_sphere, unit_sphere_volume
from .profiles import WarpProfile

__all__ = [
    "IngredientMetric",
    "round_sphere_ingredient",
    "product_ingredient",
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
        detail={"kind": "round", "half": True})


# ------------------------------------------------------------- chain parts

@dataclass(frozen=True)
class _Body:
    """A round body of a glued chain: an arc of the sphere of radius rho,
    whole the volume of that sphere (half of it for a hemisphere).

    An end body also names its far end: ("pole", pole scalar) closes it
    at the pole opposite its glue site, ("boundary", jet) stops it at the
    equator on a hemisphere's boundary jet.  A body may stand for an
    ingredient; one not placed summarizes it (see _end).
    """

    name: str
    rho: float
    whole: float
    far: tuple = (None, None)
    ingredient: IngredientMetric | None = None
    placed: bool = True


def _glue(name: str, spec, provenance: dict, n: int, mouth: float):
    """Build a spec into one chain; returns it with its standard quantities
    and each body's closed-form volume, by name.

    A spec lists round bodies and tunnels in chain order, _Body entries
    and (prefix, tunnel) pairs; a tunnel's placements are named
    prefix_<name> unless prefix is None.  The tunnels of one chain share
    one tube radius, so each tunnel mouth lies at the distance mouth from
    its glue site.  A body is the arc at distance u from a pole of its
    sphere: from mouth to pi*rho - mouth, or
    out to its far end (pi*rho at a pole, pi*rho/2 at a boundary) when no
    tunnel follows; a first body runs from its far end down to mouth.
    Seam jets are copied verbatim from the neighbouring tunnel pieces,
    so glued interfaces close with gap exactly zero.  A tunnel places its
    own records; a body equal to an earlier one, byte for byte and in its
    pole scalars, is placed as that body's record under its own name.

    A body's closed form is whole less one ball of radius mouth per
    tunnel beside it.  Every ingredient's floor bounds global_min_scalar,
    and volume_total adds to the placed pieces, per ingredient, its
    volume less what its body accounts for: whole if placed, else the
    closed form.  volume_accounting_gap sums quadrature less closed form
    over the placed bodies.
    """
    entries = []
    records = {}
    balls = {}
    closed = {}
    for i, item in enumerate(spec):
        if not isinstance(item, _Body):
            prefix, tunnel = item
            entries.extend((p.name if prefix is None else f"{prefix}_{p.name}",
                            p.role, tunnel.pieces[p.piece], p.reversed)
                           for p in tunnel.placements)
            continue
        left = spec[i - 1][1] if i > 0 else None
        right = spec[i + 1][1] if i + 1 < len(spec) else None
        if item.rho not in balls:
            balls[item.rho] = round_ball_volume(n, item.rho, mouth)
        mouths = (left is not None) + (right is not None)
        closed[item.name] = item.whole - mouths * balls[item.rho]
        if not item.placed:
            continue
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
            values=values, fiber_dim=n - 1,
            closed_start=closed_start, closed_end=closed_end,
            jet_start=(boundary if left is None
                       else left.boundary_jets(-1, "end")[0]),
            jet_end=(boundary if right is None
                     else right.boundary_jets(0, "start")[0]))
        poles = (end,) if kind == "pole" else ()
        key = (profile.content_key(), poles)
        if key not in records:
            records[key] = _sampled_piece(profile, pole_scalars=poles)
        entries.append((item.name, "remnant", records[key], False))
    assembly = _chain(name, entries, provenance)
    bodies = [b for b in spec
              if isinstance(b, _Body) and b.ingredient is not None]
    quantities = _measure(assembly, [b.ingredient.certified_floor
                                     for b in bodies])
    for b in bodies:
        quantities["volume_total"] += (b.ingredient.volume - b.whole
                                       if b.placed else closed[b.name])
    quantities["volume_accounting_gap"] = abs(sum(
        assembly.pieces[p.piece].volume - closed[p.name]
        for p in assembly.placements if p.name in closed))
    return assembly, quantities, closed


def _measure(assembly, floors=(), diameter: bool = True) -> dict:
    """The standard quantities of an assembly as built: global_min_scalar
    over its records and floors, max_interface_gap, volume_total and,
    unless diameter is False, the diameter bounds."""
    quantities = {
        "global_min_scalar": min([assembly.min_scalar, *floors]),
        "max_interface_gap": assembly.max_interface_gap,
        "volume_total": assembly.total_volume,
    }
    if diameter:
        (quantities["diameter_lower"],
         quantities["diameter_upper"]) = assembly.diameter_bounds()
    return quantities


def _claims(quantities: dict, floor: str, name: str = "scalar_floor") -> list:
    """The standard claims in their one order: global_min_scalar above the
    quantity floor, the diameter or length target if quantities hold one,
    interfaces_glued, and volume_additivity if they hold its gap."""
    claims = [(name, "global_min_scalar", ">", floor)]
    claims += [(f"{kind}_reached", "diameter_lower", ">=", f"{kind}_target")
               for kind in ("diameter", "length")
               if f"{kind}_target" in quantities]
    claims.append(("interfaces_glued", "max_interface_gap", "<=",
                   DEFAULT_INTERFACE_TOL))
    if "volume_accounting_gap" in quantities:
        claims.append(("volume_additivity", "volume_accounting_gap", "<=",
                       1e-6))
    return claims


def _end(ingredient: IngredientMetric, slot: str, n: int):
    """The ingredient in slot "ingredient" or "hemisphere" of a chain of
    dimension n, floor above n(n-1): the model its tunnel mouth lives in,
    how that was chosen, and its end body.

    A round ingredient attaches in its own exact model and its remnant,
    from the far pole, is placed.  Anything else attaches in the round
    sphere of its floor's curvature ("round-standin") and is summarized:
    its body, whole its declared volume, is not placed.  A hemisphere
    body is placed whatever its ingredient, stops on the totally geodesic
    boundary jet (rho, 0, -1/rho), and has whole omega_n rho^n / 2.
    """
    if ingredient.dim != n:
        raise ParameterOutOfRange(
            f"{slot} dimension {ingredient.dim} != chain dimension {n}")
    if not ingredient.certified_floor > n * (n - 1):
        raise IngredientFloorTooLow(
            f"{slot} floor {ingredient.certified_floor:.9g} must exceed "
            f"{float(n * (n - 1)):.9g} strictly; equality leaves no bending "
            "budget")
    model = ingredient.model
    if model is None:
        model = AmbientModel(0, n, 1.0,
                             ingredient.certified_floor / (n * (n - 1)))
    exact = ingredient.model is not None and not ingredient.detail.get("half")
    rho = model.slice_curv ** -0.5
    if slot == "hemisphere":
        body = _Body(f"{slot}_remnant", rho,
                     0.5 * unit_sphere_volume(n) * rho ** n,
                     ("boundary", (rho, 0.0, -1.0 / rho)), ingredient)
    else:
        body = _Body(f"{slot}_remnant", rho, ingredient.volume,
                     ("pole", model.scalar_curvature), ingredient, exact)
    return model, "exact-round" if exact else "round-standin", body


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


def _files(certificate_path, profiles_dir) -> tuple:
    """(certificate, profiles directory, root): the root is the certificate's
    directory, else the profiles one; every public pipeline calls this
    first, so a refusal costs no construction work. A certificate path
    that exists must be a regular file or a link to one."""
    cert = None if certificate_path is None else Path(certificate_path)
    if cert is not None and cert.exists() and not cert.is_file():
        raise ParameterOutOfRange(
            f"certificate path {cert} exists and is not a regular file")
    if profiles_dir is None:
        return cert, None, None
    profiles_dir = Path(profiles_dir)
    root = (profiles_dir if cert is None else cert.parent).resolve()
    _below(profiles_dir, root, "profiles directory")
    return cert, profiles_dir, root


def _finalize(kind: str, parameters: dict, quantities: dict, claims,
              provenance: dict, assemblies: dict, files: tuple,
              tolerance: float) -> PipelineResult:
    """Save the one assembly below the root _files gave, fingerprint its
    manifest, emit the certificate; it records n_profile_nodes here. An
    OSError of any file step is raised as ArtifactWriteFailed."""
    cert, profiles_dir, root = files
    artifacts = {}
    try:
        if profiles_dir is not None:
            [(label, assembly)] = assemblies.items()
            manifest = assembly.save_files(
                profiles_dir,
                certificate_ref=None if cert is None else cert.name)
            artifacts[f"{label}_manifest"] = {
                "file": manifest.resolve().relative_to(root).as_posix(),
                "sha256": hashlib.sha256(manifest.read_bytes()).hexdigest(),
            }
        parameters = {**parameters, "n_profile_nodes": PROFILE_NODES}
        doc = make_certificate(kind, parameters, quantities, claims,
                               provenance=provenance, artifacts=artifacts,
                               tolerance=tolerance)
        if cert is not None:
            cert.parent.mkdir(parents=True, exist_ok=True)
            write_certificate(doc, cert)
    except OSError as exc:
        raise ArtifactWriteFailed(f"cannot write the build's files: {exc}"
                                  ) from exc
    return PipelineResult(certificate=doc, assemblies=dict(assemblies),
                          certificate_path=cert)


# ---------------------------------------------------------------- gluings

def _attachment(kind: str, ingredient: IngredientMetric,
                hemisphere: IngredientMetric | None, diameter_target: float,
                sharpness: float, tube_radius: float, grid_density: float,
                files: tuple, tolerance: float, parameters=(), quantities=(),
                claims=(), provenance=()) -> PipelineResult:
    """One hemisphere attachment, see attach_hemisphere; the last four
    arguments are the caller's own entries, added to the attachment's."""
    n = ingredient.dim
    target = float(n * (n - 1))
    if hemisphere is None:
        hemisphere = hemisphere_standin(n)
    if not diameter_target >= 0.0:
        raise ParameterOutOfRange("diameter target must be nonnegative")
    model_a, attach_a, ingredient_body = _end(ingredient, "ingredient", n)
    model_b, attach_b, hemi_body = _end(hemisphere, "hemisphere", n)
    floor = max(target, min(model_a.scalar_curvature,
                            model_b.scalar_curvature) - 1.0 / sharpness)
    tunnel = build_tunnel_between(
        model_a, model_b, tube_radius, tube_radius, floor,
        length=diameter_target, grid_density=grid_density)
    mouth = START_RADIUS_FACTOR * tube_radius
    provenance = {
        "pipeline": kind,
        "ingredient": ingredient.summary(),
        "hemisphere": hemisphere.summary(),
        "attachment_model_a": attach_a,
        "attachment_model_b": attach_b,
        "glue_site_clearance": 0.5 * math.pi * hemi_body.rho - mouth,
        "boundary_policy": "glued at an interior pole only; the totally "
                           "geodesic boundary annulus is never modified",
        "tunnel": tunnel.provenance,
        **dict(provenance),
    }
    chain, standard, _ = _glue(kind, [ingredient_body, (None, tunnel),
                                      hemi_body], provenance, n, mouth)
    hemi_arc = chain.placed[-1].profile
    boundary_jet = hemi_body.far[1]
    s = float(hemi_arc.grid[-1])  # the open end, sampled from its spline
    quantities = {
        "curvature_target": target,
        "ingredient_floor": ingredient.certified_floor,
        "hemisphere_floor": hemisphere.certified_floor,
        "tunnel_floor": floor,
        "diameter_target": float(diameter_target),
        **standard,
        "boundary_jet_gap": max(
            abs(a - b) for a, b in
            zip(hemi_arc.boundary_jets("end")[0], boundary_jet)),
        "boundary_profile_deviation": max(
            abs(float(hemi_arc.derivative(s, k)) - boundary_jet[k])
            for k in range(3)),
        **dict(quantities),
    }
    claims = _claims(quantities, "curvature_target") + [
        ("ingredient_floor_strict", "ingredient_floor", ">", "curvature_target"),
        ("hemisphere_floor_strict", "hemisphere_floor", ">", "curvature_target"),
        ("boundary_unchanged", "boundary_jet_gap", "<=", 1e-8),
        ("boundary_profile_consistent", "boundary_profile_deviation", "<=", 1e-4),
        *claims,
    ]
    parameters = {
        "dim": n,
        "ingredient": ingredient.name,
        "hemisphere": hemisphere.name,
        "diameter_target": float(diameter_target),
        "sharpness": float(sharpness),
        "tube_radius": float(tube_radius),
        "grid_density": float(grid_density),
        **dict(parameters),
    }
    return _finalize(kind, parameters, quantities, claims, provenance,
                     {"chain": chain}, files, tolerance)


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
    files = _files(certificate_path, profiles_dir)
    return _attachment("hemisphere_attachment", ingredient, hemisphere,
                       diameter_target, sharpness, tube_radius, grid_density,
                       files, tolerance)


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
    files = _files(certificate_path, profiles_dir)
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
    return _attachment(
        "product_attachment", ingredient, hemisphere, diameter_target,
        sharpness, tube_radius, grid_density, files, tolerance,
        parameters={"factor_dims": [p, q], "rescalings": swept},
        quantities={"product_floor_recomputed": ingredient.recomputed_floor(),
                    "factor_radius": ingredient.detail["factor_radius"]},
        claims=[("product_floor_strict", "product_floor_recomputed", ">",
                 "curvature_target")],
        provenance={"construction_note": note,
                    "factor_radius_swept": bool(swept)})


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
    files = _files(certificate_path, profiles_dir)
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
    model_b, attach_b, hemi_body = _end(hemisphere, "hemisphere", n)

    unit = round_sphere(n, 1.0)
    link = build_tunnel(unit, tube_radius, length=0.0, sharpness=sharpness,
                        grid_density=grid_density)
    # side a is the link's unit side: same tube, floor and waist radius
    attach = _tunnel_between(unit, model_b, tube_radius, tube_radius,
                             target - 1.0 / sharpness, 0.0, grid_density, link)
    spec = [_Body("sphere_01", 1.0, omega, ("pole", target))]
    for i in range(1, m):
        spec += [(f"link{i:02d}", link), _Body(f"sphere_{i + 1:02d}", 1.0,
                                                 omega)]
    spec += [("attach", attach), hemi_body]
    provenance = {
        "pipeline": "sphere_chain",
        "hemisphere": hemisphere.summary(),
        "attachment_model_b": attach_b,
        "link_tunnel": link.provenance,
        "attach_tunnel": attach.provenance,
        "link_note": "links place one built tunnel's records, differing "
                     "only by name; the attach tunnel's side a is its side",
    }
    chain, standard, _ = _glue("sphere_chain", spec, provenance, n,
                               START_RADIUS_FACTOR * tube_radius)
    quantities = {
        "curvature_target": target,
        "volume_target": float(volume_target),
        "unit_sphere_volume": omega,
        "sphere_count": m,
        "hemisphere_floor": hemisphere.certified_floor,
        "floor_composed": target - m / sharpness,
        **standard,
    }
    claims = _claims(quantities, "floor_composed", "scalar_floor_composed") + [
        ("volume_target_met", "volume_total", ">=", "volume_target"),
        ("hemisphere_floor_strict", "hemisphere_floor", ">", "curvature_target"),
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
                     provenance, {"chain": chain}, files, tolerance)


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
    files = _files(certificate_path, profiles_dir)
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
    model_a, attach_a, hemi_body = _end(hemisphere, "hemisphere", n)
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
    spec = [hemi_body, (None, tunnel),
            _Body("small_sphere_remnant", eta, omega * eta ** n,
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
    chain, standard, closed = _glue("volume_budget", spec, provenance, n,
                                    mouth)
    hemi_piece, eta_piece = chain.placed[0], chain.placed[-1]

    pack = omega * eps ** n
    vol_reference = 0.5 * omega
    ball_a = round_ball_volume(n, hemi_body.rho, mouth)
    vol_remnant = hemisphere.volume - ball_a
    vol_tunnel = tunnel.total_volume
    vol_eta = closed["small_sphere_remnant"]
    # the budget's own total: its remnants in closed form, the hemisphere
    # at its declared volume, each checked against quadrature in link 4
    volume_total = vol_remnant + vol_tunnel + vol_eta
    additivity_gap = (abs(hemi_piece.volume - closed[hemi_body.name])
                      + abs(eta_piece.volume - vol_eta))
    # a-priori, eps-free: lateral tube area times stretched length, plus
    # the small-sphere block at the largest admitted scale
    budget_constant = (1.2 * unit_sphere_volume(n - 1) * 0.46 ** (n - 1)
                       * (diameter_target + 1.0)
                       + (10.0 ** n + 2.0) * omega * 0.08)
    bound_final = vol_reference + budget_constant * eps ** (n - 1)
    quantities = {
        **standard,
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
        "diameter_target": float(diameter_target),
    }
    del quantities["volume_accounting_gap"]  # link 4 checks each body
    claims = _claims(quantities, "curvature_target") + [
        ("hypothesis_volume", "hypothesis_gap", "<", "hypothesis_allowance"),
        ("hypothesis_floor", "ingredient_floor", ">", "curvature_target"),
        ("link1_reference_vs_removal", "vol_reference", "<=", "bound_removal"),
        ("link2_removal_vs_tunnel", "bound_removal", "<=", "bound_tunnel"),
        ("link3_tunnel_vs_total", "bound_tunnel", "<=", "volume_total"),
        ("link4_additivity", "additivity_gap", "<=", 1e-6),
        ("link5_total_vs_budget", "volume_total", "<=", "bound_final"),
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
                     provenance, {"chain": chain}, files, tolerance)


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
    files = _files(certificate_path, profiles_dir)
    n = int(dim)
    if n < 3:
        raise ParameterOutOfRange("tunnel certificate needs dimension >= 3")
    if not curvature > 0.0:
        raise ParameterOutOfRange("ambient curvature must be positive")
    model = AmbientModel(0, n, 1.0, curvature / (n * (n - 1)))
    tunnel = build_tunnel(model, tube_radius, length=length,
                          sharpness=sharpness, grid_density=grid_density)
    norm = tube_radius ** n + length * tube_radius ** (n - 1)
    quantities = {
        "curvature": float(curvature),
        "floor": tunnel.provenance["floor"],
        "length_target": float(length),
        **_measure(tunnel),
        "achieved_volume_constant": tunnel.total_volume / norm,
    }
    parameters = {
        "dim": n,
        "curvature": float(curvature),
        "tube_radius": float(tube_radius),
        "length": float(length),
        "sharpness": float(sharpness),
        "grid_density": float(grid_density),
    }
    provenance = {"pipeline": "tunnel", "tunnel": tunnel.provenance}
    return _finalize("tunnel", parameters, quantities,
                     _claims(quantities, "floor"), provenance,
                     {"tunnel": tunnel}, files, tolerance)


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
    files = _files(certificate_path, profiles_dir)
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
        **_measure(surgery, diameter=False),
        "volume_reference": reference,
        "volume_lower_band": (1.0 - delta) * reference,
        "volume_upper_band": (1.0 + delta) * reference,
    }
    claims = _claims(quantities, "floor") + [
        ("volume_above_band", "volume_total", ">=", "volume_lower_band"),
        ("volume_below_band", "volume_total", "<=", "volume_upper_band"),
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
                     {"surgery": surgery}, files, tolerance)
