"""Gluing warped pieces into certified tunnels and surgery necks.

An assembly is a chain of its certified pieces, each held once and
placed in order and direction. It represents a smooth metric when the
boundary jets of every adjacent pair agree through second order:
matching (value, d1, d2) of each warp across the shared fiber is exactly
the condition for the glued warp to be C^2, which keeps scalar curvature
continuous through the seam. Interfaces are therefore checked on jets,
never on resampled values.

Every piece carries a certified lower bound for its scalar curvature plus
the method that produced it:

* ``swept-curve``: the piece resamples a bending curve, and the bound is
  taken from the curve's own verification grid. The fixed-node respline
  stored in the piece cannot resolve the innermost tail octaves, so the
  curve, not the respline, is the authority.
* ``profile-sampled``: minimum of the closed-form curvature of the stored
  spline over its nodes and midpoints. Used for collars, cylinders and
  caps, whose node counts are chosen to resolve them fully.
* a ``+declared-poles`` suffix marks closed pieces where a band of
  samples next to each round closure is excluded (a cubic spline
  misstates curvature right at a pole) and the analytic pole value is
  supplied by the construction instead.

Transition pieces (collars, homotopy legs) move warp values along quintic
ramps that are C^2-flat at both ends, one warp per leg so the doubly
warped cross term drops out. Their curvature deficit relative to the
static warp values scales like stretch^-2, so doubling the stretch always
finds an admissible leg when one exists at all.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bending import BendingCurve, CurveDesignParams, design_bending_curve
from .certificate import _incoming
from .curvature import round_closure_curvature
from .errors import (CodimensionTooSmall, InfeasibleBudget, InterfaceMismatch,
                     ParameterOutOfRange)
from .measure import diameter_bounds, profile_volume
from .models import AmbientModel, unit_sphere_volume
from .numerics import smoothstep5
from .profiles import make_profile

__all__ = [
    "AssemblyPiece",
    "BoundaryInterface",
    "Assembly",
    "certified_min_scalar",
    "slope_deficit",
    "collar_metric",
    "choose_stretch",
    "boundary_homotopy",
    "cap_profile",
    "build_tunnel",
    "build_tunnel_between",
    "perform_surgery",
]

DEFAULT_INTERFACE_TOL = 1e-8
# nodes per resampled piece; certificates record it as n_profile_nodes
PROFILE_NODES = 1024
# grid nodes next to a closed end whose curvature samples are excluded
POLE_MARGIN = 8
# choose_stretch tries base_stretch * 2^i for i = 0..MAX_DOUBLINGS
MAX_DOUBLINGS = 20
# fraction of a cap's closure radius spent on the quintic ramp of psi'
CAP_RAMP_FRACTION = 0.3
# neck cuts closer than this fraction of the curve length are merged
SEGMENT_MERGE_REL = 1e-6
# directory of the piece store, beside an assembly.json manifest
STORE_DIR = "pieces"


def certified_min_scalar(profile, pole_scalars: tuple = ()) -> float:
    """Lower bound for the scalar curvature of a stored profile.

    Samples the spline curvature on nodes and midpoints, excluding a
    POLE_MARGIN-node band next to closed ends where a finite spline cannot
    represent an exact round closure; constructions that close poles pass
    the analytic pole values through pole_scalars.
    """
    closed_start, closed_end = profile.closed_ends
    if (closed_start or closed_end) and not pole_scalars:
        raise ParameterOutOfRange(
            "closed profiles need declared pole scalar values")
    s, R = profile.curvature_samples()
    grid = profile.grid
    h = float(grid[1] - grid[0])
    lo = float(grid[0])
    hi = float(grid[-1])
    if closed_start:
        lo += POLE_MARGIN * h
    if closed_end:
        hi -= POLE_MARGIN * h
    mask = (s >= lo) & (s <= hi)
    vals = [float(np.min(R[mask]))] if np.any(mask) else []
    vals.extend(float(x) for x in pole_scalars)
    if not vals:
        raise ParameterOutOfRange("pole margin excluded every sample")
    return min(vals)


def slope_deficit(profile) -> float:
    """Largest sampled gap between static and actual scalar curvature.

    Static means the curvature the same warp values would have with all s
    derivatives suppressed: sum of m(m-1)/w^2 over the factors. The gap
    isolates the price of the transition slope; for a quintic ramp leg it
    scales like stretch^-2 exactly, since both derivative terms do.
    """
    s, R = profile.curvature_samples()
    static = np.zeros_like(R)
    for v, d in zip(profile.component_values(s), profile.component_dims):
        if d > 1:
            static = static + d * (d - 1) / (v * v)
    return float(np.max(static - R))


def _as_warp_tuple(values, what: str) -> tuple:
    out = tuple(float(v) for v in np.atleast_1d(values))
    if len(out) not in (1, 2):
        raise ParameterOutOfRange(f"{what} must list one or two warps")
    if any(not v > 0.0 for v in out):
        raise ParameterOutOfRange(f"{what} warp values must be positive")
    return out


def _flat_jets(warps) -> tuple:
    return tuple((v, 0.0, 0.0) for v in warps)


def collar_metric(start, end, dims, stretch: float,
                  n_nodes: int = PROFILE_NODES):
    """One transition leg: every warp follows a C^2-flat quintic ramp.

    start and end give the warp values per factor (one or two entries),
    dims the factor dimensions. Boundary jets are exactly (value, 0, 0),
    so a leg glues against anything whose facing jet is flat.
    """
    start = _as_warp_tuple(start, "start")
    end = _as_warp_tuple(end, "end")
    dims = tuple(int(d) for d in np.atleast_1d(dims))
    if len(start) != len(end) or len(start) != len(dims):
        raise ParameterOutOfRange("start, end and dims must have equal length")
    if not stretch > 0.0:
        raise ParameterOutOfRange("stretch must be positive")
    if n_nodes < 8:
        raise ParameterOutOfRange("n_nodes must be >= 8")
    grid = np.linspace(0.0, float(stretch), int(n_nodes))
    w = smoothstep5(grid / stretch)
    return make_profile(grid, [a + (b - a) * w for a, b in zip(start, end)],
                        dims, jets_start=_flat_jets(start),
                        jets_end=_flat_jets(end))


def choose_stretch(start, end, dims, floor: float, base_stretch: float):
    """Shortest doubling stretch whose leg clears the curvature floor.

    Tries base_stretch * 2^i for i = 0..MAX_DOUBLINGS and returns the
    first (leg, certified bound) pair with bound >= floor. The slope
    deficit halves quadratically per doubling, so failure at the cap
    means the static warp values themselves sit below the floor; that is
    reported as InfeasibleBudget.
    """
    if not base_stretch > 0.0:
        raise ParameterOutOfRange("base_stretch must be positive")
    best = -math.inf
    for i in range(MAX_DOUBLINGS + 1):
        leg = collar_metric(start, end, dims, base_stretch * (2.0 ** i))
        bound = certified_min_scalar(leg)
        if bound >= floor:
            return leg, bound
        best = max(best, bound)
    raise InfeasibleBudget(
        f"no stretch up to base_stretch * 2^{MAX_DOUBLINGS} reaches the "
        f"curvature floor {floor:.6g}; best certified bound {best:.6g}")


def boundary_homotopy(start, end, dims, floor: float, base_stretch: float):
    """Deform boundary warp data one factor at a time, slice warp first.

    Returns a tuple of (leg, bound) pairs; factors already in agreement
    contribute no leg. Moving a single warp per leg kills the doubly
    warped cross term, so each leg is certified by the same closed form
    as a plain collar.
    """
    start = _as_warp_tuple(start, "start")
    end = _as_warp_tuple(end, "end")
    dims = tuple(int(d) for d in np.atleast_1d(dims))
    if len(start) != len(end) or len(start) != len(dims):
        raise ParameterOutOfRange("start, end and dims must have equal length")
    legs = []
    cur = list(start)
    for idx in range(len(dims) - 1, -1, -1):
        if cur[idx] == end[idx]:
            continue
        nxt = list(cur)
        nxt[idx] = end[idx]
        legs.append(choose_stretch(tuple(cur), tuple(nxt), dims, floor,
                                   base_stretch))
        cur = nxt
    return tuple(legs)


def cap_profile(base_dim: int, link_value: float, link_dim: int,
                closure_radius: float = 1.0):
    """Disk cap D^(base_dim+1) x S^link_dim closing the base warp.

    The base warp is closure_radius * cos(psi(s)), where psi' ramps from 0
    to 1/closure_radius along a quintic over CAP_RAMP_FRACTION *
    closure_radius and then holds, so the start is C^2-flat at the full
    closure_radius and the end is an exact round closure of curvature
    radius closure_radius. The link warp stays at link_value. Returns
    (profile, pole_scalar) with the analytic pole curvature
    base*(base+1)/closure_radius^2 + link*(link-1)/link_value^2.
    """
    p = int(base_dim)
    if p < 1:
        raise ParameterOutOfRange(
            "cap_profile needs base_dim >= 1; a base_dim 0 cap is just a "
            "round ball profile")
    if not link_value > 0.0 or not closure_radius > 0.0:
        raise ParameterOutOfRange("link_value and closure_radius must be positive")
    a_r = float(closure_radius)
    ell = CAP_RAMP_FRACTION * a_r
    psi_ramp = 0.5 * ell / a_r
    s_end = ell + a_r * (math.pi / 2.0 - psi_ramp)
    grid = np.linspace(0.0, s_end, PROFILE_NODES)
    x = np.minimum(grid / ell, 1.0)
    # integral of the quintic ramp: int_0^x S5 = x^4 (x^2 - 3x + 2.5)
    ramp_int = (ell / a_r) * x ** 4 * (x * x - 3.0 * x + 2.5)
    psi = np.where(grid <= ell, ramp_int, psi_ramp + (grid - ell) / a_r)
    va = a_r * np.cos(psi)
    va[-1] = 0.0
    vb = np.full(grid.size, float(link_value))
    pole = (round_closure_curvature(p, a_r)
            + link_dim * (link_dim - 1) / link_value ** 2)
    profile = make_profile(
        grid, (va, vb), (p, int(link_dim)), closed_end=0,
        jets_start=_flat_jets((a_r, link_value)),
        jets_end=((0.0, -1.0, 0.0), (link_value, 0.0, 0.0)))
    return profile, pole


# -- assembled chains ---------------------------------------------------------

def _below(path, root: Path, what: str) -> None:
    """The one rule for where a build writes: path must resolve below root."""
    if not Path(path).resolve().is_relative_to(root):
        raise ParameterOutOfRange(f"{what} {path} is not below {root}")


@dataclass(frozen=True, eq=False)
class AssemblyPiece:
    """A profile and its certification record, which serves the piece's
    every placement: volume and curvature bound ignore the direction."""

    profile: object
    min_scalar: float
    scalar_method: str
    volume: float
    pole_scalars: tuple = ()


# one position of a chain: its name and role, the index of its record in
# Assembly.pieces, and whether it traverses that profile from end to start
Placement = namedtuple("Placement", "name role piece reversed")
# one distinct seam: the record index and reversed flag of either side,
# and the jet gap between them
BoundaryInterface = namedtuple(
    "BoundaryInterface", "left left_reversed right right_reversed mismatch")


@dataclass(eq=False)
class Assembly:
    """Each certified piece once, where they go, in chain order, and each
    distinct seam once; totals are taken over placements."""

    name: str
    pieces: tuple
    placements: tuple
    interfaces: tuple
    provenance: dict = field(default_factory=dict)

    @property
    def placed(self) -> list:
        """The record at each position, in chain order."""
        return [self.pieces[p.piece] for p in self.placements]

    @property
    def total_volume(self) -> float:
        return float(sum(p.volume for p in self.placed))

    @property
    def total_length(self) -> float:
        return float(sum(p.profile.length for p in self.placed))

    @property
    def min_scalar(self) -> float:
        return min(p.min_scalar for p in self.pieces)

    @property
    def max_interface_gap(self) -> float:
        return max((i.mismatch for i in self.interfaces), default=0.0)

    def piece(self, name: str) -> AssemblyPiece:
        for p in self.placements:
            if p.name == name:
                return self.pieces[p.piece]
        raise KeyError(name)

    def boundary_jets(self, position: int, end: str) -> tuple:
        """The jets at one end of the piece at position, in its direction:
        a reversed placement reads its profile's other end, d1 negated."""
        p = self.placements[position]
        profile = self.pieces[p.piece].profile
        if not p.reversed:
            return profile.boundary_jets(end)
        other = {"start": "end", "end": "start"}.get(end, end)
        return tuple((v, -d1, d2) for v, d1, d2 in profile.boundary_jets(other))

    def diameter_bounds(self):
        return diameter_bounds([p.profile for p in self.placed])

    def save_files(self, out_dir, certificate_ref: str | None = None) -> Path:
        """Write the piece store, each profile once as pieces/<sha256 of the
        file>.piece, and the assembly.json manifest (format version 3) of
        pieces, placements and interfaces; returns its path. A reader gets
        the piece at a position as load_profile_csv of its pieces entry's
        file, then .reverse() if the placement is reversed. Every file is
        written to a new temporary file, then moved over its name, so a
        link planted there is replaced, never followed, and a failed write
        or move leaves no temporary file. A store that resolves outside
        out_dir is refused before any write.
        """
        out = Path(out_dir)
        store = out / STORE_DIR
        _below(store, out.resolve(), "piece store")
        store.mkdir(parents=True, exist_ok=True)
        fingerprints = {}  # bytes of a stored profile -> fingerprint
        entries = []
        for record in self.pieces:
            profile = record.profile
            data = profile.canonical_bytes()
            if data not in fingerprints:
                fingerprints[data] = hashlib.sha256(data).hexdigest()
                with _incoming(store) as incoming:
                    Path(incoming).write_bytes(data)
                    os.replace(incoming, store / f"{fingerprints[data]}.piece")
            fingerprint = fingerprints[data]
            entries.append({
                "file": f"{STORE_DIR}/{fingerprint}.piece",
                "fingerprint": fingerprint,
                "kind": profile.kind,
                "dims": list(profile.component_dims),
                "length": profile.length,
                "volume": record.volume,
                "min_scalar": record.min_scalar,
                "scalar_method": record.scalar_method,
                "pole_scalars": list(record.pole_scalars),
            })
        doc = {
            "format_version": 3,
            "name": self.name,
            "pieces": entries,
            "placements": [p._asdict() for p in self.placements],
            "interfaces": [i._asdict() for i in self.interfaces],
            "provenance": self.provenance,
            "certificate_ref": certificate_ref,
            "totals": {"volume": self.total_volume,
                       "length": self.total_length,
                       "min_scalar": self.min_scalar,
                       "max_interface_gap": self.max_interface_gap},
        }
        with _incoming(out) as manifest:
            Path(manifest).write_text(
                json.dumps(doc, sort_keys=True, indent=2) + "\n")
            os.replace(manifest, out / "assembly.json")
        return out / "assembly.json"


def _jet_gap(left_jets, right_jets) -> float:
    if len(left_jets) != len(right_jets):
        raise InterfaceMismatch("glued pieces have different factor structures")
    gap = 0.0
    for jl, jr in zip(left_jets, right_jets):
        for a, b in zip(jl, jr):
            gap = max(gap, abs(a - b))
    return gap


def _sampled_piece(profile, pole_scalars=()) -> AssemblyPiece:
    method = "profile-sampled" + ("+declared-poles" if pole_scalars else "")
    return AssemblyPiece(
        profile=profile,
        min_scalar=certified_min_scalar(profile, pole_scalars=pole_scalars),
        scalar_method=method, volume=profile_volume(profile),
        pole_scalars=tuple(float(x) for x in pole_scalars))


def _chain(name: str, entries, provenance: dict) -> Assembly:
    """The assembly of (name, role, record, reversed) entries in chain
    order: each record object enters pieces once, and each distinct seam,
    a pair of adjacent (record, reversed) sides, is checked once."""
    records = {id(record): record for _, _, record, _ in entries}
    index = {rid: i for i, rid in enumerate(records)}
    placements = [Placement(label, role, index[id(record)], flipped)
                  for label, role, record, flipped in entries]
    chain = Assembly(name, tuple(records.values()), tuple(placements), (),
                     provenance)
    seams = {}
    for i, (left, right) in enumerate(zip(placements, placements[1:])):
        key = (left.piece, left.reversed, right.piece, right.reversed)
        if key not in seams:
            gap = _jet_gap(chain.boundary_jets(i, "end"),
                           chain.boundary_jets(i + 1, "start"))
            if gap > DEFAULT_INTERFACE_TOL:
                raise InterfaceMismatch(
                    f"{left.name} -> {right.name}: jet gap {gap:.3e} "
                    f"exceeds {DEFAULT_INTERFACE_TOL:.1e}")
            seams[key] = BoundaryInterface(*key, mismatch=gap)
    chain.interfaces = tuple(seams.values())
    return chain


# -- neck segmentation --------------------------------------------------------

def _neck_segments(curve: BendingCurve):
    """Cut points and roles for resampling a bending curve into pieces.

    Cuts at every phase change and additionally at radius halvings, so no
    piece spans more than about one octave of the link radius; a fixed
    node count then resolves each piece. Returns [(role, s0, s1), ...].
    """
    breaks = dict(curve.phase_breaks)
    cuts = {s for _, s in curve.phase_breaks} | {curve.length}
    s_horiz = breaks["horizontal"]
    n_h = int(np.searchsorted(curve.s_nodes, s_horiz, side="left"))
    s_sub = curve.s_nodes[:n_h + 1]
    r_sub = curve.radius_nodes[:n_h + 1]
    r_top = float(curve.radius_at(breaks["follow"]))
    r_end = float(r_sub[-1])
    target = 0.5 * r_top
    while target > 1.25 * r_end:
        cuts.add(float(np.interp(-target, -r_sub, s_sub)))
        target *= 0.5
    ordered = sorted(cuts)
    merged = [ordered[0]]
    for s in ordered[1:]:
        if s - merged[-1] > SEGMENT_MERGE_REL * curve.length:
            merged.append(s)
    merged[-1] = curve.length
    phase_at = sorted(breaks.items(), key=lambda kv: kv[1])
    roles = {"vertical": "ambient_annulus", "horizontal": "waist_run"}
    segments = []
    for s0, s1 in zip(merged[:-1], merged[1:]):
        mid = 0.5 * (s0 + s1)
        phase = next(name for name, s in reversed(phase_at) if s <= mid)
        segments.append((roles.get(phase, "bent_neck"), s0, s1))
    return segments


def _curve_pieces(curve: BendingCurve, prefix: str):
    """The curve's pieces as _chain entries, one per _neck_segments cut;
    the jets at every cut come from one evaluation of the curve."""
    segments = _neck_segments(curve)
    curve._cut_jets([segments[0][1]] + [s1 for _, _, s1 in segments])
    pieces = []
    for i, (role, s0, s1) in enumerate(segments):
        profile = curve.segment_profile(s0, s1, n_nodes=PROFILE_NODES)
        pieces.append((f"{prefix}{i:02d}_{role}", role, AssemblyPiece(
            profile=profile, min_scalar=curve.min_scalar_on(s0, s1),
            scalar_method="swept-curve", volume=profile_volume(profile)),
            False))
    return pieces


def _annulus_deviation(curve: BendingCurve, piece: AssemblyPiece) -> float:
    """Max gap between the first piece and the literal ambient annulus."""
    grid = piece.profile.grid
    exact = curve.model.warp(curve.start_radius - grid)
    link_values = piece.profile.warps[-1][0]
    return float(np.max(np.abs(link_values - exact)))


def _cylinder_radius(model: AmbientModel, tube_radius: float,
                     floor: float) -> float:
    """Waist cylinder radius: order tube_radius, but clearing the floor.

    Capping by 0.81 * sqrt(m(m-1)/residual) leaves the cylinder curvature
    at least the floor divided by 0.9^2, a 23 percent cushion. Keeping the
    radius at the tube scale rather than the (much smaller) curve waist
    makes piece volumes depend on the tube parameters, not on the budget.
    """
    m = model.slice_dim - 1
    a = 0.9 * tube_radius
    p = model.base_dim
    residual = floor - (p * (p - 1) / model.base_radius ** 2 if p else 0.0)
    if residual > 0.0:
        a = min(a, 0.81 * math.sqrt(m * (m - 1) / residual))
    return a


def _cylinder_piece(model: AmbientModel, radius: float, length: float):
    n_nodes = PROFILE_NODES // 8
    grid = np.linspace(0.0, float(length), n_nodes)
    warps, dims = model.fiber(radius)
    flat = _flat_jets(warps)
    profile = make_profile(grid, [np.full(n_nodes, v) for v in warps], dims,
                           jets_start=flat, jets_end=flat)
    return "cylinder", "cylinder", _sampled_piece(profile), False


def _model_provenance(model: AmbientModel) -> dict:
    return {
        "base_dim": model.base_dim,
        "slice_dim": model.slice_dim,
        "base_radius": model.base_radius,
        "slice_curv": model.slice_curv,
        "scalar_curvature": model.scalar_curvature,
    }


# -- builders -----------------------------------------------------------------

def _neck(params: CurveDesignParams, end: tuple, floor: float,
          prefix: str, stem: str):
    """A designed curve, its bent-neck pieces, then the collar legs that
    move its waist warps to end, each certified above floor.

    Returns (curve, pieces), pieces as _chain entries; neck pieces are
    named {prefix}NN_<role> and legs {stem}_0, {stem}_1, ...
    """
    curve = design_bending_curve(params)
    pieces = _curve_pieces(curve, prefix)
    start, dims = params.model.fiber(
        float(params.model.warp(curve.end_radius)))
    for j, (leg, bound) in enumerate(boundary_homotopy(
            start, end, dims, floor, 0.25 * params.tube_radius)):
        pieces.append((f"{stem}_{j}", "collar", AssemblyPiece(
            profile=leg, min_scalar=bound, scalar_method="profile-sampled",
            volume=profile_volume(leg)), False))
    return curve, pieces


def _tunnel_side(model: AmbientModel, tube_radius: float, budget: float,
                 collar_floor: float, cylinder_radius: float,
                 grid_density: float):
    """Pieces a..., ambient annulus down to cylinder mouth, and their stats."""
    params = CurveDesignParams(model=model, tube_radius=tube_radius,
                               budget=budget, grid_density=grid_density)
    curve, pieces = _neck(params, model.fiber(cylinder_radius)[0],
                          collar_floor, "a", "acollar")
    check = curve.check
    side_stats = {
        "curve_length": curve.length,
        "curve_min_scalar": check.min_scalar,
        "curve_margin": check.margin,
        "curve_cross_check": check.cross_check_error,
        "start_radius": curve.start_radius,
        "waist_radius": curve.end_radius,
        "annulus_deviation": _annulus_deviation(curve, pieces[0][2]),
    }
    return pieces, side_stats


def _join(name: str, side_a, middle, side_b, provenance: dict) -> Assembly:
    """Side a, the waist cylinder if any, then side b end to start, named
    b...: the one place a second side goes. Sets volume_total."""
    side_b = [("b" + label[1:], role, record, True)
              for label, role, record, _ in reversed(side_b)]
    assembly = _chain(name, side_a + middle + side_b, provenance)
    provenance["volume_total"] = assembly.total_volume
    return assembly


def build_tunnel(model: AmbientModel, tube_radius: float, length: float = 0.0,
                 sharpness: float = 100.0, *,
                 grid_density: float = 1.0) -> Assembly:
    """Certified tunnel joining two boundary spheres of the same model.

    The chain runs ambient annulus, bent neck pieces, collar, cylinder of
    the requested length, then the mirror image: the side joined to itself.
    Scalar curvature is certified above kappa - 1/sharpness: the bending
    curve spends at most half of 1/(2*sharpness), collars target
    kappa - 3/(4*sharpness), and the cylinder radius is capped so its
    curvature clears the floor too. Both open ends are isometric to ambient
    annuli of radius [0.99, 1.98] * tube_radius, which is what makes the
    tunnel gluable into two disjoint balls of radius 2 * tube_radius.
    """
    if not sharpness >= 1.0:
        raise ParameterOutOfRange("sharpness must be >= 1")
    if not length >= 0.0:
        raise ParameterOutOfRange("length must be >= 0")
    kappa = model.scalar_curvature
    floor = kappa - 1.0 / sharpness
    budget = 0.5 / sharpness
    collar_floor = kappa - 0.75 / sharpness
    a_cyl = _cylinder_radius(model, tube_radius, floor)
    side, stats = _tunnel_side(model, tube_radius, budget, collar_floor,
                               a_cyl, grid_density)
    middle = [] if length == 0.0 else [_cylinder_piece(model, a_cyl, length)]
    cylinder_volume = middle[0][2].volume if middle else 0.0
    provenance = {
        "builder": "build_tunnel",
        "model": _model_provenance(model),
        "tube_radius": tube_radius,
        "length": length,
        "sharpness": sharpness,
        "budget": budget,
        "floor": floor,
        "collar_floor": collar_floor,
        "cylinder_radius": a_cyl,
        "cylinder_volume": cylinder_volume,
        "side": stats,
    }
    assembly = _join("tunnel", side, middle, side, provenance)
    provenance["volume_modified"] = assembly.total_volume - cylinder_volume
    return assembly


def build_tunnel_between(model_a: AmbientModel, model_b: AmbientModel,
                         tube_a: float, tube_b: float, floor: float,
                         length: float = 0.0, *,
                         grid_density: float = 1.0) -> Assembly:
    """Tunnel between two different ambient models over a shared floor.

    Each side receives half of its own headroom kappa_side - floor as its
    bending budget, so both bent necks stay strictly above the floor, and
    the waist cylinder radius respects both tube scales. The slice and
    base factors of the two models must agree in dimension (and the base
    factor in radius) for the cylinder to glue to both designed sides.
    """
    return _tunnel_between(model_a, model_b, tube_a, tube_b, floor, length,
                           grid_density)


def _tunnel_between(model_a, model_b, tube_a, tube_b, floor, length,
                    grid_density, shared=None) -> Assembly:
    """build_tunnel_between; shared, a build_tunnel tunnel of model_a whose
    bounds clear floor, lends its side as side a (_chain checks the waist)."""
    if not length >= 0.0:
        raise ParameterOutOfRange("length must be >= 0")
    if (model_a.slice_dim != model_b.slice_dim
            or model_a.base_dim != model_b.base_dim
            or model_a.base_radius != model_b.base_radius):
        raise ParameterOutOfRange(
            "both models must share base factor and slice dimension")
    head_a = model_a.scalar_curvature - floor
    head_b = model_b.scalar_curvature - floor
    if head_a <= 0.0 or head_b <= 0.0:
        raise InfeasibleBudget(
            f"floor {floor:.6g} leaves no headroom: model curvatures are "
            f"{model_a.scalar_curvature:.6g} and {model_b.scalar_curvature:.6g}")
    a_cyl = min(_cylinder_radius(model_a, tube_a, floor),
                _cylinder_radius(model_b, tube_b, floor))
    if shared is None:
        side_a, stats_a = _tunnel_side(model_a, tube_a, 0.5 * head_a,
                                       floor + 0.25 * head_a, a_cyl,
                                       grid_density)
    else:
        side_a = [(p.name, p.role, shared.pieces[p.piece], False)
                  for p in shared.placements if p.name.startswith("a")]
        stats_a = shared.provenance["side"]
    side_b, stats_b = _tunnel_side(model_b, tube_b, 0.5 * head_b,
                                   floor + 0.25 * head_b, a_cyl, grid_density)
    middle = [] if length == 0.0 else [_cylinder_piece(model_a, a_cyl, length)]
    provenance = {
        "builder": "build_tunnel_between",
        "model_a": _model_provenance(model_a),
        "model_b": _model_provenance(model_b),
        "tube_a": tube_a,
        "tube_b": tube_b,
        "floor": floor,
        "length": length,
        "cylinder_radius": a_cyl,
        "side_a": stats_a,
        "side_b": stats_b,
    }
    return _join("tunnel_between", side_a, middle, side_b, provenance)


def perform_surgery(base_dim: int, slice_dim: int, tube_radius: float, *,
                    base_radius: float = 1.0, slice_radius: float = 1.0,
                    grid_density: float = 1.0) -> Assembly:
    """Codimension >= 3 surgery on S^p(rho) x S^q with certified curvature.

    Removes the tube of radius ~2*tube_radius around S^p x {point},
    descends through a bent neck to a thin cylinder, homotopes the
    boundary data to (1, tube_radius/2) and closes with a round disk cap
    D^(p+1) x S^(q-1). Scalar curvature is certified above
    kappa - tube_radius, the curvature budget; the volume change
    against the closed product is reported in the provenance for the
    certificate layer to claim against its (1 +- delta) band.
    """
    p = int(base_dim)
    q = int(slice_dim)
    if p < 1:
        raise ParameterOutOfRange(
            "perform_surgery needs base_dim >= 1; for base_dim 0 use "
            "build_tunnel, which is surgery on S^0")
    if q < 3:
        raise CodimensionTooSmall(
            f"surgery on S^{p} inside S^{p} x S^{q} has codimension {q}; "
            "the construction needs codimension >= 3")
    if not slice_radius > 0.0 or not base_radius > 0.0:
        raise ParameterOutOfRange("factor radii must be positive")
    model = AmbientModel(base_dim=p, slice_dim=q, base_radius=base_radius,
                         slice_curv=slice_radius ** -2)
    kappa = model.scalar_curvature
    params = CurveDesignParams(model=model, tube_radius=tube_radius,
                               budget=0.5 * tube_radius,
                               grid_density=grid_density)
    a_target = 0.5 * tube_radius
    curve, neck = _neck(params, (1.0, a_target), kappa - 0.75 * tube_radius,
                        "n", "homotopy")
    check = curve.check

    # complement of the removed tube, exact ambient metric
    pole_dist = math.pi * slice_radius
    span = pole_dist - curve.start_radius
    grid = np.linspace(0.0, span, 2 * PROFILE_NODES)
    vb = slice_radius * np.sin((pole_dist - grid) / slice_radius)
    vb[0] = 0.0
    remnant_profile = make_profile(
        grid, (np.full(grid.size, base_radius), vb), (p, q - 1),
        closed_start=1,
        jets_start=((base_radius, 0.0, 0.0), (0.0, 1.0, 0.0)),
        jets_end=((base_radius, 0.0, 0.0), curve._boundary_jet(0.0)))
    remnant = _sampled_piece(remnant_profile, pole_scalars=(kappa,))

    cap, pole = cap_profile(p, a_target, q - 1, closure_radius=1.0)
    pieces = [("body_remnant", "body_remnant", remnant, False), *neck,
              ("cap", "cap", _sampled_piece(cap, pole_scalars=(pole,)), False)]

    volume_reference = (unit_sphere_volume(p) * base_radius ** p
                        * unit_sphere_volume(q) * slice_radius ** q)
    provenance = {
        "builder": "perform_surgery",
        "model": _model_provenance(model),
        "tube_radius": tube_radius,
        "budget": tube_radius,
        "floor": kappa - tube_radius,
        "cap_link_radius": a_target,
        "volume_reference": volume_reference,
        "curve_min_scalar": check.min_scalar,
        "curve_cross_check": check.cross_check_error,
        "waist_radius": curve.end_radius,
    }
    assembly = _chain("surgery", pieces, provenance)
    provenance["volume_total"] = assembly.total_volume
    provenance["volume_ratio"] = assembly.total_volume / volume_reference
    return assembly
