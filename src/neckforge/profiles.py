"""Sampled warped-product metric pieces and their serialization.

A profile is one interval's worth of metric data: a uniform sample grid in
the arclength coordinate plus one warp (WarpProfile, metric
ds^2 + v^2 g_{S^m}) or two warps (DoublyWarpProfile, metric
ds^2 + va^2 g_{S^p} + vb^2 g_{S^f}). Values are interpolated with
not-a-knot cubic splines; all curvature and volume evaluation downstream
goes through the spline, so a profile written to disk and reloaded
reproduces its numbers exactly.

Warps must stay positive except at a declared closed end, where exactly one
warp vanishes with unit slope and the metric closes smoothly over a pole
(round caps, sphere bodies). Curvature sampling skips pole nodes; builders
that close a pole record the analytic limit value themselves.

Exact design jets (value, first, second derivative) can be stored per end.
Assemblies compare stored jets across interfaces, so two pieces meant to
share a boundary match to roundoff instead of to spline accuracy.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from .curvature import scalar_curvature_doubly_warped, scalar_curvature_warped
from .errors import (
    DegenerateGrid,
    NonPositiveWarp,
    ParameterOutOfRange,
    SchemaViolation,
)

__all__ = ["WarpProfile", "DoublyWarpProfile", "load_profile_csv", "save_profile_csv"]

FORMAT_VERSION = 1

# fraction of an interval trimmed next to a pole when sampling curvature
_POLE_TRIM = 1e-9


def _as_jet(value) -> tuple[float, float, float]:
    v = tuple(float(x) for x in value)
    if len(v) != 3:
        raise ParameterOutOfRange("a boundary jet is (value, d1, d2)")
    return v


def _validate_uniform_grid(grid: np.ndarray) -> None:
    if grid.ndim != 1 or grid.size < 8:
        raise DegenerateGrid("profile grid needs at least 8 samples")
    steps = np.diff(grid)
    if not np.all(steps > 0.0):
        raise DegenerateGrid("profile grid must be strictly increasing")
    h = (grid[-1] - grid[0]) / (grid.size - 1)
    if not np.allclose(steps, h, rtol=1e-9, atol=1e-15 * abs(h)):
        raise DegenerateGrid("profile grid must be uniform")


def _validate_warp(values: np.ndarray, grid: np.ndarray,
                   closed_start: bool, closed_end: bool, name: str) -> None:
    scale = float(np.max(np.abs(values))) or 1.0
    interior = values[1:-1] if (closed_start or closed_end) else values
    lo = values[0]
    hi = values[-1]
    if closed_start:
        if abs(lo) > 1e-12 * scale:
            raise NonPositiveWarp(f"{name} must vanish at its closed start, got {lo}")
    elif lo <= 0.0:
        raise NonPositiveWarp(f"{name} must be positive at the start, got {lo}")
    if closed_end:
        if abs(hi) > 1e-12 * scale:
            raise NonPositiveWarp(f"{name} must vanish at its closed end, got {hi}")
    elif hi <= 0.0:
        raise NonPositiveWarp(f"{name} must be positive at the end, got {hi}")
    if np.any(interior <= 0.0):
        raise NonPositiveWarp(f"{name} must be positive away from closed poles")


def _curvature_sample_points(grid: np.ndarray, trim_start: bool,
                             trim_end: bool) -> np.ndarray:
    h = (grid[-1] - grid[0]) / (grid.size - 1)
    s = np.unique(np.concatenate([grid, grid[:-1] + 0.5 * h]))
    margin = _POLE_TRIM * (grid[-1] - grid[0])
    if trim_start:
        s = s[s > grid[0] + margin]
    if trim_end:
        s = s[s < grid[-1] - margin]
    return s


def _spline_jet(spline: CubicSpline, s: float) -> tuple[float, float, float]:
    return (float(spline(s)), float(spline(s, 1)), float(spline(s, 2)))


def _format_jet(jet) -> str:
    return ",".join("%.17g" % x for x in jet)


def _render(header: list[str], columns) -> bytes:
    """Header lines, then one %.17g row per grid node, as file bytes.

    All rows go through a single % format over Python floats, which print
    exactly as the numpy scalars they come from.
    """
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1])
    body = "\n".join([row] * table.shape[0]) % tuple(table.ravel().tolist())
    return ("\n".join(header) + "\n" + body + "\n").encode()


@dataclass(frozen=True, eq=False)
class WarpProfile:
    """One warp over a uniform grid: metric ds^2 + value(s)^2 g_{S^m}."""

    grid: np.ndarray
    values: np.ndarray
    fiber_dim: int
    closed_start: bool = False
    closed_end: bool = False
    jet_start: tuple[float, float, float] | None = None
    jet_end: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        grid = np.ascontiguousarray(self.grid, dtype=float)
        values = np.ascontiguousarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        _validate_uniform_grid(grid)
        if values.shape != grid.shape:
            raise DegenerateGrid("warp samples must match the grid shape")
        if int(self.fiber_dim) < 1:
            raise ParameterOutOfRange("fiber_dim must be >= 1")
        object.__setattr__(self, "fiber_dim", int(self.fiber_dim))
        _validate_warp(values, grid, self.closed_start, self.closed_end, "warp")
        if self.jet_start is None and self.closed_start:
            object.__setattr__(self, "jet_start", (0.0, 1.0, 0.0))
        elif self.jet_start is not None:
            object.__setattr__(self, "jet_start", _as_jet(self.jet_start))
        if self.jet_end is None and self.closed_end:
            object.__setattr__(self, "jet_end", (0.0, -1.0, 0.0))
        elif self.jet_end is not None:
            object.__setattr__(self, "jet_end", _as_jet(self.jet_end))

    # -- evaluation ------------------------------------------------------

    @cached_property
    def _spline(self) -> CubicSpline:
        return CubicSpline(self.grid, self.values)

    @property
    def kind(self) -> str:
        return "warped"

    @property
    def component_dims(self) -> tuple[int, ...]:
        return (self.fiber_dim,)

    @property
    def length(self) -> float:
        return float(self.grid[-1] - self.grid[0])

    def value(self, s):
        return np.asarray(self._spline(s), dtype=float)

    def derivative(self, s, order: int = 1):
        return np.asarray(self._spline(s, order), dtype=float)

    def component_values(self, s) -> tuple[np.ndarray, ...]:
        return (self.value(s),)

    @property
    def warp_splines(self) -> tuple:
        """(spline, closed at start, closed at end) for each warp."""
        return ((self._spline, self.closed_start, self.closed_end),)

    def scalar_curvature(self, s):
        sp = self._spline
        return scalar_curvature_warped(sp(s), sp(s, 1), sp(s, 2), self.fiber_dim)

    def curvature_samples(self):
        """Sample points (nodes and interval midpoints) and R there.

        Pole nodes of closed ends are excluded; their analytic limits live
        with the piece that built the closure.
        """
        s = _curvature_sample_points(self.grid, self.closed_start,
                                     self.closed_end)
        return s, self.scalar_curvature(s)

    def boundary_jets(self, end: str) -> tuple[tuple[float, float, float], ...]:
        if end == "start":
            return ((self.jet_start if self.jet_start is not None
                     else _spline_jet(self._spline, self.grid[0])),)
        if end == "end":
            return ((self.jet_end if self.jet_end is not None
                     else _spline_jet(self._spline, self.grid[-1])),)
        raise ParameterOutOfRange("end must be 'start' or 'end'")

    def reverse(self) -> "WarpProfile":
        """The same piece traversed the other way."""
        flip = lambda jet: (jet[0], -jet[1], jet[2]) if jet is not None else None
        return WarpProfile(
            grid=self.grid[0] + (self.grid[-1] - self.grid[::-1]),
            values=self.values[::-1],
            fiber_dim=self.fiber_dim,
            closed_start=self.closed_end,
            closed_end=self.closed_start,
            jet_start=flip(self.jet_end),
            jet_end=flip(self.jet_start),
        )

    # -- serialization ---------------------------------------------------

    def canonical_bytes(self) -> bytes:
        sp = self._spline
        lines = [
            f"# neckforge-profile-version={FORMAT_VERSION}",
            "# kind=warped",
            f"# fiber_dim={self.fiber_dim}",
            f"# closed_start={int(self.closed_start)}",
            f"# closed_end={int(self.closed_end)}",
            f"# jet_start={_format_jet(self.jet_start) if self.jet_start else 'spline'}",
            f"# jet_end={_format_jet(self.jet_end) if self.jet_end else 'spline'}",
            "# columns=s,phi,dphi,d2phi",
        ]
        return _render(lines, (self.grid, self.values,
                               sp(self.grid, 1), sp(self.grid, 2)))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()


@dataclass(frozen=True, eq=False)
class DoublyWarpProfile:
    """Two warps over one grid: ds^2 + va^2 g_{S^p} + vb^2 g_{S^f}.

    closed_start / closed_end give the index (0 for va, 1 for vb) of the
    warp that vanishes at that pole, or None for an open boundary.
    """

    grid: np.ndarray
    values_a: np.ndarray
    values_b: np.ndarray
    dim_a: int
    dim_b: int
    closed_start: int | None = None
    closed_end: int | None = None
    jets_start: tuple | None = None
    jets_end: tuple | None = None

    def __post_init__(self) -> None:
        grid = np.ascontiguousarray(self.grid, dtype=float)
        va = np.ascontiguousarray(self.values_a, dtype=float)
        vb = np.ascontiguousarray(self.values_b, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values_a", va)
        object.__setattr__(self, "values_b", vb)
        _validate_uniform_grid(grid)
        if va.shape != grid.shape or vb.shape != grid.shape:
            raise DegenerateGrid("warp samples must match the grid shape")
        if int(self.dim_a) < 1 or int(self.dim_b) < 1:
            raise ParameterOutOfRange(
                "both factor dimensions must be >= 1; use WarpProfile for one warp")
        object.__setattr__(self, "dim_a", int(self.dim_a))
        object.__setattr__(self, "dim_b", int(self.dim_b))
        for end_name, flag in (("closed_start", self.closed_start),
                               ("closed_end", self.closed_end)):
            if flag is not None and flag not in (0, 1):
                raise ParameterOutOfRange(f"{end_name} must be None, 0 or 1")
        _validate_warp(va, grid, self.closed_start == 0, self.closed_end == 0,
                       "first warp")
        _validate_warp(vb, grid, self.closed_start == 1, self.closed_end == 1,
                       "second warp")
        jets_start = self.jets_start
        jets_end = self.jets_end
        if jets_start is not None:
            jets_start = tuple(_as_jet(j) for j in jets_start)
            if len(jets_start) != 2:
                raise ParameterOutOfRange("jets_start needs one jet per warp")
        if jets_end is not None:
            jets_end = tuple(_as_jet(j) for j in jets_end)
            if len(jets_end) != 2:
                raise ParameterOutOfRange("jets_end needs one jet per warp")
        object.__setattr__(self, "jets_start", jets_start)
        object.__setattr__(self, "jets_end", jets_end)

    @cached_property
    def _spline_a(self) -> CubicSpline:
        return CubicSpline(self.grid, self.values_a)

    @cached_property
    def _spline_b(self) -> CubicSpline:
        return CubicSpline(self.grid, self.values_b)

    @property
    def kind(self) -> str:
        return "doubly_warped"

    @property
    def component_dims(self) -> tuple[int, ...]:
        return (self.dim_a, self.dim_b)

    @property
    def length(self) -> float:
        return float(self.grid[-1] - self.grid[0])

    def component_values(self, s) -> tuple[np.ndarray, ...]:
        return (np.asarray(self._spline_a(s), dtype=float),
                np.asarray(self._spline_b(s), dtype=float))

    @property
    def warp_splines(self) -> tuple:
        return ((self._spline_a, self.closed_start == 0, self.closed_end == 0),
                (self._spline_b, self.closed_start == 1, self.closed_end == 1))

    def scalar_curvature(self, s):
        sa, sb = self._spline_a, self._spline_b
        return scalar_curvature_doubly_warped(
            sa(s), sa(s, 1), sa(s, 2),
            sb(s), sb(s, 1), sb(s, 2),
            self.dim_a, self.dim_b)

    def curvature_samples(self):
        s = _curvature_sample_points(self.grid,
                                     self.closed_start is not None,
                                     self.closed_end is not None)
        return s, self.scalar_curvature(s)

    def boundary_jets(self, end: str) -> tuple[tuple[float, float, float], ...]:
        if end == "start":
            if self.jets_start is not None:
                return self.jets_start
            s = self.grid[0]
        elif end == "end":
            if self.jets_end is not None:
                return self.jets_end
            s = self.grid[-1]
        else:
            raise ParameterOutOfRange("end must be 'start' or 'end'")
        return (_spline_jet(self._spline_a, s), _spline_jet(self._spline_b, s))

    def reverse(self) -> "DoublyWarpProfile":
        flip_one = lambda jet: (jet[0], -jet[1], jet[2])
        flip = lambda jets: tuple(flip_one(j) for j in jets) if jets is not None else None
        return DoublyWarpProfile(
            grid=self.grid[0] + (self.grid[-1] - self.grid[::-1]),
            values_a=self.values_a[::-1],
            values_b=self.values_b[::-1],
            dim_a=self.dim_a,
            dim_b=self.dim_b,
            closed_start=self.closed_end,
            closed_end=self.closed_start,
            jets_start=flip(self.jets_end),
            jets_end=flip(self.jets_start),
        )

    def canonical_bytes(self) -> bytes:
        sa, sb = self._spline_a, self._spline_b
        fmt_closed = lambda c: "none" if c is None else str(c)
        fmt_jets = lambda js: ("spline" if js is None
                               else ";".join(_format_jet(j) for j in js))
        lines = [
            f"# neckforge-profile-version={FORMAT_VERSION}",
            "# kind=doubly_warped",
            f"# dim_a={self.dim_a}",
            f"# dim_b={self.dim_b}",
            f"# closed_start={fmt_closed(self.closed_start)}",
            f"# closed_end={fmt_closed(self.closed_end)}",
            f"# jets_start={fmt_jets(self.jets_start)}",
            f"# jets_end={fmt_jets(self.jets_end)}",
            "# columns=s,a,b,da,db,d2a,d2b",
        ]
        return _render(lines, (self.grid, self.values_a, self.values_b,
                               sa(self.grid, 1), sb(self.grid, 1),
                               sa(self.grid, 2), sb(self.grid, 2)))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()


def save_profile_csv(profile, path) -> str:
    """Write a profile to CSV, returning its content fingerprint.

    The file holds exactly profile.canonical_bytes(), so the returned
    digest equals profile.fingerprint() and `sha256sum` of the file.
    """
    data = profile.canonical_bytes()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def _parse_header(lines) -> dict:
    meta = {}
    for line in lines:
        body = line[1:].strip()
        if "=" in body:
            key, _, val = body.partition("=")
            meta[key.strip()] = val.strip()
    return meta


def _parse_jet_field(text: str):
    if text == "spline":
        return None
    return tuple(float(x) for x in text.split(","))


def _parse_table(rows: list[str]) -> np.ndarray:
    """The data rows as a (rows, columns) float array, parsed in one pass."""
    if not rows:
        raise SchemaViolation("profile CSV has no data rows")
    commas = rows[0].count(",")
    # per row, not as a field total: a short row next to a long one
    # would still add up to rows x columns
    if any(row.count(",") != commas for row in rows):
        raise SchemaViolation("ragged data row: rows differ in field count")
    fields = ",".join(rows).split(",")
    try:
        data = np.fromiter(map(float, fields), float, len(fields))
    except ValueError as exc:
        raise SchemaViolation(f"non-numeric data row: {exc}") from None
    return data.reshape(len(rows), commas + 1)


def _check_derivative_columns(grid, stored, recomputed, label: str) -> None:
    # loose sanity check: catches swapped or hand-mangled columns without
    # punishing regeneration noise
    scale = max(float(np.max(np.abs(recomputed))), 1e-12)
    err = float(np.max(np.abs(stored[2:-2] - recomputed[2:-2]))) if grid.size > 4 else 0.0
    if err > 1e-2 * scale:
        raise SchemaViolation(
            f"{label} column disagrees with the spline of the value column "
            f"(max deviation {err:.3e} against scale {scale:.3e})")


def load_profile_csv(path):
    """Read a profile CSV written by save_profile_csv.

    Raises SchemaViolation for missing or inconsistent metadata and for
    derivative columns that contradict the value columns.
    """
    with open(path, "rb") as fh:
        text = fh.read().decode()
    lines = text.splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    meta = _parse_header(header)
    if meta.get("neckforge-profile-version") != str(FORMAT_VERSION):
        raise SchemaViolation("missing or unsupported profile version header")
    kind = meta.get("kind")
    data = _parse_table(rows)

    if kind == "warped":
        if meta.get("columns") != "s,phi,dphi,d2phi" or data.shape[1] != 4:
            raise SchemaViolation("warped profile needs columns s,phi,dphi,d2phi")
        try:
            prof = WarpProfile(
                grid=data[:, 0], values=data[:, 1],
                fiber_dim=int(meta.get("fiber_dim", "0")),
                closed_start=meta.get("closed_start") == "1",
                closed_end=meta.get("closed_end") == "1",
                jet_start=_parse_jet_field(meta.get("jet_start", "spline")),
                jet_end=_parse_jet_field(meta.get("jet_end", "spline")))
        except (KeyError, ValueError, ParameterOutOfRange) as exc:
            raise SchemaViolation(f"bad warped profile metadata: {exc}") from None
        sp = prof._spline
        _check_derivative_columns(prof.grid, data[:, 2], sp(prof.grid, 1), "dphi")
        _check_derivative_columns(prof.grid, data[:, 3], sp(prof.grid, 2), "d2phi")
        return prof

    if kind == "doubly_warped":
        if meta.get("columns") != "s,a,b,da,db,d2a,d2b" or data.shape[1] != 7:
            raise SchemaViolation("doubly warped profile needs columns s,a,b,da,db,d2a,d2b")
        parse_closed = lambda t: None if t == "none" else int(t)
        parse_jets = lambda t: (None if t == "spline" else
                                tuple(_parse_jet_field(j) for j in t.split(";")))
        try:
            prof = DoublyWarpProfile(
                grid=data[:, 0], values_a=data[:, 1], values_b=data[:, 2],
                dim_a=int(meta.get("dim_a", "0")), dim_b=int(meta.get("dim_b", "0")),
                closed_start=parse_closed(meta.get("closed_start", "none")),
                closed_end=parse_closed(meta.get("closed_end", "none")),
                jets_start=parse_jets(meta.get("jets_start", "spline")),
                jets_end=parse_jets(meta.get("jets_end", "spline")))
        except (KeyError, ValueError, ParameterOutOfRange) as exc:
            raise SchemaViolation(f"bad doubly warped profile metadata: {exc}") from None
        _check_derivative_columns(prof.grid, data[:, 3], prof._spline_a(prof.grid, 1), "da")
        _check_derivative_columns(prof.grid, data[:, 4], prof._spline_b(prof.grid, 1), "db")
        _check_derivative_columns(prof.grid, data[:, 5], prof._spline_a(prof.grid, 2), "d2a")
        _check_derivative_columns(prof.grid, data[:, 6], prof._spline_b(prof.grid, 2), "d2b")
        return prof

    raise SchemaViolation(f"unknown profile kind {kind!r}")
