"""Sampled warped-product metric pieces and their serialization.

A profile is one interval's worth of metric data: a uniform sample grid in
the arclength coordinate plus its warps, one per round sphere factor of
the fiber. A tunnel piece has one warp (metric ds^2 + v^2 g_{S^m}), a
surgery piece two (ds^2 + va^2 g_{S^p} + vb^2 g_{S^f}). One body,
_Profile, derives everything from a profile's list of warps: validation,
splines, curvature, jets, bounds and the file rendering. Two public
classes front it, WarpProfile for one warp and DoublyWarpProfile for two,
and make_profile picks between them by warp count. Both names stay
because each writes its own header format (kind=warped, kind=doubly_warped)
and because the benchmark tracer patches methods of each class by name.

Values are interpolated with not-a-knot cubic splines; all curvature and
volume evaluation downstream goes through the spline, so a profile file
stores only what defines the piece (header, grid and warp values;
derivatives are the spline's) and a reloaded profile reproduces its
numbers exactly. The splines are built here (CubicSpline) with scipy's
arithmetic, bit for bit, but without its validation passes, which the
profile's own grid and warp checks make redundant; samples must therefore
be finite. The three diagonals of its slope system go straight to LAPACK's
dgtsv, the routine scipy's solve_banded((1, 1), ...) calls after its
checks, so the floats are scipy's; a singular system raises as
solve_banded does. Every warp is a numerics.PiecewiseCubic, read through
numerics.cubic_rows with the floats of scipy's PPoly; curvature samples
sit at nodes and interval midpoints, whose knot intervals are known, so
they are read without an interval search. A constant warp (the round base
factor of a surgery neck, a cylinder, the fixed factor of a collar leg or
cap) gets its spline's coefficients (0, 0, 0, v) without the banded solve,
and curvature and volume read it as one value, (v, 0, 0), broadcast
against the other warp instead of evaluated at every point.

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
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from .curvature import scalar_curvature_doubly_warped, scalar_curvature_warped
from .errors import (
    DegenerateGrid,
    NonPositiveWarp,
    ParameterOutOfRange,
    SchemaViolation,
)
from .numerics import (PiecewiseCubic, cubic_bounds, cubic_rows,
                       hermite_cubic, knot_intervals, with_midpoints)

__all__ = ["WarpProfile", "DoublyWarpProfile", "make_profile",
           "load_profile_csv", "save_profile_csv"]

FORMAT_VERSION = 2

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
    if not np.all(np.isfinite(grid)):
        raise DegenerateGrid("profile grid must be finite")
    steps = np.diff(grid)
    if not np.all(steps > 0.0):
        raise DegenerateGrid("profile grid must be strictly increasing")
    h = (grid[-1] - grid[0]) / (grid.size - 1)
    # np.allclose(steps, h, rtol=1e-9, atol=1e-15 * |h|), written out
    if not np.all(np.abs(steps - h) <= 1e-15 * abs(h) + 1e-9 * abs(h)):
        raise DegenerateGrid("profile grid must be uniform")


def _validate_warp(values: np.ndarray, grid: np.ndarray,
                   closed_start: bool, closed_end: bool, name: str) -> None:
    if not np.all(np.isfinite(values)):
        raise NonPositiveWarp(f"{name} samples must be finite")
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


def _check_closing(closed_start, closed_end, warp_count: int) -> None:
    # a closed end names the int index of the warp closing there; a bool
    # is refused, since False == 0 and True == 1 would read as indices
    for end_name, flag in (("closed_start", closed_start),
                           ("closed_end", closed_end)):
        if flag is not None and (type(flag) is not int
                                 or not 0 <= flag < warp_count):
            raise ParameterOutOfRange(
                f"{end_name} must be None or a warp index below "
                f"{warp_count}, got {flag!r}")


def _curvature_sample_points(grid: np.ndarray, trim_start: bool,
                             trim_end: bool) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and interval midpoints, less a trimmed pole, and the knot
    interval of each."""
    h = (grid[-1] - grid[0]) / (grid.size - 1)
    s, idx = with_midpoints(grid, grid[:-1] + 0.5 * h)
    margin = _POLE_TRIM * (grid[-1] - grid[0])
    keep = np.ones(s.size, dtype=bool)
    if trim_start:
        keep &= s > grid[0] + margin
    if trim_end:
        keep &= s < grid[-1] - margin
    return s[keep], idx[keep]


def CubicSpline(x: np.ndarray, y: np.ndarray) -> PiecewiseCubic:
    """The not-a-knot cubic spline through (x, y), as a PiecewiseCubic.

    The floats of scipy.interpolate.CubicSpline(x, y) (scipy 1.17): its
    banded system for the knot slopes, solved by the dgtsv call that its
    solve_banded reaches, and CubicHermiteSpline's coefficient formulas
    (numerics.hermite_cubic), without the validation passes. x and y are
    a validated profile grid (at least 8 nodes) and finite samples on it.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    n = x.size
    A = np.zeros((3, n))
    b = np.empty(n)
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    A[1, 0] = dx[1]
    A[0, 1] = d
    b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    A[1, -1] = dx[-2]
    A[-1, -2] = d
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    # sub-, main and superdiagonal, each overwritten, as solve_banded passes
    _, _, _, s, info = dgtsv(A[2, :-1], A[1], A[0, 1:], b.reshape(n, 1),
                             1, 1, 1, 1)
    if info != 0:
        raise LinAlgError("singular matrix" if info > 0 else
                          f"illegal value in argument {-info} of dgtsv")
    return hermite_cubic(x, y, s.reshape(n))


def _warp_spline(grid: np.ndarray, values: np.ndarray) -> PiecewiseCubic:
    """The interpolant of one warp. For equal samples every slope of the
    banded solve is exactly +0.0, so the spline's coefficients are
    (0, 0, 0, v) on every interval; they are written down without the
    solve."""
    if np.all(values == values[0]):
        c = np.zeros((4, grid.size - 1))
        c[3] = values[0]
        return PiecewiseCubic(c, grid)
    return CubicSpline(grid, values)


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


class _Profile:
    """The body of both profile classes, derived from their warps.

    A class lists its warps as (values, sphere dim, closed at start,
    closed at end), names its kind and header lines (_header) and has a
    grid. Its __post_init__ normalises its own fields, then calls
    _init_body with the jets it stores per end (one per warp, or None
    where the spline's own serve).
    """

    def _init_body(self, jets_start, jets_end) -> None:
        grid = np.ascontiguousarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", grid)
        _validate_uniform_grid(grid)
        warps = self.warps
        names = ("warp",) if len(warps) == 1 else ("first warp", "second warp")
        for (values, dim, closed_start, closed_end), name in zip(warps, names):
            if values.shape != grid.shape:
                raise DegenerateGrid("warp samples must match the grid shape")
            if dim < 1:
                raise ParameterOutOfRange("sphere dimensions must be >= 1")
            _validate_warp(values, grid, closed_start, closed_end, name)
        jets = tuple(None if js is None else tuple(_as_jet(j) for j in js)
                     for js in (jets_start, jets_end))
        if any(js is not None and len(js) != len(warps) for js in jets):
            raise ParameterOutOfRange("stored jets need one jet per warp")
        object.__setattr__(self, "_jets", jets)

    @cached_property
    def _splines(self) -> tuple:
        return tuple(_warp_spline(self.grid, values)
                     for values, _, _, _ in self.warps)

    @property
    def component_dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim, _, _ in self.warps)

    @property
    def closed_ends(self) -> tuple[bool, bool]:
        """Whether some warp closes over a pole at the start, at the end."""
        return (any(start for _, _, start, _ in self.warps),
                any(end for _, _, _, end in self.warps))

    @property
    def length(self) -> float:
        return float(self.grid[-1] - self.grid[0])

    def component_values(self, s) -> tuple[np.ndarray, ...]:
        return tuple(spline(s) for spline in self._splines)

    @cached_property
    def _constants(self) -> tuple:
        """Each warp's value as a 1-element array if its samples are all
        equal (so is its spline, with zero derivatives), else None."""
        return tuple(values[:1] if np.all(values == values[0]) else None
                     for values, _, _, _ in self.warps)

    def warp_rows(self, X) -> list[np.ndarray]:
        """Each warp at the rows of X, row r in knot interval r; a constant
        warp is its 1-element value, which broadcasts against X."""
        return [cubic_rows(sp.c, sp.x, X) if v is None else v
                for sp, v in zip(self._splines, self._constants)]

    @property
    def warp_splines(self) -> tuple:
        """(spline, closed at start, closed at end) for each warp."""
        return tuple((spline, start, end) for spline, (_, _, start, end)
                     in zip(self._splines, self.warps))

    @cached_property
    def cubic_bounds(self) -> tuple[tuple[bool, float], ...]:
        """numerics.cubic_bounds of each warp: whether its cubics are >= 0
        and a bound of its |value|."""
        return tuple(cubic_bounds(spline.c, spline.x, start, end)
                     for spline, start, end in self.warp_splines)

    def scalar_curvature(self, s):
        s = np.asarray(s, dtype=float)
        flat = s.ravel()
        return self._curvature_at(
            flat, knot_intervals(self.grid, flat)).reshape(s.shape)

    def _curvature_at(self, s, idx):
        """R at the points s (1d) in knot intervals idx, shaped as s.

        A constant warp enters as its 1-element value and zero
        derivatives, broadcast against the other warp's rows; when every
        warp is constant, the first value is broadcast to s."""
        zero = np.zeros(1)
        jets = []
        for sp, v in zip(self._splines, self._constants):
            jets += ([cubic_rows(sp.c, sp.x, s, idx, nu) for nu in (0, 1, 2)]
                     if v is None else [v, zero, zero])
        if all(v is not None for v in self._constants):
            jets[0] = np.broadcast_to(jets[0], s.shape)
        formula = (scalar_curvature_warped if len(self._splines) == 1
                   else scalar_curvature_doubly_warped)
        return formula(*jets, *self.component_dims)

    def curvature_samples(self):
        """Sample points (nodes and interval midpoints) and R there.

        Pole nodes of closed ends are excluded; their analytic limits live
        with the piece that built the closure.
        """
        s, idx = _curvature_sample_points(self.grid, *self.closed_ends)
        return s, self._curvature_at(s, idx)

    def boundary_jets(self, end: str) -> tuple[tuple[float, float, float], ...]:
        if end == "start":
            stored, s = self._jets[0], self.grid[0]
        elif end == "end":
            stored, s = self._jets[1], self.grid[-1]
        else:
            raise ParameterOutOfRange("end must be 'start' or 'end'")
        if stored is not None:
            return stored
        return tuple((float(sp(s)), float(sp(s, 1)), float(sp(s, 2)))
                     for sp in self._splines)

    def reverse(self):
        """The same piece traversed the other way: the reader step for a
        placement marked "reversed". reverse() is a function of the
        stored fields alone, so reversing this piece reloaded from its
        file reproduces the returned piece's canonical_bytes()."""
        values, dims, starts, ends = zip(*self.warps)
        closing = lambda flags: next(
            (i for i, closed in enumerate(flags) if closed), None)
        flip = lambda jets: (None if jets is None else
                             tuple((v, -d1, d2) for v, d1, d2 in jets))
        return make_profile(
            self.grid[0] + (self.grid[-1] - self.grid[::-1]),
            [v[::-1] for v in values], dims,
            closed_start=closing(ends), closed_end=closing(starts),
            jets_start=flip(self._jets[1]), jets_end=flip(self._jets[0]))

    def content_key(self) -> tuple:
        """What canonical_bytes() renders, unrendered and cheap to build:
        two profiles have equal keys exactly when they have equal bytes,
        since %.17g tells every two floats apart."""
        return (self.kind, *self._header(), self.grid.tobytes(),
                *(values.tobytes() for values, _, _, _ in self.warps))

    def canonical_bytes(self) -> bytes:
        header = [f"# neckforge-profile-version={FORMAT_VERSION}",
                  f"# kind={self.kind}", *self._header()]
        return _render(header, (self.grid, *(v for v, _, _, _ in self.warps)))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()


@dataclass(frozen=True, eq=False)
class WarpProfile(_Profile):
    """One warp over a uniform grid: metric ds^2 + value(s)^2 g_{S^m}."""

    grid: np.ndarray
    values: np.ndarray
    fiber_dim: int
    closed_start: bool = False
    closed_end: bool = False
    jet_start: tuple[float, float, float] | None = None
    jet_end: tuple[float, float, float] | None = None

    kind = "warped"
    # perfbench/tracer.py wraps these in each class's own __dict__
    curvature_samples = _Profile.curvature_samples
    fingerprint = _Profile.fingerprint

    def __post_init__(self) -> None:
        object.__setattr__(self, "values",
                           np.ascontiguousarray(self.values, dtype=float))
        object.__setattr__(self, "fiber_dim", int(self.fiber_dim))
        # a closed end stores the round pole's jet unless given one
        jets = [(0.0, 1.0, 0.0) if self.jet_start is None and self.closed_start
                else self.jet_start,
                (0.0, -1.0, 0.0) if self.jet_end is None and self.closed_end
                else self.jet_end]
        self._init_body(*(None if jet is None else (jet,) for jet in jets))
        for name, stored in zip(("jet_start", "jet_end"), self._jets):
            object.__setattr__(self, name,
                               None if stored is None else stored[0])

    @property
    def warps(self) -> tuple:
        return ((self.values, self.fiber_dim, self.closed_start,
                 self.closed_end),)

    def value(self, s):
        return np.asarray(self._splines[0](s), dtype=float)

    def derivative(self, s, order: int = 1):
        return np.asarray(self._splines[0](s, order), dtype=float)

    def _header(self) -> list[str]:
        jet = lambda j: _format_jet(j) if j else "spline"
        return [f"# fiber_dim={self.fiber_dim}",
                f"# closed_start={int(self.closed_start)}",
                f"# closed_end={int(self.closed_end)}",
                f"# jet_start={jet(self.jet_start)}",
                f"# jet_end={jet(self.jet_end)}",
                "# columns=s,phi"]


@dataclass(frozen=True, eq=False)
class DoublyWarpProfile(_Profile):
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

    kind = "doubly_warped"
    # perfbench/tracer.py wraps these in each class's own __dict__
    curvature_samples = _Profile.curvature_samples
    fingerprint = _Profile.fingerprint

    def __post_init__(self) -> None:
        for name in ("values_a", "values_b"):
            object.__setattr__(self, name, np.ascontiguousarray(
                getattr(self, name), dtype=float))
        object.__setattr__(self, "dim_a", int(self.dim_a))
        object.__setattr__(self, "dim_b", int(self.dim_b))
        _check_closing(self.closed_start, self.closed_end, 2)
        self._init_body(self.jets_start, self.jets_end)
        object.__setattr__(self, "jets_start", self._jets[0])
        object.__setattr__(self, "jets_end", self._jets[1])

    @property
    def warps(self) -> tuple:
        return ((self.values_a, self.dim_a, self.closed_start == 0,
                 self.closed_end == 0),
                (self.values_b, self.dim_b, self.closed_start == 1,
                 self.closed_end == 1))

    def _header(self) -> list[str]:
        closed = lambda c: "none" if c is None else str(c)
        jets = lambda js: ("spline" if js is None
                           else ";".join(_format_jet(j) for j in js))
        return [f"# dim_a={self.dim_a}",
                f"# dim_b={self.dim_b}",
                f"# closed_start={closed(self.closed_start)}",
                f"# closed_end={closed(self.closed_end)}",
                f"# jets_start={jets(self.jets_start)}",
                f"# jets_end={jets(self.jets_end)}",
                "# columns=s,a,b"]


def make_profile(grid, values, dims, *, closed_start=None, closed_end=None,
                 jets_start=None, jets_end=None):
    """The profile of the warps in values over grid: a WarpProfile for one
    warp, a DoublyWarpProfile for two.

    dims gives each warp's sphere dimension; closed_start and closed_end
    the index of the warp that closes at that end, or None; jets_start and
    jets_end one stored (value, d1, d2) per warp, or None for the
    spline's own.
    """
    if len(values) != len(dims) or len(dims) not in (1, 2):
        raise ParameterOutOfRange("a profile has one or two warps, one "
                                  "dimension each")
    _check_closing(closed_start, closed_end, len(values))
    if len(values) == 1:
        first = lambda jets: None if jets is None else jets[0]
        return WarpProfile(grid=grid, values=values[0], fiber_dim=dims[0],
                           closed_start=closed_start == 0,
                           closed_end=closed_end == 0,
                           jet_start=first(jets_start),
                           jet_end=first(jets_end))
    return DoublyWarpProfile(grid=grid, values_a=values[0],
                             values_b=values[1], dim_a=dims[0], dim_b=dims[1],
                             closed_start=closed_start, closed_end=closed_end,
                             jets_start=jets_start, jets_end=jets_end)


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


def load_profile_csv(path):
    """Read a profile CSV written by save_profile_csv.

    Raises SchemaViolation for missing or inconsistent metadata.
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
        if meta.get("columns") != "s,phi" or data.shape[1] != 2:
            raise SchemaViolation("warped profile needs columns s,phi")
        try:
            return WarpProfile(
                grid=data[:, 0], values=data[:, 1],
                fiber_dim=int(meta.get("fiber_dim", "0")),
                closed_start=meta.get("closed_start") == "1",
                closed_end=meta.get("closed_end") == "1",
                jet_start=_parse_jet_field(meta.get("jet_start", "spline")),
                jet_end=_parse_jet_field(meta.get("jet_end", "spline")))
        except (KeyError, ValueError, ParameterOutOfRange) as exc:
            raise SchemaViolation(f"bad warped profile metadata: {exc}") from None

    if kind == "doubly_warped":
        if meta.get("columns") != "s,a,b" or data.shape[1] != 3:
            raise SchemaViolation("doubly warped profile needs columns s,a,b")
        parse_closed = lambda t: None if t == "none" else int(t)
        parse_jets = lambda t: (None if t == "spline" else
                                tuple(_parse_jet_field(j) for j in t.split(";")))
        try:
            return DoublyWarpProfile(
                grid=data[:, 0], values_a=data[:, 1], values_b=data[:, 2],
                dim_a=int(meta.get("dim_a", "0")), dim_b=int(meta.get("dim_b", "0")),
                closed_start=parse_closed(meta.get("closed_start", "none")),
                closed_end=parse_closed(meta.get("closed_end", "none")),
                jets_start=parse_jets(meta.get("jets_start", "spline")),
                jets_end=parse_jets(meta.get("jets_end", "spline")))
        except (KeyError, ValueError, ParameterOutOfRange) as exc:
            raise SchemaViolation(f"bad doubly warped profile metadata: {exc}") from None

    raise SchemaViolation(f"unknown profile kind {kind!r}")
