"""Profile construction, evaluation, reversal, and CSV round-trips."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

import neckforge.pipelines as pipelines
from neckforge import profiles
from neckforge.curvature import (scalar_curvature_doubly_warped,
                                 scalar_curvature_warped)
from neckforge.errors import (
    DegenerateGrid,
    NonPositiveWarp,
    ParameterOutOfRange,
    SchemaViolation,
)
from neckforge.measure import _halved
from neckforge.numerics import (PiecewiseCubic, cubic_rows,
                                gauss_legendre_rule, knot_intervals)
from neckforge.pipelines import surgery_certificate, tunnel_certificate
from neckforge.profiles import (
    DoublyWarpProfile,
    WarpProfile,
    load_profile_csv,
    save_profile_csv,
)


def sin_profile(n=2048, lo=0.4, hi=np.pi - 0.4, fiber_dim=2, **kw):
    grid = np.linspace(lo, hi, n)
    return WarpProfile(grid=grid, values=np.sin(grid), fiber_dim=fiber_dim, **kw)


def clifford_profile(n=1024, **kw):
    grid = np.linspace(0.2, np.pi / 2 - 0.2, n)
    return DoublyWarpProfile(grid=grid, values_a=np.cos(grid),
                             values_b=np.sin(grid), dim_a=1, dim_b=1, **kw)


def _split_row(rows):
    # the second row a field short and the third a field long: the fields,
    # read in order, are still the table's
    head, _, tail = rows[1].rpartition(",")
    return rows[:1] + [head, tail + "," + rows[2]] + rows[3:]


# (header lines, data rows) -> the lines of a broken profile CSV
MALFORMED_TABLES = {
    "non_numeric": lambda head, rows: head + rows + ["zero,one,two,three"],
    "ragged": lambda head, rows: head + rows + ["0.5,0.5,0.5"],
    "hash_tail": lambda head, rows: head + rows[:-1] + [rows[-1] + "#x"],
    "blank": lambda head, rows: head + rows[:3] + ["   "] + rows[3:],
    "header_only": lambda head, rows: head,
    "extra_column": lambda head, rows: head + [r + ",0" for r in rows],
    "compensating_ragged": lambda head, rows: head + _split_row(rows),
}

# (profile, header key, bad value): boundary jet headers that do not
# parse as three numbers per jet, one jet per warp
MALFORMED_JET_HEADERS = {
    "warped_non_numeric": (sin_profile, "jet_start", "1,2,x"),
    "warped_two_fields": (sin_profile, "jet_end", "1,2"),
    "doubly_non_numeric": (clifford_profile, "jets_start", "1,0,0;0.5,x,0"),
    "doubly_two_fields": (clifford_profile, "jets_start", "1,0;0.5,1"),
    "doubly_one_jet": (clifford_profile, "jets_end", "1,0,0"),
}


@pytest.mark.parametrize("make, key, value", MALFORMED_JET_HEADERS.values(),
                         ids=MALFORMED_JET_HEADERS.keys())
def test_malformed_jet_header_rejected(tmp_path, make, key, value):
    path = tmp_path / "prof.csv"
    save_profile_csv(make(n=64), path)
    lines = path.read_text().splitlines()
    mangled = [f"# {key}={value}" if ln.startswith(f"# {key}=") else ln
               for ln in lines]
    assert mangled != lines
    path.write_text("\n".join(mangled) + "\n")
    with pytest.raises(SchemaViolation):
        load_profile_csv(path)


class TestWarpProfile:
    def test_interpolation_accuracy(self):
        prof = sin_profile()
        s = np.linspace(0.5, 2.5, 200)
        assert np.max(np.abs(prof.value(s) - np.sin(s))) < 1e-10
        assert np.max(np.abs(prof.derivative(s, 1) - np.cos(s))) < 1e-7
        assert np.max(np.abs(prof.derivative(s, 2) + np.sin(s))) < 1e-5

    def test_scalar_curvature_matches_round_sphere(self):
        prof = sin_profile()
        s, R = prof.curvature_samples()
        assert np.max(np.abs(R - 6.0)) < 1e-5

    def test_closed_sphere_profile(self):
        grid = np.linspace(0.0, np.pi, 4096)
        prof = WarpProfile(grid=grid, values=np.sin(grid), fiber_dim=2,
                           closed_start=True, closed_end=True)
        s, R = prof.curvature_samples()
        assert s[0] > 0.0 and s[-1] < np.pi
        assert np.max(np.abs(R - 6.0)) < 1e-2
        assert prof.boundary_jets("start") == ((0.0, 1.0, 0.0),)
        assert prof.boundary_jets("end") == ((0.0, -1.0, 0.0),)

    def test_stored_jets_win_over_spline(self):
        jet = (np.sin(0.4), np.cos(0.4), -np.sin(0.4))
        prof = sin_profile(jet_start=jet)
        assert prof.boundary_jets("start") == (jet,)
        # spline-derived end jet is close to analytic but not identical
        (end,) = prof.boundary_jets("end")
        assert end[0] == pytest.approx(np.sin(np.pi - 0.4), abs=1e-12)
        assert end[1] == pytest.approx(np.cos(np.pi - 0.4), abs=1e-6)

    def test_reverse_round_trip(self):
        prof = sin_profile(jet_start=(1.0, 2.0, 3.0), jet_end=(4.0, 5.0, 6.0))
        rev = prof.reverse()
        back = rev.reverse()
        assert np.allclose(back.grid, prof.grid, atol=1e-12)
        assert np.array_equal(back.values, prof.values)
        assert back.jet_start == prof.jet_start
        assert back.jet_end == prof.jet_end

    def test_reverse_flips_first_derivative(self):
        prof = sin_profile(jet_end=(0.5, -0.25, 0.125))
        rev = prof.reverse()
        assert rev.jet_start == (0.5, 0.25, 0.125)
        s_mid = prof.grid[0] + 0.3 * prof.length
        mirror = prof.grid[0] + prof.length - 0.3 * prof.length
        assert rev.value(s_mid) == pytest.approx(float(prof.value(mirror)), abs=1e-12)

    def test_csv_round_trip_exact(self, tmp_path):
        prof = sin_profile(n=256, jet_start=(0.1, 0.2, 0.3))
        path = tmp_path / "prof.csv"
        save_profile_csv(prof, path)
        back = load_profile_csv(path)
        assert isinstance(back, WarpProfile)
        assert np.array_equal(back.grid, prof.grid)
        assert np.array_equal(back.values, prof.values)
        assert back.jet_start == prof.jet_start
        assert back.fiber_dim == prof.fiber_dim
        assert back.fingerprint() == prof.fingerprint()
        assert back.canonical_bytes() == prof.canonical_bytes()

    def test_missing_version_rejected(self, tmp_path):
        prof = sin_profile(n=64)
        path = tmp_path / "prof.csv"
        save_profile_csv(prof, path)
        body = path.read_text().replace("# neckforge-profile-version=2\n", "")
        path.write_text(body)
        with pytest.raises(SchemaViolation):
            load_profile_csv(path)

    @pytest.mark.parametrize("mangle", MALFORMED_TABLES.values(),
                             ids=MALFORMED_TABLES.keys())
    def test_malformed_table_rejected(self, tmp_path, mangle):
        prof = sin_profile(n=64)
        path = tmp_path / "prof.csv"
        save_profile_csv(prof, path)
        lines = path.read_text().splitlines()
        head = [ln for ln in lines if ln.startswith("#")]
        rows = [ln for ln in lines if not ln.startswith("#")]
        path.write_text("\n".join(mangle(head, rows)) + "\n")
        with pytest.raises(SchemaViolation):
            load_profile_csv(path)

    def test_validation_errors(self):
        with pytest.raises(DegenerateGrid):
            WarpProfile(grid=np.linspace(0, 1, 5), values=np.ones(5), fiber_dim=2)
        bad = np.linspace(0, 1, 32) ** 2  # non-uniform
        with pytest.raises(DegenerateGrid):
            WarpProfile(grid=bad, values=np.ones(32), fiber_dim=2)
        with pytest.raises(NonPositiveWarp):
            WarpProfile(grid=np.linspace(0, 1, 32),
                        values=np.linspace(-0.1, 1, 32), fiber_dim=2)
        with pytest.raises(ParameterOutOfRange):
            WarpProfile(grid=np.linspace(0, 1, 32), values=np.ones(32), fiber_dim=0)
        with pytest.raises(NonPositiveWarp):
            # closed end declared but warp does not vanish there
            WarpProfile(grid=np.linspace(0, 1, 32), values=np.ones(32),
                        fiber_dim=2, closed_end=True)


class TestDoublyWarpProfile:
    def test_curvature(self):
        prof = clifford_profile()
        s, R = prof.curvature_samples()
        assert np.max(np.abs(R - 6.0)) < 1e-4

    def test_component_order(self):
        prof = clifford_profile()
        va, vb = prof.component_values(np.array([0.3]))
        assert va[0] == pytest.approx(np.cos(0.3), abs=1e-9)
        assert vb[0] == pytest.approx(np.sin(0.3), abs=1e-9)

    def test_closed_end_flags(self):
        grid = np.linspace(0.0, np.pi / 2, 512)
        prof = DoublyWarpProfile(grid=grid, values_a=np.cos(grid),
                                 values_b=np.sin(grid), dim_a=1, dim_b=1,
                                 closed_start=1, closed_end=0)
        s, _ = prof.curvature_samples()
        assert s[0] > 0.0 and s[-1] < np.pi / 2
        with pytest.raises(ParameterOutOfRange):
            DoublyWarpProfile(grid=grid, values_a=np.cos(grid),
                              values_b=np.sin(grid), dim_a=1, dim_b=1,
                              closed_start=2)

    def test_zero_dims_rejected(self):
        grid = np.linspace(0, 1, 32)
        ones = np.ones(32)
        with pytest.raises(ParameterOutOfRange):
            DoublyWarpProfile(grid=grid, values_a=ones, values_b=ones,
                              dim_a=0, dim_b=2)

    def test_reverse(self):
        prof = clifford_profile(jets_start=((1, 0, 0), (0.5, 1, 0)),
                                jets_end=((0.2, -1, 0), (0.9, 0.1, 0)))
        rev = prof.reverse()
        assert rev.jets_start == ((0.2, 1.0, 0.0), (0.9, -0.1, 0.0))
        assert rev.jets_end == ((1.0, 0.0, 0.0), (0.5, -1.0, 0.0))
        back = rev.reverse()
        assert np.array_equal(back.values_a, prof.values_a)
        assert np.array_equal(back.values_b, prof.values_b)

    def test_csv_round_trip(self, tmp_path):
        prof = clifford_profile(n=128, jets_start=((1, 0, 0), (0.5, 1, 0)))
        path = tmp_path / "double.csv"
        save_profile_csv(prof, path)
        back = load_profile_csv(path)
        assert isinstance(back, DoublyWarpProfile)
        assert np.array_equal(back.values_a, prof.values_a)
        assert np.array_equal(back.values_b, prof.values_b)
        assert back.jets_start == prof.jets_start
        assert back.fingerprint() == prof.fingerprint()

    def test_unknown_kind_rejected(self, tmp_path):
        prof = clifford_profile(n=128)
        path = tmp_path / "double.csv"
        save_profile_csv(prof, path)
        body = path.read_text().replace("# kind=doubly_warped", "# kind=mystery")
        path.write_text(body)
        with pytest.raises(SchemaViolation):
            load_profile_csv(path)


# -- constant warps ------------------------------------------------------------

CONSTANTS = (1e-12, 0.37, 1.0, 123.0)


def constant_profile(kind, n, c):
    """A profile whose first warp is the constant c, and that warp's
    interpolant and samples."""
    grid = np.linspace(0.25, 2.75, n)
    if kind == "warped":
        prof = WarpProfile(grid=grid, values=np.full(n, c), fiber_dim=2)
        return prof, prof._splines[0], prof.values
    prof = DoublyWarpProfile(grid=grid, values_a=np.full(n, c),
                             values_b=c * (1.5 + 0.5 * np.sin(grid)),
                             dim_a=1, dim_b=3)
    return prof, prof._splines[0], prof.values_a


def probe_points(grid):
    """Nodes, midpoints, the abscissae of the volume quadrature on the
    halved panels, 0-d and scalar inputs, and points outside the grid."""
    h = grid[1] - grid[0]
    bp = _halved(grid)
    half = 0.5 * np.diff(bp)
    mid = 0.5 * (bp[:-1] + bp[1:])
    abscissae = (mid[:, None] + half[:, None] * gauss_legendre_rule()[0]).ravel()
    outside = np.array([grid[0] - 1.0, grid[0] - h / 3, grid[-1] + h / 3,
                        grid[-1] + 10.0])
    return [grid, grid[:-1] + 0.5 * h, abscissae, outside,
            np.array(grid[5]), float(grid[5]), 1.3]


@pytest.mark.parametrize("kind", ["warped", "doubly_warped"])
@pytest.mark.parametrize("n", [8, 128, 1024, 2048])
def test_constant_warp_evaluates_as_its_spline_bit_for_bit(kind, n):
    for c in CONSTANTS:
        prof, closed_form, values = constant_profile(kind, n, c)
        assert isinstance(closed_form, PiecewiseCubic)
        assert not closed_form.c[:3].any() and (closed_form.c[3] == c).all()
        spline = CubicSpline(prof.grid, values)
        for x in probe_points(prof.grid):
            for nu in (0, 1, 2):
                got = np.asarray(closed_form(x, nu))
                want = np.asarray(spline(x, nu))
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_no_constant_warp_builds_a_spline(monkeypatch):
    constant = []

    def counting(x, y):
        constant.append(bool(np.all(y == y[0])))
        return CubicSpline(x, y)

    monkeypatch.setattr(profiles, "CubicSpline", counting)
    result = surgery_certificate(1, 3, 0.05)
    closed_forms = [warp for assembly in result.assemblies.values()
                    for piece in assembly.pieces
                    for warp, _, _ in piece.profile.warp_splines
                    if not warp.c[:3].any()]
    assert closed_forms
    assert constant and not any(constant)


CLOSING_GRID = np.linspace(0.0, 1.0, 16)
BAD_CLOSINGS = {
    f"{end}={flag}": lambda end=end, flag=flag: DoublyWarpProfile(
        grid=CLOSING_GRID, values_a=np.ones(16), values_b=np.ones(16),
        dim_a=1, dim_b=2, **{end: flag})
    for end in ("closed_start", "closed_end") for flag in (False, True)
}
# one warp has no index 1 to close
BAD_CLOSINGS["one-warp index 1"] = lambda: profiles.make_profile(
    CLOSING_GRID, [np.ones(16)], (2,), closed_start=1)


@pytest.mark.parametrize("build", BAD_CLOSINGS.values(), ids=BAD_CLOSINGS)
def test_closed_end_is_a_warp_index_not_a_bool(build):
    # False == 0 and True == 1, so a bool once read as a warp index
    with pytest.raises(ParameterOutOfRange, match="warp index below"):
        build()


# -- non-finite input ----------------------------------------------------------

NON_FINITE = (np.nan, np.inf, -np.inf)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("at", [0, 17, 31])
def test_non_finite_warp_rejected(bad, at):
    grid = np.linspace(0.0, 1.0, 32)
    values = np.ones(32)
    values[at] = bad
    with pytest.raises(NonPositiveWarp):
        WarpProfile(grid=grid, values=values, fiber_dim=2)
    with pytest.raises(NonPositiveWarp):
        DoublyWarpProfile(grid=grid, values_a=np.ones(32), values_b=values,
                          dim_a=1, dim_b=2)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("at", [0, 17, 31, slice(30, 32)],
                         ids=["first", "inner", "last", "last-two"])
def test_non_finite_grid_rejected(bad, at):
    grid = np.linspace(0.0, 1.0, 32)
    grid[at] = bad
    with pytest.raises(DegenerateGrid):
        WarpProfile(grid=grid, values=np.ones(32), fiber_dim=2)


def _mangle_cell(path, column, value, row=20):
    """Rewrite one data cell of a profile CSV."""
    lines = path.read_text().splitlines()
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    cols = lines[data[row]].split(",")
    cols[column] = value
    lines[data[row]] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("make, column", [(sin_profile, 1),
                                          (clifford_profile, 1),
                                          (clifford_profile, 2)],
                         ids=["phi", "a", "b"])
def test_non_finite_value_cell_is_a_typed_error(tmp_path, make, column, bad):
    path = tmp_path / "prof.csv"
    save_profile_csv(make(n=64), path)
    _mangle_cell(path, column, bad)
    with pytest.raises(NonPositiveWarp):
        load_profile_csv(path)


@pytest.mark.parametrize("make", [sin_profile, clifford_profile],
                         ids=["warped", "doubly_warped"])
def test_every_stored_cell_matters(tmp_path, make):
    # a file holds only what defines its piece: a cell moved by one ulp,
    # end rows included, is refused or reloads as a different piece
    path = tmp_path / "prof.csv"
    original = save_profile_csv(make(n=64), path)
    text = path.read_text()
    rows = [ln.split(",") for ln in text.splitlines() if not ln.startswith("#")]
    for column in range(len(rows[0])):
        for row in (0, 1, -2, -1):
            bumped = np.nextafter(float(rows[row][column]), np.inf)
            _mangle_cell(path, column, "%.17g" % bumped, row)
            try:
                assert load_profile_csv(path).fingerprint() != original, \
                    (column, row)
            except SchemaViolation:
                pass
            path.write_text(text)


def test_version_1_file_rejected(tmp_path):
    # the earlier format: today's header, and the spline's first and second
    # derivatives stored beside the warps
    prof = clifford_profile(n=64)
    path = tmp_path / "prof.csv"
    save_profile_csv(prof, path)
    head = [ln for ln in path.read_text().splitlines() if ln.startswith("#")]
    head[0] = "# neckforge-profile-version=1"
    head[-1] = "# columns=s,a,b,da,db,d2a,d2b"
    sa = CubicSpline(prof.grid, prof.values_a)
    sb = CubicSpline(prof.grid, prof.values_b)
    table = np.column_stack([prof.grid, prof.values_a, prof.values_b,
                             sa(prof.grid, 1), sb(prof.grid, 1),
                             sa(prof.grid, 2), sb(prof.grid, 2)])
    rows = [",".join("%.17g" % x for x in row) for row in table]
    path.write_text("\n".join(head + rows) + "\n")
    with pytest.raises(SchemaViolation):
        load_profile_csv(path)


# -- the not-a-knot builder ----------------------------------------------------

def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got.view(np.int64),
                                                      want.view(np.int64))


# warps on u in [0, 1]
BUILDER_WARPS = {
    "smooth": lambda u: 1.5 + np.sin(3.0 * u),
    "steep": lambda u: 1e-3 + np.exp(-4e3 * (u - 0.4) ** 2),
    "tiny": lambda u: 1e-13 * (1.0 + u * u),
    "closed": lambda u: np.sin(np.pi * u),
}


@pytest.mark.parametrize("warp", BUILDER_WARPS.keys())
@pytest.mark.parametrize("n", [8, 9, 1024, 2048])
def test_builder_coefficients_are_scipys(n, warp):
    grid = np.linspace(0.25, 2.75, n)
    values = BUILDER_WARPS[warp](np.linspace(0.0, 1.0, n))
    if warp == "closed":
        values[-1] = 0.0
        prof = WarpProfile(grid=grid, values=values, fiber_dim=2,
                           closed_start=True, closed_end=True)
    else:
        prof = WarpProfile(grid=grid, values=values, fiber_dim=2)
    assert same_bits(prof._splines[0].c, CubicSpline(grid, values).c)
    assert same_bits(profiles.CubicSpline(grid, values).c,
                     CubicSpline(grid, values).c)


@pytest.mark.parametrize("name", ["body_remnant", "homotopy_0"])
def test_builder_coefficients_are_scipys_for_a_remnant_and_a_collar_leg(
        name):
    # the 2048-node remnant of a surgery, closed at its start, and the
    # first collar leg of its neck: built pieces, each with a constant warp
    surgery = surgery_certificate(1, 3, 0.1).assemblies["surgery"]
    prof = surgery.piece(name).profile
    assert name != "body_remnant" or prof.grid.size == 2048
    for (warp, _, _), values in zip(prof.warp_splines, warp_samples(prof)):
        assert same_bits(warp.c, CubicSpline(prof.grid, values).c)
        if not np.all(values == values[0]):
            assert same_bits(profiles.CubicSpline(prof.grid, values).c,
                             CubicSpline(prof.grid, values).c)


def test_builder_raises_on_a_singular_band_as_solve_banded_does():
    # knots all equal: every diagonal is zero, so dgtsv reports info > 0
    x = np.zeros(8)
    with np.errstate(all="ignore"):
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            profiles.CubicSpline(x, np.arange(8.0))
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            solve_banded((1, 1), np.zeros((3, 8)), np.ones(8),
                         check_finite=False)


def warp_samples(profile) -> tuple:
    if isinstance(profile, WarpProfile):
        return (profile.values,)
    return (profile.values_a, profile.values_b)


BUILDS = {
    "tunnel": lambda: tunnel_certificate(3, sharpness=1e4),
    "surgery": lambda: surgery_certificate(1, 3, 0.1),
    "cor-t": lambda: pipelines.attach_product_ingredient(1, 2),
    "cor-v": lambda: pipelines.sphere_chain_certificate(
        1.5 * 2 * np.pi**2, 3),
    "main-b-budget": lambda: pipelines.verify_volume_budget(
        pipelines.hemisphere_standin(3), 0.05, dim=3),
}


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
def test_every_piece_warp_has_scipys_coefficients(build):
    # constant warps included: their closed form's coefficients are the
    # spline's too
    for assembly in build().assemblies.values():
        for piece in assembly.pieces:
            prof = piece.profile
            for (warp, _, _), values in zip(prof.warp_splines,
                                            warp_samples(prof)):
                assert same_bits(warp.c, CubicSpline(prof.grid, values).c)


# -- constant warps are one value ----------------------------------------------

def reference_curvature(prof, s, idx):
    """R with every warp, constant ones included, read by cubic_rows at
    every point, as _curvature_at read them before constant warps became
    one value."""
    jets = [cubic_rows(sp.c, sp.x, s, idx, nu) for sp in prof._splines
            for nu in (0, 1, 2)]
    formula = (scalar_curvature_warped if len(jets) == 3
               else scalar_curvature_doubly_warped)
    return formula(*jets, *prof.component_dims)


def distinct_profiles(result) -> list:
    found = {}
    for assembly in result.assemblies.values():
        for piece in assembly.pieces:
            found[id(piece.profile)] = piece.profile
    return list(found.values())


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
def test_constant_warps_leave_every_curvature_bit(build):
    profs = distinct_profiles(build())
    assert any(v is not None for prof in profs for v in prof._constants)
    for prof in profs:
        s, R = prof.curvature_samples()
        points, idx = profiles._curvature_sample_points(prof.grid,
                                                        *prof.closed_ends)
        assert same_bits(s, points)
        assert same_bits(R, reference_curvature(prof, points, idx))


CYLINDERS = {
    "one warp": lambda grid: WarpProfile(
        grid=grid, values=np.full(grid.size, 0.5), fiber_dim=2),
    "two warps": lambda grid: DoublyWarpProfile(
        grid=grid, values_a=np.full(grid.size, 1.25),
        values_b=np.full(grid.size, 0.5), dim_a=2, dim_b=2),
}


@pytest.mark.parametrize("make", CYLINDERS.values(), ids=CYLINDERS.keys())
def test_a_cylinder_keeps_the_sample_shape(make):
    # every warp constant: R is still one value per sample point
    prof = make(np.linspace(0.0, 3.0, 128))
    s, R = prof.curvature_samples()
    assert R.shape == s.shape == (255,)
    points, idx = profiles._curvature_sample_points(prof.grid, False, False)
    assert same_bits(R, reference_curvature(prof, points, idx))
    grid2d = np.linspace(-0.5, 3.5, 12).reshape(3, 4)
    R2 = prof.scalar_curvature(grid2d)
    assert R2.shape == (3, 4)
    flat = grid2d.ravel()
    assert same_bits(R2.ravel(), reference_curvature(
        prof, flat, knot_intervals(prof.grid, flat)))
    # 2 / 0.25 = 8 per sphere of radius 1/2; 2 / 1.5625 = 1.28 for 1.25
    assert np.allclose(R, 8.0 if len(prof.warps) == 1 else 9.28, rtol=1e-15)
