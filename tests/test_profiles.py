"""Profile construction, evaluation, reversal, and CSV round-trips."""

import numpy as np
import pytest

from neckforge.errors import (
    DegenerateGrid,
    NonPositiveWarp,
    ParameterOutOfRange,
    SchemaViolation,
)
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
        back = prof.reverse().reverse()
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

    def test_mangled_derivative_column_rejected(self, tmp_path):
        prof = sin_profile(n=64)
        path = tmp_path / "prof.csv"
        save_profile_csv(prof, path)
        lines = path.read_text().splitlines()
        out = []
        for ln in lines:
            if ln.startswith("#"):
                out.append(ln)
            else:
                cols = ln.split(",")
                cols[2] = "%.17g" % (3.0 * float(cols[2]) + 0.5)
                out.append(",".join(cols))
        path.write_text("\n".join(out) + "\n")
        with pytest.raises(SchemaViolation):
            load_profile_csv(path)

    def test_missing_version_rejected(self, tmp_path):
        prof = sin_profile(n=64)
        path = tmp_path / "prof.csv"
        save_profile_csv(prof, path)
        body = path.read_text().replace("# neckforge-profile-version=1\n", "")
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
