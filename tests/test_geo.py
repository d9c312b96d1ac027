"""Geodetic/ECEF/ENU conversion tests against independent oracles."""
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmas import geo
from hmas.geo import (FixQuality, GeodeticCoord, RtkFix, ecef_to_enu, ecef_to_geodetic, enu_to_ecef,
                      geodetic_to_ecef, geodetic_to_enu)

from fix_oracle import bad_payloads

# Frozen from a 50-digit evaluation of the same closed form (mpmath);
# see test_frozen_oracle_values_still_match below.
ECEF_NANCY = (4193427.803902555, 451849.748145924, 4768770.735173676)
SEMI_MINOR_B = 6356752.314245179

NANCY = GeodeticCoord(48.70, 6.15, 220.0)


def test_equator_prime_meridian_anchor():
    x, y, z = geodetic_to_ecef(GeodeticCoord(0.0, 0.0, 0.0))
    assert x == pytest.approx(6378137.0, abs=1e-9)
    assert y == pytest.approx(0.0, abs=1e-9)
    assert z == pytest.approx(0.0, abs=1e-9)


def test_pole_maps_to_semi_minor_axis():
    x, y, z = geodetic_to_ecef(GeodeticCoord(90.0, 0.0, 0.0))
    assert abs(z - 6356752.314245) < 1e-3
    assert math.hypot(x, y) < 1e-6


def test_nancy_against_frozen_high_precision_oracle():
    x, y, z = geodetic_to_ecef(NANCY)
    assert x == pytest.approx(ECEF_NANCY[0], abs=1e-6)
    assert y == pytest.approx(ECEF_NANCY[1], abs=1e-6)
    assert z == pytest.approx(ECEF_NANCY[2], abs=1e-6)


def test_frozen_oracle_values_still_match():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    a = mp.mpf(6378137)
    f = 1 / mp.mpf("298.257223563")
    e2 = f * (2 - f)
    lat = mp.radians(mp.mpf("48.70"))
    lon = mp.radians(mp.mpf("6.15"))
    h = mp.mpf(220)
    n = a / mp.sqrt(1 - e2 * mp.sin(lat) ** 2)
    x = (n + h) * mp.cos(lat) * mp.cos(lon)
    y = (n + h) * mp.cos(lat) * mp.sin(lon)
    z = (n * (1 - e2) + h) * mp.sin(lat)
    assert abs(float(x) - ECEF_NANCY[0]) < 1e-6
    assert abs(float(y) - ECEF_NANCY[1]) < 1e-6
    assert abs(float(z) - ECEF_NANCY[2]) < 1e-6
    assert abs(float(a * (1 - f)) - SEMI_MINOR_B) < 1e-6


def test_ecef_on_equator_inverts_exactly():
    g = ecef_to_geodetic((6378137.0, 0.0, 0.0))
    assert g.lat == pytest.approx(0.0, abs=1e-12)
    assert g.lon == pytest.approx(0.0, abs=1e-12)
    assert g.alt == pytest.approx(0.0, abs=1e-9)


def test_round_trip_nancy():
    g = ecef_to_geodetic(geodetic_to_ecef(NANCY))
    assert g.lat == pytest.approx(NANCY.lat, abs=1e-9)
    assert g.lon == pytest.approx(NANCY.lon, abs=1e-9)
    assert g.alt == pytest.approx(NANCY.alt, abs=1e-6)


@settings(max_examples=200, deadline=None)
@given(
    lat=st.floats(-89.9, 89.9),
    lon=st.floats(-179.9, 179.9),
    alt=st.floats(-400.0, 9000.0),
)
def test_round_trip_property(lat, lon, alt):
    g = GeodeticCoord(lat, lon, alt)
    back = ecef_to_geodetic(geodetic_to_ecef(g))
    assert abs(back.lat - lat) < 1e-9
    assert abs(back.lon - lon) < 1e-9
    assert abs(back.alt - alt) < 1e-6


def test_pole_inverse():
    g = ecef_to_geodetic((0.0, 0.0, SEMI_MINOR_B + 5.0))
    assert g.lat == pytest.approx(90.0, abs=1e-9)
    assert g.alt == pytest.approx(5.0, abs=1e-6)


def test_earth_center_rejected():
    with pytest.raises(ValueError):
        ecef_to_geodetic((0.0, 0.0, 0.0))


def test_coordinate_range_validation():
    with pytest.raises(ValueError):
        GeodeticCoord(91.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GeodeticCoord(0.0, -180.0, 0.0)
    with pytest.raises(ValueError):
        GeodeticCoord(0.0, 0.0, float("nan"))


_NON_FINITE_POINTS = [tuple(bad if i == k else 1.0 for i in range(3))
                      for bad in (math.nan, math.inf, -math.inf) for k in range(3)]


@pytest.mark.parametrize("point", _NON_FINITE_POINTS, ids=repr)
def test_a_non_finite_point_is_refused(point):
    """A NaN or infinite coordinate, in any place, of an ECEF point or of an
    ENU point (whose ECEF image is then not finite) raises."""
    ecef = tuple(v if not math.isfinite(v) else c for v, c in zip(point, ECEF_NANCY))
    for call in (lambda: ecef_to_geodetic(ecef), lambda: ecef_to_enu(ecef, NANCY),
                 lambda: enu_to_ecef(point, NANCY), lambda: geo.enu_to_geodetic(point, NANCY)):
        with pytest.raises(ValueError, match="ECEF coordinates must be finite"):
            call()


def test_scalar_conversions_return_tuples_of_three_floats():
    ecef = enu_to_ecef((12.5, -3.0, 1.0), NANCY)
    for point in (geodetic_to_ecef(NANCY), ecef, ecef_to_enu(ecef, NANCY),
                  geodetic_to_enu(NANCY, NANCY)):
        assert type(point) is tuple and len(point) == 3
        assert all(type(v) is float for v in point)


class TestEnu:
    def test_anchor_maps_to_origin(self):
        assert ecef_to_enu(geodetic_to_ecef(NANCY), NANCY) == (0.0, 0.0, 0.0)

    def test_point_straight_up_is_u_axis(self):
        above = GeodeticCoord(NANCY.lat, NANCY.lon, NANCY.alt + 1.0)
        east, north, up = geodetic_to_enu(above, NANCY)
        assert abs(east) < 1e-9
        assert abs(north) < 1e-9
        assert up == pytest.approx(1.0, abs=1e-9)

    def test_small_north_offset_against_independent_basis(self):
        offset = GeodeticCoord(NANCY.lat + 1e-5, NANCY.lon, NANCY.alt)
        e_east, e_north, _ = geodetic_to_enu(offset, NANCY)
        # independent basis computation straight from the rotation definition
        p0 = geodetic_to_ecef(NANCY)
        p1 = geodetic_to_ecef(offset)
        lam = math.radians(NANCY.lon)
        phi = math.radians(NANCY.lat)
        d = (p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2])
        east = -math.sin(lam) * d[0] + math.cos(lam) * d[1]
        north = (-math.sin(phi) * math.cos(lam) * d[0]
                 - math.sin(phi) * math.sin(lam) * d[1] + math.cos(phi) * d[2])
        assert abs(e_east) < 1e-6
        assert e_east == pytest.approx(east, abs=1e-9)
        assert e_north == pytest.approx(north, abs=1e-9)
        # meridian-arc sanity: M(phi) * dphi
        m = (geo.WGS84_A * (1 - geo.WGS84_E2)
             / (1 - geo.WGS84_E2 * math.sin(phi) ** 2) ** 1.5)
        assert e_north == pytest.approx(m * math.radians(1e-5), abs=5e-4)

    def test_round_trip_enu(self, rng):
        for _ in range(200):
            e = (*rng.uniform(-50_000, 50_000, size=2).tolist(), rng.uniform(-100, 5000))
            p = enu_to_ecef(e, NANCY)
            back = ecef_to_enu(p, NANCY)
            assert back[0] == pytest.approx(e[0], abs=1e-6)
            assert back[1] == pytest.approx(e[1], abs=1e-6)
            assert back[2] == pytest.approx(e[2], abs=1e-6)

    def test_rigidity_enu_distance_equals_ecef_chord(self, rng):
        for _ in range(200):
            b = GeodeticCoord(rng.uniform(-80, 80), rng.uniform(-179, 179),
                              rng.uniform(0, 2000))
            p1 = enu_to_ecef(rng.uniform(-10_000, 10_000, 3).tolist(), b)
            p2 = enu_to_ecef(rng.uniform(-10_000, 10_000, 3).tolist(), b)
            e1 = ecef_to_enu(p1, b)
            e2 = ecef_to_enu(p2, b)
            chord = math.dist(p1, p2)
            enu_d = math.dist(e1, e2)
            assert abs(enu_d - chord) <= 1e-9 * max(chord, 1.0)


def _rows(coords):
    return np.array([[c.lat, c.lon, c.alt] for c in coords])


class TestArrayConversions:
    """The array conversions against the scalar ones, bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(-89.0, 89.0),
                              st.floats(-180.0, 180.0, exclude_min=True),
                              st.floats(-400.0, 9000.0),
                              st.tuples(*[st.floats(-50.0, 50.0)] * 3)),
                    min_size=1, max_size=8))
    def test_enu_to_geodetic_matches_scalar_bitwise(self, rows):
        bases = [GeodeticCoord(lat, lon, alt) for lat, lon, alt, _ in rows]
        offsets = np.array([offset for *_, offset in rows])
        per_row = geo.enu_to_geodetic_array(offsets, _rows(bases))
        expected = _rows(geo.enu_to_geodetic(e, b) for e, b in zip(offsets.tolist(), bases))
        assert per_row.tobytes() == expected.tobytes()
        one_base = geo.enu_to_geodetic_array(offsets, bases[0])
        expected = _rows(geo.enu_to_geodetic(e, bases[0]) for e in offsets.tolist())
        assert one_base.tobytes() == expected.tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(-89.0, 89.0),
                              st.floats(-180.0, 180.0, exclude_min=True),
                              st.floats(-400.0, 9000.0)), min_size=1, max_size=8),
           st.sampled_from([NANCY, GeodeticCoord(-0.0, -0.0, 0.0), GeodeticCoord(0.0, 0.0, 0.0)]))
    def test_geodetic_to_enu_matches_scalar_bitwise(self, rows, base):
        got = geo.geodetic_to_enu_array(np.array(rows), base)
        expected = [geodetic_to_enu(GeodeticCoord(*row), base) for row in rows]
        assert got.tobytes() == np.array(expected).tobytes()

    def test_special_points_match_scalar(self):
        points = [(0.0, 0.0, SEMI_MINOR_B + 5.0),    # north pole
                  (0.0, 0.0, -SEMI_MINOR_B - 5.0),   # south pole
                  (-6378137.0, -0.0, 0.0),           # longitude -180 wraps
                  (6378137.0, 0.0, 0.0),
                  ECEF_NANCY]
        got = geo.ecef_to_geodetic_array(points)
        assert got.tobytes() == _rows(map(ecef_to_geodetic, points)).tobytes()
        assert got[2, 1] == 180.0
        back = geo.geodetic_to_ecef_array(got)
        expected = [geodetic_to_ecef(GeodeticCoord(*row)) for row in got.tolist()]
        assert back.tolist() == [list(p) for p in expected]

    def test_invalid_input_rejected_like_scalar(self):
        with pytest.raises(ValueError, match="Earth center"):
            geo.ecef_to_geodetic_array([[1e6, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            geo.ecef_to_geodetic_array([[np.inf, 0.0, 0.0]])
        with pytest.raises(ValueError, match="latitude"):
            geo.geodetic_to_ecef_array([[91.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="longitude"):
            geo.enu_to_geodetic_array([[0.0, 0.0, 0.0]], np.array([[0.0, -180.0, 0.0]]))
        with pytest.raises(ValueError, match=r"\(N, 3\)"):
            geo.enu_to_geodetic_array([0.0, 0.0, 0.0], NANCY)


class TestFixCodec:
    def test_binary_round_trip(self):
        fix = RtkFix("rover_a", GeodeticCoord(48.1234567891, -6.2, 220.25),
                     FixQuality.FLOAT, 12.5)
        back = geo.decode_fix(geo.encode_fix(fix))
        assert back == fix

    @pytest.mark.parametrize("case", sorted(bad_payloads()))
    def test_a_payload_encode_fix_could_not_write_is_refused(self, case):
        with pytest.raises(ValueError):
            geo.decode_fix(bad_payloads()[case][0])

    def test_csv_round_trip(self, tmp_path):
        fixes = [
            RtkFix("r1", GeodeticCoord(48.7, 6.15, 220.0), FixQuality.FIXED, 0.5),
            RtkFix("r2", GeodeticCoord(-10.25, 120.5, -3.0), FixQuality.SINGLE, 1.0),
        ]
        path = tmp_path / "fixes.csv"
        geo.write_fix_csv(path, fixes)
        back = geo.read_fix_csv(path)
        assert [f.rover_id for f in back] == ["r1", "r2"]
        assert [f.quality for f in back] == [FixQuality.FIXED, FixQuality.SINGLE]
        for orig, rt in zip(fixes, back):
            assert rt.stamp == pytest.approx(orig.stamp, abs=1e-6)
            assert rt.position.lat == pytest.approx(orig.position.lat, abs=1e-10)
            assert rt.position.lon == pytest.approx(orig.position.lon, abs=1e-10)
            assert rt.position.alt == pytest.approx(orig.position.alt, abs=1e-6)

    def test_csv_missing_columns(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("stamp_s,rover_id\n0.0,x\n")
        with pytest.raises(ValueError, match="missing columns"):
            geo.read_fix_csv(bad)

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
    def test_csv_non_finite_stamp_rejected(self, tmp_path, stamp):
        path = tmp_path / "fixes.csv"
        fix = RtkFix("r1", GeodeticCoord(48.7, 6.15, 220.0), FixQuality.FIXED, 0.5)
        geo.write_fix_csv(path, [fix, fix, fix])
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("0.500000", stamp, 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"row 2: stamp {stamp} is not finite"):
            geo.read_fix_csv(path)

    @pytest.mark.parametrize("row, detail", [
        ("0.5,r1,nan,6.15,220.0,fixed", "latitude nan outside"),
        (",r1,48.7,6.15,220.0,fixed", "could not convert"),
        ("0.5,r1,48.7,6.15,220.0,rtk", "'rtk' is not a valid FixQuality"),
        ("0.5,r1,48.7", "float() argument"),
    ], ids=["nan_latitude", "empty_stamp", "unknown_quality", "short_row"])
    def test_csv_bad_row_names_file_and_row(self, tmp_path, row, detail):
        path = tmp_path / "fixes.csv"
        fix = RtkFix("r1", GeodeticCoord(48.7, 6.15, 220.0), FixQuality.FIXED, 0.5)
        geo.write_fix_csv(path, [fix])
        path.write_text(path.read_text() + row + "\n")
        with pytest.raises(ValueError) as err:
            geo.read_fix_csv(path)
        assert str(err.value).startswith(f"fix CSV {path} row 2: ")
        assert detail in str(err.value)


# -- the ENU rotations against their formulas, written out ---------------------


def _sincos(base):
    lat, lon = math.radians(base.lat), math.radians(base.lon)
    return math.sin(lat), math.cos(lat), math.sin(lon), math.cos(lon)


def _ref_ecef_to_enu(p, base):
    ox, oy, oz = geodetic_to_ecef(dataclasses.replace(base))
    sp, cp, sl, cl = _sincos(base)
    dx, dy, dz = p[0] - ox, p[1] - oy, p[2] - oz
    return (-sl * dx + cl * dy + 0.0 * dz,
            -sp * cl * dx + -sp * sl * dy + cp * dz,
            cp * cl * dx + cp * sl * dy + sp * dz)


def _ref_enu_to_ecef(e, base):
    ox, oy, oz = geodetic_to_ecef(dataclasses.replace(base))
    sp, cp, sl, cl = _sincos(base)
    east, north, up = e
    return (ox + (-sl * east + -sp * cl * north + cp * cl * up),
            oy + (cl * east + -sp * sl * north + cp * sl * up),
            oz + (0.0 * east + cp * north + sp * up))


def _coord_bits(c):
    return np.array(c, dtype=float).tobytes()


signed_zero = st.sampled_from([0.0, -0.0])
bases = st.builds(GeodeticCoord,
                  st.one_of(signed_zero, st.floats(-90.0, 90.0)),
                  st.one_of(signed_zero, st.floats(-179.999, 180.0)),
                  st.one_of(signed_zero, st.floats(-500.0, 9000.0)))
enu_points = st.tuples(*[st.one_of(signed_zero, st.floats(-5e4, 5e4))] * 3)


@given(st.lists(st.tuples(bases, enu_points), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_scalar_conversions_match_uncached_reference(cases):
    """A base keeps its frame from its first conversion, and the kept frame
    equals one computed afresh for an equal coordinate; 0.0 and -0.0
    latitudes and longitudes give their own (differently signed) bases."""
    for base, e in cases:
        ecef = geo.enu_to_ecef(e, base)
        assert _coord_bits(ecef) == _coord_bits(_ref_enu_to_ecef(e, base))
        assert (_coord_bits(geo.ecef_to_enu(ecef, base))
                == _coord_bits(_ref_ecef_to_enu(ecef, base)))


def _written_rotations(sp, cp, sl, cl, a, b, c):
    return (((-sl, cl, 0.0), (-sp * cl, -sp * sl, cp), (cp * cl, cp * sl, sp)),
            (-sl * a + cl * b + 0.0 * c,
             -sp * cl * a + -sp * sl * b + cp * c,
             cp * cl * a + cp * sl * b + sp * c),
            (-sl * a + -sp * cl * b + cp * cl * c,
             cl * a + -sp * sl * b + cp * sl * c,
             0.0 * a + cp * b + sp * c))


def _kernel_rotations(sp, cp, sl, cl, a, b, c):
    rows = geo._enu_rows(sp, cp, sl, cl)
    return rows, geo._to_enu(rows, a, b, c), geo._from_enu(rows, a, b, c)


def _flat(rotations):
    rows, to_enu, from_enu = rotations
    return [*(v for row in rows for v in row), *to_enu, *from_enu]


@given(st.lists(st.tuples(*[st.one_of(signed_zero, st.floats(-1e6, 1e6))] * 7),
                min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_rotation_kernels_match_their_formulas(cases):
    """The basis rows and both rotation sums, over floats and over numpy
    columns, bit for bit against the formulas written out above."""
    want = np.array([_flat(_written_rotations(*case)) for case in cases])
    on_floats = np.array([_flat(_kernel_rotations(*case)) for case in cases])
    assert on_floats.tobytes() == want.tobytes()
    on_columns = np.broadcast_arrays(*_flat(_kernel_rotations(*np.array(cases).T)))
    assert np.array(on_columns).T.tobytes() == want.tobytes()


# -- a run of equal rows converts once; a coordinate keeps its frame -----------


geodetic_rows = st.tuples(st.one_of(signed_zero, st.floats(-89.0, 89.0)),
                          st.one_of(signed_zero, st.floats(-180.0, 180.0, exclude_min=True)),
                          st.one_of(signed_zero, st.floats(-400.0, 9000.0)))


def _in_runs(values):
    """Lists made of runs: each drawn value repeated 1-4 times in a row."""
    return st.lists(st.tuples(values, st.integers(1, 4)), min_size=1, max_size=6).map(
        lambda runs: [value for value, count in runs for _ in range(count)])


def _hex_rows(rows):
    return [[float.hex(v) for v in row] for row in rows]


def _scalar_rows(coords):
    return _hex_rows(dataclasses.astuple(c) for c in coords)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_in_runs(geodetic_rows))
@example([(48.7, 6.15, 220.0)])                                       # a single row
@example([(48.7, 6.15, 220.0)] * 5)                                   # all rows equal
@example([(float(k), 6.15, 220.0) for k in range(6)])                 # no row repeated
@example([(1.0, 2.0, 3.0)] * 3 + [(4.0, 5.0, 6.0)] + [(1.0, 2.0, 3.0)] * 2)  # a run at each end
@example([(0.0, 0.0, 0.0), (0.0, -0.0, 0.0), (-0.0, -0.0, 0.0), (0.0, 0.0, 0.0)])  # ±0.0 only
def test_ecef_to_geodetic_array_converts_runs_like_scalar(rows):
    points = [geodetic_to_ecef(GeodeticCoord(*row)) for row in rows]
    got = geo.ecef_to_geodetic_array(points)
    assert _hex_rows(got.tolist()) == _scalar_rows(map(ecef_to_geodetic, points))


def test_rows_that_differ_only_in_a_zero_sign_are_converted_apart():
    points = [(6378137.0, 0.0, 0.0), (6378137.0, -0.0, 0.0), (6378137.0, -0.0, 0.0),
              (6378137.0, 0.0, -0.0)]
    got = geo.ecef_to_geodetic_array(points)
    assert _hex_rows(got.tolist()) == _scalar_rows(map(ecef_to_geodetic, points))
    assert [math.copysign(1.0, lon) for lon in got[:, 1]] == [1.0, -1.0, -1.0, 1.0]
    assert math.copysign(1.0, got[3, 0]) == -1.0


def _check_enu_rows(enu, base_rows):
    """``enu_to_geodetic_array`` against the scalar conversion, row by row,
    with one base per row and with the first row's base for every row."""
    bases = [GeodeticCoord(*row) for row in base_rows]
    got = geo.enu_to_geodetic_array(enu, np.array(base_rows))
    assert _hex_rows(got.tolist()) == _scalar_rows(map(geo.enu_to_geodetic, enu, bases))
    got = geo.enu_to_geodetic_array(enu, bases[0])
    assert _hex_rows(got.tolist()) == _scalar_rows(geo.enu_to_geodetic(e, bases[0]) for e in enu)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_enu_to_geodetic_array_converts_runs_like_scalar(data):
    """ENU rows and per-row bases each come in runs, and the runs need not
    line up: a base may repeat where the ENU rows do not, and the reverse."""
    enu = data.draw(_in_runs(enu_points))
    n = len(enu)
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    bounds = [0, *cuts, n]
    base_rows = []
    for lo, hi in zip(bounds, bounds[1:]):
        base_rows += [data.draw(geodetic_rows)] * (hi - lo)
    _check_enu_rows(enu, base_rows)


@pytest.mark.parametrize("enu,base_rows", [
    ([(1.0, 2.0, 3.0), (1.5, 2.0, 3.0), (2.0, 2.0, 3.0)], [(48.7, 6.15, 220.0)] * 3),
    ([(1.0, 2.0, 3.0)] * 3, [(48.7, 6.15, 220.0), (48.7, 6.15, 221.0), (-0.0, 6.15, 220.0)]),
    ([(0.0, 0.0, 0.0), (-0.0, 0.0, 0.0), (0.0, -0.0, 0.0)], [(0.0, 0.0, 0.0)] * 3),
], ids=["bases_repeat", "enu_repeats", "zero_signs"])
def test_enu_runs_and_base_runs_need_not_line_up(enu, base_rows):
    _check_enu_rows(enu, base_rows)


def test_a_kept_frame_changes_no_conversion():
    kept = GeodeticCoord(48.7, 6.15, 220.0)
    frame = geo._frame(kept)
    assert geo._frame(kept) is frame
    points = [(1.0, -2.0, 3.0), (0.0, -0.0, 0.0), (-1e4, 2e4, -300.0)]
    for e in points:
        fresh = GeodeticCoord(48.7, 6.15, 220.0)
        ecef = geo.enu_to_ecef(e, fresh)
        assert _coord_bits(geo.enu_to_ecef(e, kept)) == _coord_bits(ecef)
        assert (_coord_bits(geo.ecef_to_enu(ecef, kept))
                == _coord_bits(geo.ecef_to_enu(ecef, GeodeticCoord(48.7, 6.15, 220.0))))
        far = geo.enu_to_geodetic(e, GeodeticCoord(48.7, 6.15, 220.0))
        assert geo.enu_to_geodetic(e, kept) == far
        assert (_coord_bits(geo.geodetic_to_enu(far, kept))
                == _coord_bits(geo.geodetic_to_enu(far, GeodeticCoord(48.7, 6.15, 220.0))))
    assert _coord_bits(geodetic_to_ecef(kept)) == _coord_bits(geodetic_to_ecef(NANCY))


def test_a_kept_frame_is_no_field():
    kept, fresh = GeodeticCoord(48.7, 6.15, 220.0), GeodeticCoord(48.7, 6.15, 220.0)
    geo._frame(kept)
    assert kept == fresh and hash(kept) == hash(fresh) and repr(kept) == repr(fresh)
    assert dataclasses.astuple(kept) == dataclasses.astuple(fresh) == (48.7, 6.15, 220.0)
    assert pickle.dumps(kept) == pickle.dumps(fresh)
    back = pickle.loads(pickle.dumps(kept))
    assert back == kept and geo._frame(back) == geo._frame(fresh)
    moved = dataclasses.replace(kept, alt=320.0)
    assert moved == GeodeticCoord(48.7, 6.15, 320.0)
    assert (_coord_bits(geodetic_to_ecef(moved))
            == _coord_bits(geodetic_to_ecef(GeodeticCoord(48.7, 6.15, 320.0))))
    assert geodetic_to_ecef(moved) != geodetic_to_ecef(kept)
