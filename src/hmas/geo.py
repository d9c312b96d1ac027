"""Geolocation pipeline: geodetic/ECEF/ENU conversions anchored at a fixed
RTK base, its correction stream on the bus, and a stochastic rover fix model
with one noise table, ``GRADE_SIGMAS``, and one disturbance decay time.

Conversions use the WGS84 closed forms (a = 6378137 m, f = 1/298.257223563);
the inverse is Bowring's start refined by a short fixed-point iteration. Per
point, ENU and ECEF points are ``quat.Vec3`` float tuples, and an ECEF point
must be finite where a conversion takes or makes one. The ENU rotations are
written once, as fixed-order float sums that take floats (per-point functions)
or numpy columns (array functions). A base's frame, its ECEF origin and ENU
basis rows, comes from one helper on Python floats, and a coordinate keeps
its frame after the first call. An array conversion converts each run of
consecutive rows equal bit for bit once: of one ``board4`` iteration's 48,524
board-truth rows, 12,312 differ from the row before. ``Rover.step`` draws,
combines and converts its one fix's error as Python floats too, with numpy's
operations in numpy's order, and ``Rover.step_batch`` does the same over
arrays. Neither the base nor a rover keeps a clock: each sends or fixes at
the time its caller gives.
"""
from __future__ import annotations

import csv
import itertools
import math
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .bus import Bus, PublisherHandle, QosProfile, QualifiedName, Reliability, SubscriptionHandle
from .quat import Vec3, _finite_float, _finite_floats, _flag

WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)
WGS84_B = WGS84_A * (1.0 - WGS84_F)
_EP2 = WGS84_E2 / (1.0 - WGS84_E2)  # second eccentricity squared

DEFAULT_FIX_RATE_HZ = 14.0
FIX_PERIOD_S = 1.0 / DEFAULT_FIX_RATE_HZ
MAX_RUN_S = 86_400.0  # 24 h: the longest board run or scenario
DEFAULT_CORRECTION_TIMEOUT_S = 5.0
CORRECTION_INTERVAL_S = 1.0
CORRECTION_TOPIC = QualifiedName("hmas", "rtk/corrections")
CORRECTION_QOS = QosProfile(Reliability.RELIABLE, history_depth=1)
DISTURBANCE_DECAY_S = 3.0


def steps_within(duration_s: float, rate_hz: float) -> int:
    """The steps k >= 1 of a ``rate_hz`` clock whose time k / rate_hz is at most
    ``duration_s``, with 1e-9 of slack for a duration on that grid."""
    return math.floor(duration_s * rate_hz + 1e-9)


@dataclass(frozen=True)
class GeodeticCoord:
    """Latitude/longitude in degrees, altitude in meters above the ellipsoid, as floats."""

    lat: float
    lon: float
    alt: float

    def __post_init__(self) -> None:
        if not (type(self.lat) is type(self.lon) is type(self.alt) is float):
            for name, what in (("lat", "latitude"), ("lon", "longitude"), ("alt", "altitude")):
                object.__setattr__(self, name, _finite_float(getattr(self, name), what))
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 < self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} outside (-180, 180]")
        if not math.isfinite(self.alt):
            raise ValueError(f"altitude {self.alt} is not finite")

    def __getstate__(self) -> dict:
        """The fields alone: a frame that ``_frame`` kept is not pickled."""
        return {"lat": self.lat, "lon": self.lon, "alt": self.alt}


class FixQuality(Enum):
    SINGLE = "single"
    FLOAT = "float"
    FIXED = "fixed"


_QUALITY_ORDER = (FixQuality.SINGLE, FixQuality.FLOAT, FixQuality.FIXED)
# the rover's Gaussian noise per grade: (horizontal, vertical) sigma in meters
GRADE_SIGMAS = {FixQuality.SINGLE: (1.5, 3.0), FixQuality.FLOAT: (0.25, 0.50),
                FixQuality.FIXED: (0.01, 0.02)}


@dataclass(frozen=True)
class RtkFix:
    rover_id: str
    position: GeodeticCoord
    quality: FixQuality
    stamp: float


@dataclass(frozen=True)
class CorrectionMsg:
    epoch: int
    stamp: float


# -- conversions -------------------------------------------------------


def _finite_ecef(p: Vec3) -> Vec3:
    x, y, z = p
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError("ECEF coordinates must be finite")
    return p


def geodetic_to_ecef(g: GeodeticCoord) -> Vec3:
    return _frame(g)[0]


def ecef_to_geodetic(p: Vec3) -> GeodeticCoord:
    """Bowring's starting latitude refined by <= 5 fixed-point iterations."""
    x, y, z = _finite_ecef(p)
    rho = math.hypot(x, y)
    if rho < 1e-12 and abs(z) < 1e-12:
        raise ValueError("ECEF point at Earth center has no geodetic image")
    lon = math.atan2(y, x)
    if rho < 1e-9:
        lat = math.copysign(math.pi / 2.0, z)
        return GeodeticCoord(math.degrees(lat), math.degrees(lon), abs(z) - WGS84_B)
    beta = math.atan2(WGS84_A * z, WGS84_B * rho)
    lat = math.atan2(z + _EP2 * WGS84_B * math.sin(beta) ** 3,
                     rho - WGS84_E2 * WGS84_A * math.cos(beta) ** 3)
    for _ in range(5):
        s = math.sin(lat)
        n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * s * s)
        new_lat = math.atan2(z + WGS84_E2 * n * s, rho)
        if abs(new_lat - lat) < 1e-14:
            lat = new_lat
            break
        lat = new_lat
    s, c = math.sin(lat), math.cos(lat)
    alt = rho * c + z * s - WGS84_A * math.sqrt(1.0 - WGS84_E2 * s * s)
    lon_deg = math.degrees(lon)
    if lon_deg <= -180.0:
        lon_deg += 360.0
    return GeodeticCoord(math.degrees(lat), lon_deg, alt)


def _enu_rows(sp, cp, sl, cl):
    """ENU basis rows (east, north, up unit vectors in ECEF) from the sines and
    cosines of a base's latitude and longitude: floats, or numpy columns."""
    return (-sl, cl, 0.0), (-sp * cl, -sp * sl, cp), (cp * cl, cp * sl, sp)


def _to_enu(rows, dx, dy, dz):
    """ENU components of the ECEF offset (dx, dy, dz): each basis row's
    products with it, summed left to right. Floats or numpy columns."""
    (ex, ey, ez), (nx, ny, nz), (ux, uy, uz) = rows
    return ex * dx + ey * dy + ez * dz, nx * dx + ny * dy + nz * dz, ux * dx + uy * dy + uz * dz


def _from_enu(rows, e, n, u):
    """ECEF offset of the ENU vector (e, n, u): the basis rows weighted by
    ``e``, ``n`` and ``u``, summed in that order. Floats or numpy columns."""
    (ex, ey, ez), (nx, ny, nz), (ux, uy, uz) = rows
    return ex * e + nx * n + ux * u, ey * e + ny * n + uy * u, ez * e + nz * n + uz * u


def _frame(g: GeodeticCoord):
    """The ECEF position of ``g`` as 3 floats, and the ENU basis rows of the
    tangent plane there, from one sine and cosine of its latitude and
    longitude. As a base, ``g`` is the origin of the ENU frame. The first
    call keeps the frame in ``g.__dict__``, outside the dataclass fields."""
    frame = g.__dict__.get("_frame")
    if frame is None:
        lat, lon = math.radians(g.lat), math.radians(g.lon)
        sp, cp, sl, cl = math.sin(lat), math.cos(lat), math.sin(lon), math.cos(lon)
        n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sp * sp)
        origin = ((n + g.alt) * cp * cl, (n + g.alt) * cp * sl,
                  (n * (1.0 - WGS84_E2) + g.alt) * sp)
        frame = g.__dict__["_frame"] = origin, _enu_rows(sp, cp, sl, cl)
    return frame


def ecef_to_enu(p: Vec3, base: GeodeticCoord) -> Vec3:
    x, y, z = _finite_ecef(p)
    (ox, oy, oz), rows = _frame(base)
    return _to_enu(rows, x - ox, y - oy, z - oz)


def enu_to_ecef(e: Vec3, base: GeodeticCoord) -> Vec3:
    (ox, oy, oz), rows = _frame(base)
    dx, dy, dz = _from_enu(rows, *e)
    return _finite_ecef((ox + dx, oy + dy, oz + dz))


def geodetic_to_enu(g: GeodeticCoord, base: GeodeticCoord) -> Vec3:
    return ecef_to_enu(geodetic_to_ecef(g), base)


def enu_to_geodetic(e: Vec3, base: GeodeticCoord) -> GeodeticCoord:
    return ecef_to_geodetic(enu_to_ecef(e, base))


# -- array conversions ---------------------------------------------------
#
# The same closed forms over (N, 3) arrays, one point per row; latitude,
# longitude and altitude sit in columns 0-2 of a geodetic array. Each result
# equals the scalar function above bit for bit, so the scalar functions serve
# as the reference. That needs the scalar operation order, and atan2, hypot
# and cubes taken from ``math``: numpy's kernels for those can differ from
# libm in the last bit. The scalar functions stay the per-point path, as
# numpy's per-call cost dwarfs one conversion.


def _math_map(fn, *columns: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, *(c.tolist() for c in columns)), float, len(columns[0]))


def _cube(v: np.ndarray) -> np.ndarray:
    return np.fromiter(map(pow, v.tolist(), itertools.repeat(3)), float, len(v))


def _in_geodetic_ranges(lla: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of ``lla``: whether its latitude, longitude and altitude lie in
    GeodeticCoord's ranges; NaN lies in none."""
    lat, lon, alt = lla.T
    return np.abs(lat) <= 90.0, (-180.0 < lon) & (lon <= 180.0), np.isfinite(alt)


def _check_geodetic(lla: np.ndarray) -> None:
    """GeodeticCoord's range checks, over the rows of ``lla``."""
    lat_ok, lon_ok, alt_ok = _in_geodetic_ranges(lla)
    if not lat_ok.all():
        raise ValueError("latitude outside [-90, 90]")
    if not lon_ok.all():
        raise ValueError("longitude outside (-180, 180]")
    if not alt_ok.all():
        raise ValueError("altitude is not finite")


def _as_points(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) array, got shape {a.shape}")
    return a


def geodetic_to_ecef_array(lla) -> np.ndarray:
    """``geodetic_to_ecef`` over the rows of ``lla``."""
    lla = _as_points(lla)
    _check_geodetic(lla)
    lat = np.radians(lla[:, 0])
    lon = np.radians(lla[:, 1])
    alt = lla[:, 2]
    s, c = np.sin(lat), np.cos(lat)
    n = WGS84_A / np.sqrt(1.0 - WGS84_E2 * s * s)
    return np.stack([(n + alt) * c * np.cos(lon),
                     (n + alt) * c * np.sin(lon),
                     (n * (1.0 - WGS84_E2) + alt) * s], axis=1)


def ecef_to_geodetic_array(xyz) -> np.ndarray:
    """``ecef_to_geodetic`` over the rows of ``xyz``; each row leaves the
    fixed-point loop once it converges, as the scalar ``break`` does. A run
    of rows equal bit for bit (so 0.0 and -0.0 differ) is converted once."""
    xyz = _as_points(xyz)
    if not np.all(np.isfinite(xyz)):
        raise ValueError("ECEF coordinates must be finite")
    bits = xyz.view(np.uint64)
    firsts = np.flatnonzero(np.any(bits[1:] != bits[:-1], axis=1)) + 1
    if len(firsts) + 1 < len(xyz):
        starts = np.concatenate(([0], firsts))
        return np.repeat(ecef_to_geodetic_array(xyz[starts]),
                         np.diff(starts, append=len(xyz)), axis=0)
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    rho = _math_map(math.hypot, x, y)
    if np.any((rho < 1e-12) & (np.abs(z) < 1e-12)):
        raise ValueError("ECEF point at Earth center has no geodetic image")
    lon = _math_map(math.atan2, y, x)
    polar = rho < 1e-9
    beta = _math_map(math.atan2, WGS84_A * z, WGS84_B * rho)
    lat = _math_map(math.atan2, z + _EP2 * WGS84_B * _cube(np.sin(beta)),
                    rho - WGS84_E2 * WGS84_A * _cube(np.cos(beta)))
    live = np.flatnonzero(~polar)
    for _ in range(5):
        if not live.size:
            break
        s = np.sin(lat[live])
        n = WGS84_A / np.sqrt(1.0 - WGS84_E2 * s * s)
        new_lat = _math_map(math.atan2, z[live] + WGS84_E2 * n * s, rho[live])
        converged = np.abs(new_lat - lat[live]) < 1e-14
        lat[live] = new_lat
        live = live[~converged]
    s, c = np.sin(lat), np.cos(lat)
    alt = rho * c + z * s - WGS84_A * np.sqrt(1.0 - WGS84_E2 * s * s)
    lon_deg = np.degrees(lon)
    lon_deg[~polar & (lon_deg <= -180.0)] += 360.0
    lat[polar] = np.copysign(math.pi / 2.0, z[polar])
    alt[polar] = np.abs(z[polar]) - WGS84_B
    out = np.stack([np.degrees(lat), lon_deg, alt], axis=1)
    _check_geodetic(out)
    return out


def enu_to_geodetic_array(enu, base: GeodeticCoord | np.ndarray) -> np.ndarray:
    """``enu_to_geodetic`` over the rows of ``enu``. ``base`` is one origin
    for every row, or an (N, 3) geodetic array holding one origin per row."""
    enu = _as_points(enu)
    base = (np.array([[base.lat, base.lon, base.alt]]) if isinstance(base, GeodeticCoord)
            else _as_points(base))
    lat, lon = np.radians(base[:, 0]), np.radians(base[:, 1])
    rows = _enu_rows(np.sin(lat), np.cos(lat), np.sin(lon), np.cos(lon))
    d = np.stack(_from_enu(rows, enu[:, 0], enu[:, 1], enu[:, 2]), axis=1)
    return ecef_to_geodetic_array(geodetic_to_ecef_array(base) + d)


def geodetic_to_enu_array(lla, base: GeodeticCoord) -> np.ndarray:
    """``geodetic_to_enu`` over the rows of ``lla``."""
    x, y, z = geodetic_to_ecef_array(lla).T
    (ox, oy, oz), rows = _frame(base)
    return np.stack(_to_enu(rows, x - ox, y - oy, z - oz), axis=1)


# -- fix wire/file formats ----------------------------------------------

# a fix's stamp, lat, lon, alt, quality code and its rover id's u32 byte length,
# as a struct for one fix and as a dtype for numpy reads; the id's bytes follow
_FIX_HEAD_ID = struct.Struct("<ddddBI")
_FIX_DTYPE = np.dtype([("stamp", "<f8"), ("lla", "<f8", (3,)), ("quality", "u1"),
                       ("id_len", "<u4")])
_QUALITY_CODE = {q: i for i, q in enumerate(_QUALITY_ORDER)}

FIX_CSV_HEADER = ["stamp_s", "rover_id", "lat_deg", "lon_deg", "alt_m", "quality"]


def encode_fix(fix: RtkFix) -> bytes:
    rid = fix.rover_id.encode()
    return _FIX_HEAD_ID.pack(fix.stamp, fix.position.lat, fix.position.lon,
                             fix.position.alt, _QUALITY_CODE[fix.quality], len(rid)) + rid


def encode_fixes(rover_id: str, stamps: np.ndarray, positions: np.ndarray,
                 codes: np.ndarray) -> list[bytes]:
    """``encode_fix`` for each of one rover's fixes, given as stamps, (n, 3)
    geodetic positions and quality codes (as ``Rover.step_batch`` returns)."""
    rid = rover_id.encode()
    pack, n = _FIX_HEAD_ID.pack, len(rid)
    return [pack(stamp, lat, lon, alt, code, n) + rid
            for stamp, (lat, lon, alt), code in zip(np.asarray(stamps).tolist(),
                                                    positions.tolist(), codes.tolist())]


def decode_fix(payload: bytes) -> RtkFix:
    """The fix that ``encode_fix`` wrote as ``payload``; a payload it could
    not have written raises ``ValueError``."""
    try:
        stamp, lat, lon, alt, qcode, rid_len = _FIX_HEAD_ID.unpack_from(payload)
    except struct.error:
        raise ValueError(f"a {len(payload)}-byte payload is too short for a fix") from None
    if len(payload) != _FIX_HEAD_ID.size + rid_len or qcode >= len(_QUALITY_ORDER):
        raise ValueError(f"not a fix: quality code {qcode} (0-2), rover id length {rid_len} "
                         f"({len(payload) - _FIX_HEAD_ID.size})")
    rover_id = payload[_FIX_HEAD_ID.size:].decode()
    return RtkFix(rover_id, GeodeticCoord(lat, lon, alt), _QUALITY_ORDER[qcode], stamp)


def write_fix_csv(path, fixes: Iterable[RtkFix]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIX_CSV_HEADER)
        for fix in fixes:
            writer.writerow([
                f"{fix.stamp:.6f}", fix.rover_id,
                f"{fix.position.lat:.12f}", f"{fix.position.lon:.12f}",
                f"{fix.position.alt:.6f}", fix.quality.value,
            ])


def read_fix_csv(path) -> list[RtkFix]:
    fixes = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(FIX_CSV_HEADER) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"fix CSV {path} is missing columns {sorted(missing)}")
        for n, row in enumerate(reader, start=1):
            try:  # a bad cell or a short row: name the file and the row
                stamp = float(row["stamp_s"])
                if not math.isfinite(stamp):
                    raise ValueError(f"stamp {stamp} is not finite")
                position = GeodeticCoord(float(row["lat_deg"]), float(row["lon_deg"]),
                                         float(row["alt_m"]))
                fixes.append(RtkFix(row["rover_id"], position, FixQuality(row["quality"]), stamp))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"fix CSV {path} row {n}: {exc}") from None
    return fixes


# -- rover model --------------------------------------------------------


@dataclass(frozen=True)
class DisturbanceWindow:
    """Additive position-error pulse: full offset inside [start, end], then a
    linear decay to zero over ``DISTURBANCE_DECAY_S``."""

    start_s: float
    end_s: float
    offset_enu: tuple[float, float, float]

    def __post_init__(self) -> None:
        for name in ("start_s", "end_s"):
            object.__setattr__(self, name, _finite_float(getattr(self, name), name))
        if self.end_s < self.start_s:
            raise ValueError(f"disturbance end_s {self.end_s} is before start_s {self.start_s}")
        object.__setattr__(self, "offset_enu",
                           _finite_floats(self.offset_enu, 3, "disturbance offset_enu"))

    def envelope(self, t: float) -> float:
        if t < self.start_s or t > self.end_s + DISTURBANCE_DECAY_S:
            return 0.0
        if t <= self.end_s:
            return 1.0
        return 1.0 - (t - self.end_s) / DISTURBANCE_DECAY_S


class CorrectionLink:
    """The RTK base: epoch k goes out on ``pub`` at k * ``CORRECTION_INTERVAL_S``,
    stamped with that send time. A rover keeps only the last epoch, so the
    keep-last-1 of ``CORRECTION_QOS`` loses nothing it uses."""

    def __init__(self, pub: PublisherHandle) -> None:
        self.pub = pub
        self._next_epoch = 1

    def poll(self, now: float) -> int:
        """Publish every epoch due by ``now``; returns how many went out."""
        now = _finite_float(now, "correction poll time")
        first = self._next_epoch
        while (send_t := self._next_epoch * CORRECTION_INTERVAL_S) <= now:
            self.pub.publish(send_t, _EPOCH.pack(self._next_epoch))
            self._next_epoch += 1
        return self._next_epoch - first


_EPOCH = struct.Struct("<Q")


def rtk_base(bus: Bus) -> CorrectionLink:
    """The RTK base on ``bus``: an ``hmas/rtk_base`` node with its correction link."""
    node = bus.create_node(CORRECTION_TOPIC.namespace, "rtk_base")
    return CorrectionLink(bus.advertise(node, CORRECTION_TOPIC.local))


def take_corrections(bus: Bus, sub: SubscriptionHandle) -> list[CorrectionMsg]:
    """Every correction waiting on ``sub``, oldest first."""
    out = []
    while (msg := bus.take(sub)) is not None:
        out.append(CorrectionMsg(*_EPOCH.unpack(msg.payload), msg.stamp))
    return out


class Rover:
    """One mobile receiver: correction-freshness-driven fix quality plus a
    seeded error model (constant bias, per-grade Gaussian noise with
    ``GRADE_SIGMAS``, transients).

    ``bias_en`` pins the constant horizontal bias (east, north); when None,
    its magnitude is drawn uniformly from [0, 0.20] m in a random direction.
    A ``noiseless`` rover has no bias and no noise; its disturbances still
    apply. The reported position offsets the true position by the ENU error
    vector in the local tangent plane at the true position. Quality moves at
    most one grade per fix, toward `fixed` while corrections stay fresher than
    the timeout and down one grade per additional timeout elapsed.
    """

    def __init__(self, rover_id: str, seed: int | np.random.SeedSequence = 0,
                 disturbances: Sequence[DisturbanceWindow] = (),
                 bias_en: tuple[float, float] | None = None, noiseless: bool = False) -> None:
        self.rover_id = rover_id
        noiseless = _flag(noiseless, "noiseless")
        self._rng = np.random.default_rng(seed)
        if bias_en is not None:
            bias_en = _finite_floats(bias_en, 2, "bias_en")
        elif not noiseless:
            magnitude = self._rng.uniform(0.0, 0.20)
            angle = self._rng.uniform(0.0, 2.0 * math.pi)
            bias_en = float(magnitude * math.cos(angle)), float(magnitude * math.sin(angle))
        # (east, north, up) floats: the bias, and the noise sigmas per quality code
        self._bias = (0.0, 0.0, 0.0) if noiseless else (*bias_en, 0.0)
        self._sigmas = tuple((0.0, 0.0, 0.0) if noiseless else (h, h, v)
                             for h, v in map(GRADE_SIGMAS.get, _QUALITY_ORDER))
        self._disturbances = tuple(disturbances)
        self._code = 0  # fix quality, as an index into _QUALITY_ORDER
        self._last_corr_stamp: float | None = None
        self._last_epoch = 0
        self._last_stamp = -math.inf  # the last fix's; the next must be later

    @property
    def quality(self) -> FixQuality:
        return _QUALITY_ORDER[self._code]

    @property
    def bias_en(self) -> tuple[float, float]:
        return self._bias[:2]

    def receive_correction(self, msg: CorrectionMsg) -> None:
        if msg.epoch <= self._last_epoch:
            raise ValueError(
                f"correction epoch {msg.epoch} does not advance past {self._last_epoch}")
        self._last_epoch = msg.epoch
        if self._last_corr_stamp is None or msg.stamp > self._last_corr_stamp:
            self._last_corr_stamp = msg.stamp

    def step(self, true_position: GeodeticCoord,
             corrections: Iterable[CorrectionMsg], stamp: float) -> RtkFix:
        """Ingest corrections and emit the fix at ``stamp``, which must be
        finite and later than the last fix's.

        The error is ``_errors``' for one fix, drawn and combined as Python
        floats: one 3-normal draw takes the same stream as its ``(1, 3)`` draw,
        and each component sees numpy's operations in numpy's order.
        """
        if type(stamp) is not float:
            stamp = _finite_float(stamp, "fix stamp")
        if not self._last_stamp < stamp < math.inf:  # NaN fails too
            raise ValueError(f"fix stamp {stamp} must be finite and later than the "
                             f"last fix's, {self._last_stamp}")
        (code,) = self._ladder([stamp], [corrections])
        (be, bn, bu), (se, sn, su) = self._bias, self._sigmas[code]
        ne, nn, nu = self._rng.standard_normal(3).tolist()
        error = be + ne * se, bn + nn * sn, bu + nu * su
        for window in self._disturbances:
            k = window.envelope(stamp)
            if k > 0.0:
                (ee, en, eu), (oe, on, ou) = error, window.offset_enu
                error = ee + k * oe, en + k * on, eu + k * ou
        if any(error):
            measured = enu_to_geodetic(error, true_position)
        else:
            measured = true_position
        return RtkFix(self.rover_id, measured, self.quality, stamp)

    def step_batch(self, true_positions: np.ndarray, stamps: np.ndarray,
                   corrections: Sequence[Iterable[CorrectionMsg]]
                   ) -> tuple[np.ndarray, np.ndarray]:
        """n fixes at once, equal to n ``step`` calls at ``stamps``.

        ``stamps`` increase and each meets ``step``'s rule, ``true_positions``
        are the (n, 3) geodetic truth at them, and ``corrections[k]`` the
        corrections taken at ``stamps[k]``. Returns the measured (n, 3)
        geodetic positions and the quality codes (indexes into single, float,
        fixed), and leaves the rover in the state those n steps would.
        """
        stamps = np.asarray(stamps, dtype=float)
        n = len(stamps)
        truth = _as_points(true_positions)
        if len(truth) != n or len(corrections) != n:
            raise ValueError(f"{n} stamps need {n} true positions and {n} correction lists")
        if n == 0:
            return truth.copy(), np.zeros(0, dtype=np.uint8)
        if not (self._last_stamp < stamps[0] and stamps[-1] < math.inf
                and np.all(np.diff(stamps) > 0.0)):  # NaN fails too
            raise ValueError(f"fix stamps must be finite, increasing and later than the "
                             f"last fix's, {self._last_stamp}")
        stamp_list = stamps.tolist()
        codes = np.array(self._ladder(stamp_list, corrections), dtype=np.uint8)
        error = self._errors(stamp_list, codes)
        measured = truth.copy()
        moved = np.any(error, axis=1)
        if np.any(moved):
            measured[moved] = enu_to_geodetic_array(error[moved], truth[moved])
        return measured, codes

    def _ladder(self, stamps: list[float], corrections) -> list[int]:
        """Each fix's quality code, with ``corrections[k]`` ingested before fix k."""
        ladder = []
        for stamp, msgs in zip(stamps, corrections):
            for msg in msgs:
                self.receive_correction(msg)
            self._update_quality(stamp)
            ladder.append(self._code)
        self._last_stamp = stamps[-1]
        return ladder

    def _update_quality(self, now: float) -> None:
        if self._last_corr_stamp is None:
            target = 0  # single
        else:
            staleness = now - self._last_corr_stamp
            if staleness <= DEFAULT_CORRECTION_TIMEOUT_S:
                target = 2  # fixed
            elif staleness <= 2.0 * DEFAULT_CORRECTION_TIMEOUT_S:
                target = 1  # float
            else:
                target = 0
        if target > self._code:
            self._code += 1
        elif target < self._code:
            self._code -= 1

    def _errors(self, stamps: list[float], codes: np.ndarray) -> np.ndarray:
        """(n, 3) ENU errors of n fixes at ``stamps`` with quality ``codes``:
        bias, per-grade Gaussian noise (one ``(n, 3)`` draw) and disturbances."""
        n = len(stamps)
        error = (np.array(self._bias)
                 + self._rng.standard_normal((n, 3)) * np.array(self._sigmas)[codes])
        for window in self._disturbances:
            k = np.fromiter(map(window.envelope, stamps), float, n)
            hit = k > 0.0
            error[hit] = error[hit] + k[hit, None] * np.array(window.offset_enu)
        return error
