"""Experiment harness: four desk-scale RTK accuracy experiments on a rigid
square board of rovers, plus analysis of recorded fixes, read as per-rover
columns with no object per fix, into per-side distance series and verdicts.
One converter, ``fix_columns``, gives ``RtkFix`` input (a fix CSV) the same.

A spec builder takes a seed, a duration (not for the square run) and
``noiseless``; the narrated timeline fixes the rest. The board rests at
``BOARD_CENTER_EN`` and each rover id is its corner's name. Experiments are
fully deterministic given their seed: same spec, same seed, byte-identical bag.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bag import read_bag, record
from .bus import Bus
from .geo import (CORRECTION_QOS, CORRECTION_TOPIC, DEFAULT_FIX_RATE_HZ, DISTURBANCE_DECAY_S,
                  FIX_PERIOD_S, MAX_RUN_S, DisturbanceWindow, GeodeticCoord, Rover, RtkFix,
                  _FIX_DTYPE, _QUALITY_CODE, _in_geodetic_ranges, encode_fixes,
                  enu_to_geodetic_array, geodetic_to_enu_array, rtk_base, steps_within,
                  take_corrections)
# The per-fix scalar functions stay importable from this module, where the
# span tracer in perfbench/ patches them.
from .geo import decode_fix, encode_fix, enu_to_geodetic  # noqa: F401

DEFAULT_BASE = GeodeticCoord(48.70, 6.15, 220.0)
DEFAULT_SIDE_M = 0.90
BOARD_CENTER_EN = (2.0, 3.0)  # the board's center at rest, ENU meters from the base

CORNERS = ("top_left", "top_right", "bottom_right", "bottom_left")
SIDES = ("top", "right", "bottom", "left")
SIDE_PAIRS = {
    "top": ("top_left", "top_right"),
    "right": ("top_right", "bottom_right"),
    "bottom": ("bottom_right", "bottom_left"),
    "left": ("bottom_left", "top_left"),
}
# board-frame corner offsets in units of the side length
_CORNER_LOCAL = {
    "top_left": (-0.5, 0.5),
    "top_right": (0.5, 0.5),
    "bottom_right": (0.5, -0.5),
    "bottom_left": (-0.5, -0.5),
}
# per corner: (side name, unit vector from the side's other rover toward the corner)
_CORNER_SIDES = {
    "top_left": (("top", (-1.0, 0.0)), ("left", (0.0, 1.0))),
    "top_right": (("top", (1.0, 0.0)), ("right", (0.0, 1.0))),
    "bottom_right": (("right", (0.0, -1.0)), ("bottom", (1.0, 0.0))),
    "bottom_left": (("bottom", (-1.0, 0.0)), ("left", (0.0, -1.0))),
}

CONVERGENCE_S = 120.0
WITHIN_LIMIT_M = 0.20
STABLE_SLOPE_LIMIT = 0.001 / 60.0  # 1 mm per minute, in m/s
PEAK_SIGMA_FACTOR = 2.0
PEAK_MIN_SAMPLES = 2

# the narrated rotation run: lift, a full turn clockwise, a pause, a full turn back
ROTATION_LIFT_END_S = 20.0
ROTATION_CW_END_S = 33.0
ROTATION_PAUSE_END_S = 43.0
ROTATION_CCW_END_S = 50.0
ROTATION_LIFT_M = 1.0
ROTATION_MIN_RUN_S = ROTATION_CCW_END_S + 1.0  # the board is down again
# the narrated translation run, 1 m up: a line east, a hold, a square, an overshoot
LINE_LENGTH_M = 30.0
LINE_DURATION_S = 45.0
HOLD_S = 10.0
SQUARE_SIDE_M = 25.0
OVERSHOOT_M = 1.0
WALK_SPEED_MPS = LINE_LENGTH_M / LINE_DURATION_S
SQUARE_RUN_S = (LINE_DURATION_S + HOLD_S
                + (3.0 * SQUARE_SIDE_M + SQUARE_SIDE_M + OVERSHOOT_M) / WALK_SPEED_MPS)


# -- specs and board truth ------------------------------------------------


@dataclass(frozen=True)
class RoverWindow:
    """Disturbance pulse on one rover: displacement of ``magnitude_m`` meters
    along ``direction_en`` (unit, board frame; None = outward diagonal)."""

    rover_id: str
    start_s: float
    end_s: float
    magnitude_m: float
    direction_en: tuple[float, float] | None = None

    def offset_en(self) -> tuple[float, float]:
        if self.direction_en is None:
            dx, dy = _CORNER_LOCAL[self.rover_id]
            norm = math.hypot(dx, dy)
            direction = (dx / norm, dy / norm)
        else:
            direction = self.direction_en
        return self.magnitude_m * direction[0], self.magnitude_m * direction[1]


EXPERIMENT_KINDS = ("static", "static_disturbed", "rotation", "translation_square")


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    duration_s: float
    seed: int
    side_m: float = DEFAULT_SIDE_M
    base: GeodeticCoord = DEFAULT_BASE
    noiseless: bool = False
    disturbances: tuple[RoverWindow, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if not FIX_PERIOD_S <= self.duration_s <= MAX_RUN_S:  # NaN fails too
            raise ValueError(f"duration must be finite and within [{FIX_PERIOD_S:.6g}, "
                             f"{MAX_RUN_S:g}] s (one fix period to 24 h), got {self.duration_s}")
        if not 0.0 < self.side_m < math.inf:  # NaN fails too
            raise ValueError(f"board side must be finite and above 0, got {self.side_m}")
        if self.kind == "rotation" and self.duration_s < ROTATION_MIN_RUN_S:
            raise ValueError(f"a rotation run needs at least {ROTATION_MIN_RUN_S:g} s, "
                             f"got {self.duration_s:g} s")
        for w in self.disturbances:
            if w.rover_id not in CORNERS:
                raise ValueError(f"disturbance names unknown rover {w.rover_id!r}")
            if not 0.0 <= w.start_s <= w.end_s <= self.duration_s:
                raise ValueError(f"disturbance window [{w.start_s}, {w.end_s}] "
                                 f"outside the {self.duration_s}s run")


def corner_displacement_for_peaks(side_m: float, corner: str,
                                  peaks_m: tuple[float, float]) -> tuple[float, float]:
    """Board-frame displacement of ``corner`` producing exactly ``peaks_m``
    distance errors on its two adjacent sides (closed-form two-circle solve)."""
    (_, u1), (_, u2) = _CORNER_SIDES[corner]
    e1, e2 = peaks_m
    s = side_m
    k = ((s + e1) ** 2 - (s + e2) ** 2) / (2.0 * s)
    disc = 2.0 * (s + e1) ** 2 - (k + s) ** 2
    if disc <= 0.0:
        raise ValueError(f"no displacement realizes side-error pair {peaks_m}")
    beta = (-(k + s) + math.sqrt(disc)) / 2.0
    alpha = beta + k
    return (alpha * u1[0] + beta * u2[0], alpha * u1[1] + beta * u2[1])


def _fit_windows(windows: Sequence[RoverWindow], duration_s: float) -> tuple[RoverWindow, ...]:
    """The windows that start before the end of the run, ends clipped to it."""
    return tuple(replace(w, end_s=min(w.end_s, duration_s))
                 for w in windows if w.start_s < duration_s)


def static_spec(seed: int, duration_s: float = 300.0, noiseless: bool = False) -> ExperimentSpec:
    return ExperimentSpec("static", duration_s, seed, noiseless=noiseless)


def disturbed_spec(seed: int, duration_s: float = 300.0,
                   noiseless: bool = False) -> ExperimentSpec:
    """Board on the ground: three 10 cm corner twists plus two longer 12 cm
    hand-over-antenna windows (timings follow the narrated run). A shorter run
    keeps the windows that start before its end."""
    windows = _fit_windows(
        [RoverWindow("top_right", t0, t0 + 1.5, 0.10) for t0 in (140.0, 160.0, 230.0)]
        + [RoverWindow("top_left", 170.0, 220.0, 0.12),
           RoverWindow("top_left", 235.0, duration_s, 0.12)],
        duration_s)
    return ExperimentSpec("static_disturbed", duration_s, seed, noiseless=noiseless,
                          disturbances=windows)


def rotation_spec(seed: int, duration_s: float = 60.0, noiseless: bool = False) -> ExperimentSpec:
    """Lift, full turn each way, then a 51-54 s obstruction of the top right
    receiver whose displacement is solved so the top and right sides peak at
    1.4 and 1.5 m. A run that ends before the obstruction starts has none."""
    dx, dy = corner_displacement_for_peaks(DEFAULT_SIDE_M, "top_right", (1.4, 1.5))
    magnitude = math.hypot(dx, dy)
    window = RoverWindow("top_right", 51.0, 54.0, magnitude, (dx / magnitude, dy / magnitude))
    return ExperimentSpec("rotation", duration_s, seed, noiseless=noiseless,
                          disturbances=_fit_windows([window], duration_s))


def translation_spec(seed: int, noiseless: bool = False) -> ExperimentSpec:
    return ExperimentSpec("translation_square", SQUARE_RUN_S, seed, noiseless=noiseless)


_SPEC_BUILDERS = {
    "static": static_spec,
    "static_disturbed": disturbed_spec,
    "rotation": rotation_spec,
    "translation_square": translation_spec,
}


def shortest_run_s(kind: str) -> float:
    """The shortest duration ``make_spec(kind, ...)`` accepts (0 for no limit)."""
    return ROTATION_MIN_RUN_S if kind == "rotation" else 0.0


def make_spec(kind: str, seed: int, **kwargs) -> ExperimentSpec:
    if kind not in _SPEC_BUILDERS:
        raise ValueError(f"unknown experiment kind {kind!r}; "
                         f"expected one of {EXPERIMENT_KINDS}")
    return _SPEC_BUILDERS[kind](seed, **kwargs)


def corner_positions(spec: ExperimentSpec, t: np.ndarray) -> dict[str, np.ndarray]:
    """Corner -> (n, 3) true ENU position at each of the n stamps ``t``: the
    spec's board center and yaw, with the square's corners placed exactly."""
    x, y = BOARD_CENTER_EN
    z = 0.0
    yaw = np.zeros(len(t))
    if spec.kind == "rotation":
        yaw = np.interp(t, [0.0, ROTATION_LIFT_END_S, ROTATION_CW_END_S, ROTATION_PAUSE_END_S,
                            ROTATION_CCW_END_S, spec.duration_s],
                        [0.0, 0.0, -2.0 * math.pi, -2.0 * math.pi, 0.0, 0.0])
        z = np.interp(t, [0.0, ROTATION_LIFT_END_S - 2.0, ROTATION_LIFT_END_S, ROTATION_CCW_END_S,
                          ROTATION_MIN_RUN_S, spec.duration_s],
                      [0.0, 0.0, ROTATION_LIFT_M, ROTATION_LIFT_M, 0.0, 0.0])
    elif spec.kind == "translation_square":
        side, ln = SQUARE_SIDE_M, LINE_LENGTH_M
        t1 = LINE_DURATION_S + HOLD_S
        leg_t = side / WALK_SPEED_MPS
        times = [0.0, LINE_DURATION_S, t1, t1 + leg_t, t1 + 2 * leg_t, t1 + 3 * leg_t,
                 t1 + 3 * leg_t + (side + OVERSHOOT_M) / WALK_SPEED_MPS]
        x = x + np.interp(t, times, [0.0, ln, ln, ln, ln - side, ln - side, ln + OVERSHOOT_M])
        y = y + np.interp(t, times, [0.0, 0.0, 0.0, side, side, 0.0, 0.0])
        z = 1.0
    center = np.stack(np.broadcast_arrays(x, y, z), axis=-1)
    c, s = np.cos(yaw), np.sin(yaw)
    zero = np.zeros_like(c)
    out = {}
    for corner in CORNERS:
        lx, ly = _CORNER_LOCAL[corner]
        lx *= spec.side_m
        ly *= spec.side_m
        out[corner] = center + np.stack([c * lx - s * ly, s * lx + c * ly, zero], axis=-1)
    return out


# -- running ---------------------------------------------------------------


def _draw_biases(ss: np.random.SeedSequence) -> dict[str, tuple[float, float]]:
    """Seeded per-rover constant biases, structured so one or two board sides
    carry a persistent sub-20 cm offset and the rest sit near the true side.
    A noiseless ``Rover`` ignores its bias."""
    biases = {corner: (0.0, 0.0) for corner in CORNERS}
    rng = np.random.default_rng(ss)
    corner = CORNERS[int(rng.integers(0, 4))]
    mode = int(rng.integers(0, 3))
    magnitude = float(rng.uniform(0.02, 0.14))
    (_, u1), (_, u2) = _CORNER_SIDES[corner]
    if mode == 0:
        direction = u1
    elif mode == 1:
        direction = u2
    else:
        direction = ((u1[0] + u2[0]) / math.sqrt(2.0), (u1[1] + u2[1]) / math.sqrt(2.0))
    biases[corner] = (magnitude * direction[0], magnitude * direction[1])
    return biases


def board_rovers(spec: ExperimentSpec) -> dict[str, Rover]:
    """One seeded rover per corner."""
    root = np.random.SeedSequence(spec.seed)
    bias_ss, _old_link_ss, *rover_ss = root.spawn(2 + len(CORNERS))
    biases = _draw_biases(bias_ss)

    windows: dict[str, list[DisturbanceWindow]] = {c: [] for c in CORNERS}
    if not spec.noiseless:  # noiseless = every injected error source off
        for w in spec.disturbances:
            ox, oy = w.offset_en()
            windows[w.rover_id].append(DisturbanceWindow(w.start_s, w.end_s, (ox, oy, 0.0)))

    return {corner: Rover(corner, ss, windows[corner], biases[corner], spec.noiseless)
            for corner, ss in zip(CORNERS, rover_ss)}


# Fix steps simulated per batch: bounds the arrays a long run holds at once.
_BATCH_STEPS = 4096


def run_experiment(spec: ExperimentSpec, out) -> Path:
    """Move the board through the spec's trajectory, step four rovers at the
    fix rate, and record every ``/*/gps/fix`` topic into the sink bag.

    Rovers run in batches of fix steps over arrays, each taking corrections at
    the stamps where the base sent some; every fix is published in step order,
    corners in ``CORNERS`` order: the bag holds the bytes a per-fix loop records.
    """
    rovers = board_rovers(spec)
    bus = Bus()
    link = rtk_base(bus)
    nodes = [bus.create_node(corner, "gps") for corner in CORNERS]
    pubs = [bus.advertise(node, "gps/fix") for node in nodes]
    subs = [bus.subscribe(node, CORRECTION_TOPIC.full, CORRECTION_QOS) for node in nodes]
    recorder = record(bus, ["/*/gps/fix"], out)
    # the stamps k / 14 Hz up to the duration, k from 1 (the spec makes it at least 1)
    steps = steps_within(spec.duration_s, DEFAULT_FIX_RATE_HZ)
    for first in range(1, steps + 1, _BATCH_STEPS):
        t = np.arange(first, min(first + _BATCH_STEPS, steps + 1)) / DEFAULT_FIX_RATE_HZ
        stamps = t.tolist()
        taken = [[take_corrections(bus, sub) for sub in subs] if link.poll(stamp)
                 else [()] * len(subs) for stamp in stamps]
        positions = corner_positions(spec, t)
        payloads = []
        for corner, corrections in zip(CORNERS, zip(*taken)):
            truth = enu_to_geodetic_array(positions[corner], spec.base)
            measured, codes = rovers[corner].step_batch(truth, t, corrections)
            payloads.append(encode_fixes(corner, t, measured, codes))
        for stamp, row in zip(stamps, zip(*payloads)):
            for pub, payload in zip(pubs, row):
                pub.publish(stamp, payload)
    return recorder.stop()


@dataclass(frozen=True, eq=False)
class FixColumns:
    """A rover's fixes: ``stamps``, ``lla`` (n, 3) and ``quality`` 0-2 (single/float/fixed)."""

    stamps: np.ndarray
    lla: np.ndarray
    quality: np.ndarray

    def __len__(self) -> int:
        return len(self.stamps)


def fix_columns(fixes: Iterable[RtkFix]) -> dict[str, FixColumns]:
    """Fixes grouped by rover id as columns, each group in input order."""
    rows: dict[str, list[tuple]] = {}
    for f in fixes:
        rows.setdefault(f.rover_id, []).append((f.stamp, *astuple(f.position),
                                                _QUALITY_CODE[f.quality]))
    return {rover_id: FixColumns(a[:, 0], a[:, 1:4], a[:, 4].astype(np.uint8))
            for rover_id, a in zip(rows, map(np.array, rows.values()))}


def load_bag_fixes(path) -> dict[str, FixColumns]:
    """A bag's fixes as columns per rover id, in bag (stamp) order, read at once per
    payload length; a non-fix payload or a non-finite stamp raises naming its record."""
    records = read_bag(path)
    lengths = records.payload_len
    where = f"bag {path} record {{}} is not a fix:"
    out = {}
    for size in np.unique(lengths).tolist():
        index, tail = np.flatnonzero(lengths == size), size - _FIX_DTYPE.itemsize
        if tail < 0:
            raise ValueError(f"{where.format(index[0])} a {size}-byte payload is too short")
        rec = records.payloads(index, _FIX_DTYPE.descr + [("id", f"V{tail}")])
        lat_ok, lon_ok, alt_ok = _in_geodetic_ranges(rec["lla"])
        wrong = ((rec["quality"] > 2) | (rec["id_len"] != tail) | ~(lat_ok & lon_ok & alt_ok)
                 | ~np.isfinite(rec["stamp"]))  # the fix CSV's stamp rule
        if wrong.any():
            i = wrong.argmax()
            raise ValueError(f"{where.format(index[i])} quality code {rec['quality'][i]} (0-2), "
                             f"rover id length {rec['id_len'][i]} ({tail}), lla {rec['lla'][i]}, "
                             f"stamp {rec['stamp'][i]}")
        ids, inverse = np.unique(rec["id"], return_inverse=True)
        for j, raw in enumerate(ids):
            sel = inverse == j
            try:
                rover_id = raw.tobytes().decode()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{where.format(index[sel.argmax()])} rover id {exc}") from None
            out[rover_id] = FixColumns(rec["stamp"][sel], rec["lla"][sel], rec["quality"][sel])
    return out


# -- analysis ----------------------------------------------------------------


@dataclass(frozen=True)
class DistanceSeries:
    """Per side: stamps (strictly increasing) and measured 3D distances."""

    sides: dict[str, tuple[np.ndarray, np.ndarray]]

    def __post_init__(self) -> None:
        for name, (stamps, dists) in self.sides.items():
            if len(stamps) != len(dists) or len(stamps) == 0:
                raise ValueError(f"side {name!r} series is empty or misaligned")
            if np.any(np.diff(stamps) <= 0.0):
                raise ValueError(f"side {name!r} stamps are not strictly increasing")
            if np.any(dists < 0.0):
                raise ValueError(f"side {name!r} has negative distances")


def _nearest(a: np.ndarray, b: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """For each stamp in ``a``, the index of the nearest stamp in ``b`` (both
    sorted, ``b`` not empty) and whether it lies within ``tol`` seconds. A
    stamp exactly midway between two stamps of ``b`` pairs with the later one.
    """
    idx = np.clip(np.searchsorted(b, a), 0, len(b) - 1)
    prev = np.maximum(idx - 1, 0)
    nearest = np.where(np.abs(b[prev] - a) < np.abs(b[idx] - a), prev, idx)
    return nearest, np.abs(b[nearest] - a) <= tol


def _pair_tolerance(stamps: np.ndarray) -> float:
    """Pairing tolerance of a sorted stamp series: half its median period, 0
    for a single stamp (which pairs only with an equal stamp)."""
    return 0.5 * float(np.median(np.diff(stamps))) if len(stamps) > 1 else 0.0


def side_distances(fixes: Mapping[str, FixColumns], base: GeodeticCoord) -> DistanceSeries:
    """Per-side 3D rover distances about ``base``, from fix columns keyed by
    rover id, which is the corner name. Each fix of a side's first rover pairs
    with the second rover's nearest-stamp fix (a tie goes to the later stamp)
    when that lies within half the first rover's median fix period, or at the
    same stamp when the first rover has a single fix; unpaired fixes are left out.
    """
    tracks: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for corner in CORNERS:
        if len(columns := fixes.get(corner, ())) == 0:
            raise ValueError(f"no fixes for rover {corner!r} (rover ids are corner names)")
        order = np.argsort(columns.stamps, kind="stable")
        tracks[corner] = (columns.stamps[order], geodetic_to_enu_array(columns.lla[order], base))

    sides: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for side in SIDES:
        ca, cb = SIDE_PAIRS[side]
        sa, ea = tracks[ca]
        sb, eb = tracks[cb]
        tol = _pair_tolerance(sa)
        nearest, ok = _nearest(sa, sb, tol)
        if not np.any(ok):
            raise ValueError(f"rovers {ca!r} and {cb!r} have no overlapping fixes "
                             f"within {tol} s (side {side})")
        # collapse duplicate stamps defensively (strictly increasing output)
        keep = np.ones(int(np.count_nonzero(ok)), dtype=bool)
        stamps_ok = sa[ok]
        keep[1:] = np.diff(stamps_ok) > 0.0
        d = np.sqrt(np.square(ea[ok][keep] - eb[nearest[ok]][keep]).sum(axis=1))
        sides[side] = (stamps_ok[keep], d)
    return DistanceSeries(sides)


@dataclass(frozen=True)
class Peak:
    stamp: float
    magnitude_m: float


@dataclass(frozen=True)
class SideSummary:
    mean_m: float
    max_abs_error_m: float
    slope_m_per_s: float
    peaks: tuple[Peak, ...]
    within_20cm: bool
    stable: bool


@dataclass(frozen=True)
class Report:
    expected_side_m: float
    convergence_s: float
    sides: dict[str, SideSummary]
    within_20cm: bool
    stable: bool


def summarize(series: DistanceSeries, expected_side_m: float,
              windows: Mapping[str, Sequence[tuple[float, float]]] | None = None,
              convergence_s: float = CONVERGENCE_S) -> Report:
    """Post-convergence per-side statistics and verdicts.

    Samples inside declared disturbance ``windows`` (per side, already
    including any decay tail) are excluded from the quiet statistics and the
    verdicts; peaks are excursions beyond twice the quiet standard deviation
    around the quiet mean, lasting at least two samples. A side with fewer
    than two quiet samples has no slope to judge, so it is not stable.
    """
    if not 0.0 < expected_side_m < math.inf:
        raise ValueError(f"expected side must be finite and above 0, got {expected_side_m}")
    if not 0.0 <= convergence_s < math.inf:
        raise ValueError(f"convergence window must be finite and >= 0, got {convergence_s}")
    windows = windows or {}
    summaries: dict[str, SideSummary] = {}
    for side, (stamps, dists) in series.sides.items():
        conv = stamps >= convergence_s
        if not np.any(conv):
            raise ValueError(
                f"side {side!r} series ends before the {convergence_s}s "
                f"convergence window")
        quiet = conv.copy()
        for start, end in windows.get(side, ()):
            quiet &= ~((stamps >= start) & (stamps <= end))
        if not np.any(quiet):
            raise ValueError(f"side {side!r} has no samples outside disturbance windows")
        mu = float(np.mean(dists[quiet]))
        sigma = float(np.std(dists[quiet]))
        err_quiet = dists[quiet] - expected_side_m
        max_abs = float(np.max(np.abs(err_quiet)))
        slope = _fit_slope(stamps[quiet], dists[quiet])
        peaks = _find_peaks(stamps[conv], dists[conv], mu, sigma)
        summaries[side] = SideSummary(
            mean_m=mu,
            max_abs_error_m=max_abs,
            slope_m_per_s=slope,
            peaks=peaks,
            within_20cm=max_abs <= WITHIN_LIMIT_M,
            stable=np.count_nonzero(quiet) >= 2 and abs(slope) <= STABLE_SLOPE_LIMIT,
        )
    return Report(expected_side_m, convergence_s, summaries,
                  all(s.within_20cm for s in summaries.values()),
                  all(s.stable for s in summaries.values()))


def _fit_slope(stamps: np.ndarray, values: np.ndarray) -> float:
    t = stamps - stamps.mean()
    denom = float((t * t).sum())
    if denom == 0.0:
        return 0.0
    return float((t * (values - values.mean())).sum() / denom)


def _find_peaks(stamps: np.ndarray, dists: np.ndarray, mu: float,
                sigma: float) -> tuple[Peak, ...]:
    """One peak per run of at least ``PEAK_MIN_SAMPLES`` consecutive samples
    beyond ``PEAK_SIGMA_FACTOR`` sigma, at the run's first largest deviation."""
    dev = np.abs(dists - mu)
    over = np.concatenate(([False], dev > PEAK_SIGMA_FACTOR * sigma, [False]))
    edges = np.flatnonzero(over[1:] != over[:-1])  # each run's first sample, then one past its last
    first, end = edges[0::2], edges[1::2]
    long = end - first >= PEAK_MIN_SAMPLES
    peaks = []
    for i, j in zip(first[long].tolist(), end[long].tolist()):
        k = i + int(np.argmax(dev[i:j]))
        peaks.append(Peak(float(stamps[k]), float(dev[k])))
    return tuple(peaks)


def side_windows(spec: ExperimentSpec) -> dict[str, list[tuple[float, float]]]:
    """Disturbance exclusion intervals per affected side: each window of the
    spec on both sides of its corner, extended by the rovers' decay tail
    (``DISTURBANCE_DECAY_S``)."""
    out: dict[str, list[tuple[float, float]]] = {}
    for w in spec.disturbances:
        for side, _ in _CORNER_SIDES[w.rover_id]:
            out.setdefault(side, []).append((w.start_s, w.end_s + DISTURBANCE_DECAY_S))
    return out


def analyze_bag(path, base: GeodeticCoord = DEFAULT_BASE,
                expected_side_m: float = DEFAULT_SIDE_M,
                windows: Mapping[str, Sequence[tuple[float, float]]] | None = None,
                convergence_s: float = CONVERGENCE_S) -> tuple[DistanceSeries, Report]:
    series = side_distances(load_bag_fixes(path), base)
    return series, summarize(series, expected_side_m, windows, convergence_s)


# -- output -------------------------------------------------------------------


def emit_csv(obj, out) -> None:
    """Write a DistanceSeries or Report as deterministic fixed-format CSV."""
    if isinstance(obj, DistanceSeries):
        text = _series_csv(obj)
    elif isinstance(obj, Report):
        text = _report_csv(obj)
    else:
        raise TypeError(f"cannot emit {type(obj).__name__} as CSV")
    Path(out).write_text(text)


def _series_csv(series: DistanceSeries) -> str:
    """One row per stamp of any side; each side's cell is its sample nearest
    that stamp (see ``_nearest``) within half its median period, else empty."""
    all_stamps = np.unique(np.concatenate([s for s, _ in series.sides.values()]))
    columns = [[f"{t:.6f}" for t in all_stamps.tolist()]]
    for side in SIDES:
        stamps, dists = series.sides[side]
        tol = _pair_tolerance(stamps)
        nearest, ok = _nearest(all_stamps, stamps, tol)
        columns.append([f"{d:.6f}" if hit else ""
                        for d, hit in zip(dists[nearest].tolist(), ok.tolist())])
    rows = (",".join(cells) for cells in zip(*columns))
    return "\n".join(["stamp_s,d_top,d_right,d_bottom,d_left", *rows]) + "\n"


def _report_csv(report: Report) -> str:
    rows: list[tuple[str, str]] = [
        ("expected_side_m", f"{report.expected_side_m:.6f}"),
        ("convergence_s", f"{report.convergence_s:.6f}"),
    ]
    for side in SIDES:
        if side not in report.sides:
            continue
        s = report.sides[side]
        rows.append((f"{side}_mean_m", f"{s.mean_m:.6f}"))
        rows.append((f"{side}_max_abs_error_m", f"{s.max_abs_error_m:.6f}"))
        rows.append((f"{side}_slope_mm_per_min", f"{s.slope_m_per_s * 60000.0:.6f}"))
        rows.append((f"{side}_within_20cm", _bool(s.within_20cm)))
        rows.append((f"{side}_stable", _bool(s.stable)))
        rows.append((f"{side}_peak_count", str(len(s.peaks))))
        for i, peak in enumerate(s.peaks, start=1):
            rows.append((f"{side}_peak_{i}_stamp_s", f"{peak.stamp:.6f}"))
            rows.append((f"{side}_peak_{i}_magnitude_m", f"{peak.magnitude_m:.6f}"))
    rows.append(("within_20cm", _bool(report.within_20cm)))
    rows.append(("stable", _bool(report.stable)))
    return "key,value\n" + "\n".join(f"{k},{v}" for k, v in rows) + "\n"


def _bool(value: bool) -> str:
    return "true" if value else "false"
