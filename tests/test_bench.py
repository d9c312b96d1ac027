"""Experiment harness: board geometry, determinism, analysis, CSV output."""
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmas import bag, bench, geo
from hmas.bench import (CORNERS, EXPERIMENT_KINDS, SIDES, DistanceSeries,
                        ExperimentSpec, RoverWindow, corner_displacement_for_peaks,
                        disturbed_spec, emit_csv, fix_columns, load_bag_fixes, make_spec,
                        rotation_spec, run_experiment, side_distances,
                        side_windows, static_spec, summarize, translation_spec)
from hmas.bus import Bus
from hmas.geo import FixQuality, RtkFix

from fix_oracle import decoded_fixes, unanalysable_payloads, write_bag_with_bad_fix


def columns(groups):
    """``fix_columns`` of every fix in ``groups`` (rover id -> fixes)."""
    return fix_columns(f for group in groups.values() for f in group)


def fixes_at(rover_id, points, t0=0.0, dt=1.0 / 14.0, base=bench.DEFAULT_BASE):
    out = []
    for i, enu in enumerate(points):
        g = geo.enu_to_geodetic(tuple(enu), base)
        out.append(RtkFix(rover_id, g, FixQuality.FIXED, t0 + i * dt))
    return out


@given(kind=st.sampled_from(EXPERIMENT_KINDS), side_m=st.floats(0.05, 5.0),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_board_is_rigid_at_any_stamps(kind, side_m, fractions):
    spec = replace(make_spec(kind, seed=1), side_m=side_m)
    pos = bench.corner_positions(spec, spec.duration_s * np.array(fractions))
    for a, b in bench.SIDE_PAIRS.values():
        np.testing.assert_allclose(np.linalg.norm(pos[a] - pos[b], axis=1), side_m,
                                   rtol=0, atol=1e-12)
    for a, b in (("top_left", "bottom_right"), ("top_right", "bottom_left")):
        np.testing.assert_allclose(np.linalg.norm(pos[a] - pos[b], axis=1),
                                   side_m * math.sqrt(2), rtol=0, atol=1e-12)


class TestSpecs:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_spec("wiggle", 1)
        with pytest.raises(ValueError):
            ExperimentSpec("wiggle", 10.0, 1)

    def test_window_must_fit_run(self):
        with pytest.raises(ValueError):
            ExperimentSpec("static", 10.0, 1,
                           disturbances=(RoverWindow("top_left", 5.0, 20.0, 0.1),))
        with pytest.raises(ValueError):
            ExperimentSpec("static", 10.0, 1,
                           disturbances=(RoverWindow("nobody", 1.0, 2.0, 0.1),))

    @pytest.mark.parametrize("side_m", [0.0, -1.0, math.nan, math.inf])
    def test_side_must_be_finite_and_positive(self, side_m):
        with pytest.raises(ValueError, match="board side"):
            ExperimentSpec("static", 10.0, 1, side_m=side_m)

    @pytest.mark.parametrize("duration_s", [math.nan, math.inf, -math.inf])
    def test_non_finite_duration_rejected_before_any_bag(self, tmp_path, duration_s):
        path = tmp_path / "run.bag"
        with pytest.raises(ValueError, match="duration must be finite"):
            run_experiment(ExperimentSpec("static", duration_s, 1), path)
        assert not path.exists()

    @pytest.mark.parametrize("duration_s", [0.01, 0.999 / 14.0, geo.MAX_RUN_S * 1.0001, 1e300],
                             ids=["10ms", "under_one_fix", "over_the_cap", "1e300"])
    def test_duration_outside_one_fix_period_to_the_cap_rejected(self, duration_s):
        with pytest.raises(ValueError, match="duration must be finite and within"):
            ExperimentSpec("static", duration_s, 1)
        for kind in ("static", "static_disturbed", "rotation"):
            with pytest.raises(ValueError, match="duration"):
                make_spec(kind, 1, duration_s=duration_s)

    def test_a_rotation_run_lasts_until_the_board_is_down(self):
        assert bench.shortest_run_s("rotation") == bench.ROTATION_MIN_RUN_S == 51.0
        assert make_spec("rotation", 1, duration_s=51.0).duration_s == 51.0
        with pytest.raises(ValueError, match="at least 51 s"):
            make_spec("rotation", 1, duration_s=50.9)

    def test_displacement_solve_hits_target_side_errors(self):
        side = 0.9
        dx, dy = corner_displacement_for_peaks(side, "top_right", (1.4, 1.5))
        tl = np.array([-side, 0.0])
        br = np.array([0.0, -side])
        moved = np.array([dx, dy])
        assert np.linalg.norm(moved - tl) - side == pytest.approx(1.4, abs=1e-12)
        assert np.linalg.norm(moved - br) - side == pytest.approx(1.5, abs=1e-12)

    def test_default_disturbed_windows_match_narrative(self):
        spec = disturbed_spec(seed=1)
        twists = [w for w in spec.disturbances if w.rover_id == "top_right"]
        assert [w.start_s for w in twists] == [140.0, 160.0, 230.0]
        passes = [w for w in spec.disturbances if w.rover_id == "top_left"]
        assert [(w.start_s, w.end_s) for w in passes] == [(170.0, 220.0), (235.0, 300.0)]

    def test_side_windows_cover_adjacent_sides_with_decay(self):
        spec = rotation_spec(seed=1)
        windows = side_windows(spec)
        assert set(windows) == {"top", "right"}
        (window,) = spec.disturbances
        expected = [(window.start_s, window.end_s + geo.DISTURBANCE_DECAY_S)]
        assert windows["top"] == windows["right"] == expected == [(51.0, 57.0)]


class TestRunExperiment:
    @pytest.mark.parametrize("duration_s, steps", [(1.0 / 14.0, 1), (1.04, 14), (21.25, 297),
                                                   (bench.SQUARE_RUN_S, 2891)])
    def test_a_run_records_the_fix_stamps_up_to_its_end(self, tmp_path, duration_s, steps):
        """Fixes are stamped k / 14 Hz for every k >= 1 with k / 14 <= duration
        (to 1e-9 s), so no fix lies after the run's end."""
        spec = static_spec(1, duration_s=duration_s, noiseless=True)
        records = bag.read_bag(run_experiment(spec, tmp_path / "run.bag"))
        assert len(records) == 4 * steps
        assert sorted({r.stamp for r in records}) == [k / 14.0 for k in range(1, steps + 1)]

    def test_static_fix_count(self, tmp_path):
        spec = static_spec(seed=1, duration_s=30.0)
        path = run_experiment(spec, tmp_path / "s.bag")
        fixes = load_bag_fixes(path)
        assert sorted(fixes) == sorted(CORNERS)
        for series in fixes.values():
            assert len(series) == 30 * 14

    def test_same_seed_byte_identical_bags(self, tmp_path):
        spec = static_spec(seed=9, duration_s=20.0)
        p1 = run_experiment(spec, tmp_path / "a.bag")
        p2 = run_experiment(spec, tmp_path / "b.bag")
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        p1 = run_experiment(static_spec(seed=1, duration_s=5.0), tmp_path / "a.bag")
        p2 = run_experiment(static_spec(seed=2, duration_s=5.0), tmp_path / "b.bag")
        assert p1.read_bytes() != p2.read_bytes()

    @pytest.mark.parametrize("kind", ["static", "static_disturbed", "rotation"])
    def test_noiseless_runs_have_exact_geometry(self, tmp_path, kind):
        spec = make_spec(kind, seed=1, noiseless=True,
                         **({"duration_s": 60.0} if kind == "static" else {}))
        path = run_experiment(spec, tmp_path / f"{kind}.bag")
        series = side_distances(load_bag_fixes(path), spec.base)
        for side, (stamps, dists) in series.sides.items():
            assert np.max(np.abs(dists - spec.side_m)) < 1e-6

    def test_noiseless_rotation_traces_commanded_turn(self, tmp_path):
        spec = rotation_spec(seed=1, noiseless=True)
        path = run_experiment(spec, tmp_path / "rot.bag")
        fixes = decoded_fixes(path)
        mid = bench.ROTATION_LIFT_END_S + (bench.ROTATION_CW_END_S
                                           - bench.ROTATION_LIFT_END_S) / 2.0
        fix = next(f for f in fixes["top_left"] if abs(f.stamp - mid) < 1e-9)
        east, north, up = geo.geodetic_to_enu(fix.position, spec.base)
        # half a clockwise turn: top_left sits at bottom_right's start slot
        cx, cy = bench.BOARD_CENTER_EN
        h = spec.side_m / 2.0
        assert (east, north) == pytest.approx((cx + h, cy - h), abs=1e-6)
        assert up == pytest.approx(bench.ROTATION_LIFT_M, abs=1e-6)

    def test_noiseless_translation_path_length(self, tmp_path):
        spec = translation_spec(seed=1, noiseless=True)
        path = run_experiment(spec, tmp_path / "trn.bag")
        fixes = decoded_fixes(path)
        centroid = None
        for corner in CORNERS:
            pts = np.array([[*_enu(f, spec.base)] for f in fixes[corner]])
            centroid = pts if centroid is None else centroid + pts
        centroid /= 4.0
        length = float(np.linalg.norm(np.diff(centroid, axis=0), axis=1).sum())
        assert abs(length - (bench.LINE_LENGTH_M + 4.0 * bench.SQUARE_SIDE_M
                             + bench.OVERSHOOT_M)) < 0.1
        # finishes one overshoot past the square's start corner
        end = centroid[-1]
        assert end[0] == pytest.approx(
            bench.BOARD_CENTER_EN[0] + bench.LINE_LENGTH_M + bench.OVERSHOOT_M, abs=0.05)
        assert end[1] == pytest.approx(bench.BOARD_CENTER_EN[1], abs=0.05)


def _scalar_loop_bag(spec, path):
    """Reference for ``run_experiment``: the per-fix loop, one scalar truth
    conversion and one ``Rover.step`` per rover and step, each rover taking
    its corrections from its own subscription at every step."""
    rovers = bench.board_rovers(spec)
    live = Bus()
    link = geo.rtk_base(live)
    nodes = {c: live.create_node(c, "gps") for c in CORNERS}
    pubs = {c: live.advertise(node, "gps/fix") for c, node in nodes.items()}
    subs = {c: live.subscribe(node, geo.CORRECTION_TOPIC.full, geo.CORRECTION_QOS)
            for c, node in nodes.items()}
    recorder = bag.record(live, ["/*/gps/fix"], path)
    for i in range(1, math.floor(spec.duration_s * geo.DEFAULT_FIX_RATE_HZ + 1e-9) + 1):
        t = i / geo.DEFAULT_FIX_RATE_HZ
        link.poll(t)
        positions = bench.corner_positions(spec, np.array([t]))
        for corner in CORNERS:
            truth = geo.enu_to_geodetic(positions[corner][0].tolist(), spec.base)
            fix = rovers[corner].step(truth, geo.take_corrections(live, subs[corner]), t)
            pubs[corner].publish(fix.stamp, geo.encode_fix(fix))
    return recorder.stop()


SHORT_SPECS = {
    "static": lambda seed, **kw: static_spec(seed, duration_s=20.0, **kw),
    "static_disturbed": lambda seed, **kw: ExperimentSpec(
        "static_disturbed", 20.0, seed,
        disturbances=(RoverWindow("top_right", 3.0, 4.5, 0.10),
                      RoverWindow("top_right", 4.0, 6.0, 0.05, (0.0, 1.0)),
                      RoverWindow("top_left", 8.0, 20.0, 0.12)), **kw),
    # the narrated timelines: the full rotation run and the full square run
    "rotation": rotation_spec,
    "translation_square": translation_spec,
}


class TestBatchedRun:
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_bag_equals_scalar_step_loop(self, tmp_path, kind, seed):
        spec = SHORT_SPECS[kind](seed)
        batched = run_experiment(spec, tmp_path / "batched.bag")
        assert batched.read_bytes() == _scalar_loop_bag(spec, tmp_path / "loop.bag").read_bytes()

    @pytest.mark.parametrize("noiseless", [False, True])
    def test_bag_equals_scalar_step_loop_across_batches(self, tmp_path, monkeypatch,
                                                        noiseless):
        monkeypatch.setattr(bench, "_BATCH_STEPS", 37)
        spec = SHORT_SPECS["static_disturbed"](5, noiseless=noiseless)
        batched = run_experiment(spec, tmp_path / "batched.bag")
        assert batched.read_bytes() == _scalar_loop_bag(spec, tmp_path / "loop.bag").read_bytes()


def _enu(fix, base):
    return geo.geodetic_to_enu(fix.position, base)


class TestSideDistances:
    def test_two_known_points(self):
        fixes = {c: fixes_at(c, [(0.0, 0.0, 0.0)]) for c in CORNERS}
        fixes["top_right"] = fixes_at("top_right", [(0.0, 0.9, 0.0)])
        series = side_distances(columns(fixes), bench.DEFAULT_BASE)
        assert series.sides["top"][1][0] == pytest.approx(0.9, abs=1e-9)

    def test_missing_rover_rejected(self):
        fixes = {c: fixes_at(c, [(0, 0, 0)]) for c in CORNERS[:3]}
        with pytest.raises(ValueError, match="no fixes"):
            side_distances(columns(fixes), bench.DEFAULT_BASE)

    def test_non_overlapping_spans_rejected(self):
        fixes = {c: fixes_at(c, [(0, 0, 0)] * 10) for c in CORNERS}
        fixes["top_right"] = fixes_at("top_right", [(0, 0, 0)] * 10, t0=100.0)
        with pytest.raises(ValueError, match="overlapping"):
            side_distances(columns(fixes), bench.DEFAULT_BASE)

    def test_disturbance_locality_outside_windows(self, tmp_path):
        """Pulses consume no randomness: outside the declared windows (+ decay)
        a disturbed run is sample-identical to the undisturbed same-seed run."""
        quiet = run_experiment(static_spec(seed=11), tmp_path / "q.bag")
        noisy = run_experiment(disturbed_spec(seed=11), tmp_path / "n.bag")
        spec = disturbed_spec(seed=11)
        windows = side_windows(spec)
        s_q = side_distances(load_bag_fixes(quiet), spec.base)
        s_n = side_distances(load_bag_fixes(noisy), spec.base)
        for side in SIDES:
            stamps, d_q = s_q.sides[side]
            _, d_n = s_n.sides[side]
            outside = np.ones(len(stamps), dtype=bool)
            for start, end in windows.get(side, ()):
                outside &= ~((stamps >= start) & (stamps <= end))
            assert np.allclose(d_q[outside], d_n[outside], atol=1e-9)
            if side in windows:
                assert not np.allclose(d_q[~outside], d_n[~outside], atol=1e-3)

    def test_noisy_translation_centroid_tracks_noiseless(self, tmp_path):
        def centroid_of(spec, name):
            path = run_experiment(spec, tmp_path / name)
            fixes = decoded_fixes(path)
            total = None
            for corner in CORNERS:
                pts = np.array([[*_enu(f, spec.base)] for f in fixes[corner]])
                total = pts if total is None else total + pts
            return total / 4.0

        clean = centroid_of(translation_spec(seed=2, noiseless=True), "nl.bag")
        noisy = centroid_of(translation_spec(seed=2), "ns.bag")
        rms = float(np.sqrt(np.mean(np.sum((noisy - clean) ** 2, axis=1))))
        assert rms < 0.20

    def test_independent_recomputation_of_seeded_run(self, tmp_path):
        """Oracle: rebuild the per-side means straight from the bag bytes with
        scalar conversions, independent of the analysis pipeline."""
        spec = static_spec(seed=7, duration_s=150.0)
        path = run_experiment(spec, tmp_path / "o.bag")
        series = side_distances(load_bag_fixes(path), spec.base)

        by_rover: dict[str, dict[float, tuple[float, float, float]]] = {}
        for record in bag.read_bag(path):
            fix = geo.decode_fix(record.payload)
            by_rover.setdefault(fix.rover_id, {})[fix.stamp] = geo.geodetic_to_enu(fix.position,
                                                                                    spec.base)
        for side, (ca, cb) in bench.SIDE_PAIRS.items():
            expected = []
            for stamp, pa in sorted(by_rover[ca].items()):
                pb = by_rover[cb][stamp]
                expected.append(math.dist(pa, pb))
            got_stamps, got = series.sides[side]
            assert len(got) == len(expected)
            assert np.mean(got) == pytest.approx(np.mean(expected), abs=1e-9)


class TestSummarize:
    def constant_series(self, value=0.9, n=200, t0=115.0):
        stamps = t0 + np.arange(n) / 14.0
        return DistanceSeries({s: (stamps, np.full(n, value)) for s in SIDES})

    def test_constant_series_all_verdicts_true(self):
        report = summarize(self.constant_series(), 0.9)
        for side in SIDES:
            s = report.sides[side]
            assert s.mean_m == pytest.approx(0.9)
            assert s.max_abs_error_m == 0.0
            assert s.peaks == ()
            assert s.within_20cm and s.stable
        assert report.within_20cm and report.stable

    def test_short_series_rejected(self):
        series = self.constant_series(t0=0.0, n=100)  # ends before 120 s
        with pytest.raises(ValueError, match="convergence"):
            summarize(series, 0.9)

    @pytest.mark.parametrize("expected_side_m", [0.0, -1.0, math.nan, math.inf])
    def test_expected_side_must_be_finite_and_positive(self, expected_side_m):
        with pytest.raises(ValueError, match="expected side"):
            summarize(self.constant_series(), expected_side_m, convergence_s=0.0)

    def test_offset_beyond_20cm_fails_verdict(self):
        report = summarize(self.constant_series(value=1.15), 0.9)
        assert not report.within_20cm
        assert report.sides["top"].max_abs_error_m == pytest.approx(0.25)

    def test_drift_fails_stability(self):
        stamps = 120.0 + np.arange(2000) / 14.0
        drifting = 0.9 + (stamps - 120.0) * (0.005 / 60.0)  # 5 mm per minute
        series = DistanceSeries({s: (stamps, drifting.copy()) for s in SIDES})
        report = summarize(series, 0.9)
        assert not report.stable
        assert report.within_20cm  # drift stays tiny in absolute terms

    def test_fewer_than_two_quiet_samples_are_not_stable(self):
        one = DistanceSeries({s: (np.array([0.1]), np.array([0.9])) for s in SIDES})
        report = summarize(one, 0.9, convergence_s=0.0)
        assert not any(s.stable for s in report.sides.values())
        assert not report.stable and report.within_20cm
        # a window leaving one quiet sample on the top side
        series = self.constant_series()
        last = float(series.sides["top"][0][-1])
        report = summarize(series, 0.9, windows={"top": [(0.0, last - 0.01)]})
        assert not report.sides["top"].stable and report.sides["right"].stable

    def test_peak_detection_and_window_exclusion(self, rng):
        stamps = 120.0 + np.arange(4000) / 14.0
        values = 0.9 + rng.normal(0.0, 0.01, 4000)
        burst = (stamps >= 200.0) & (stamps <= 201.5)
        values[burst] += 0.25
        series = DistanceSeries({s: (stamps, values.copy()) for s in SIDES})
        report = summarize(series, 0.9, windows={"top": [(200.0, 204.5)]})
        top = report.sides["top"]
        assert top.within_20cm  # excursion excluded from the quiet verdict
        near = [p for p in top.peaks if abs(p.stamp - 200.75) < 2.0]
        assert near and max(p.magnitude_m for p in near) == pytest.approx(0.25, abs=0.05)
        # the same excursion busts the verdict when not declared
        undeclared = summarize(series, 0.9)
        assert not undeclared.sides["top"].within_20cm


class TestEmitCsv:
    def test_two_sample_series_is_three_lines(self, tmp_path):
        stamps = np.array([120.0, 120.5])
        series = DistanceSeries({s: (stamps, np.array([0.9, 0.91])) for s in SIDES})
        out = tmp_path / "d.csv"
        emit_csv(series, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "stamp_s,d_top,d_right,d_bottom,d_left"
        assert len(lines) == 3
        assert lines[1] == "120.000000,0.900000,0.900000,0.900000,0.900000"

    def test_series_emission_is_deterministic(self, tmp_path):
        stamps = np.arange(100) / 14.0 + 120.0
        values = 0.9 + 0.1 * np.sin(stamps)
        series = DistanceSeries({s: (stamps, values) for s in SIDES})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(series, a)
        emit_csv(series, b)
        assert a.read_bytes() == b.read_bytes()

    def test_report_csv_stable_key_order(self, tmp_path):
        stamps = 120.0 + np.arange(50) / 14.0
        series = DistanceSeries({s: (stamps, np.full(50, 0.9)) for s in SIDES})
        report = summarize(series, 0.9)
        out = tmp_path / "r.csv"
        emit_csv(report, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "key,value"
        keys = [ln.split(",")[0] for ln in lines[1:]]
        assert keys[:2] == ["expected_side_m", "convergence_s"]
        assert keys[-2:] == ["within_20cm", "stable"]
        assert keys.index("top_mean_m") < keys.index("right_mean_m")

    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            emit_csv(42, tmp_path / "x.csv")


# -- one pairing rule ----------------------------------------------------------

# stamps on a coarse grid of exact binary fractions, so exact midpoints occur
stamp_sets = st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True).map(
    lambda ks: [k * 0.25 for k in sorted(ks)])


def _oracle_pair(stamp, stamps, tol):
    """Index of the nearest of ``stamps`` (ties to the later one), or None
    when it lies farther than ``tol``."""
    best = None
    for j, s in enumerate(stamps):
        if abs(s - stamp) <= tol and (best is None or abs(s - stamp) <= abs(stamps[best] - stamp)):
            best = j
    return best


def _half_median_period(stamps):
    return 0.5 * float(np.median(np.diff(stamps))) if len(stamps) > 1 else 0.0


# each side pairs a corner placed along east with one placed along north
_CORNER_AXIS = {"top_left": 0, "top_right": 1, "bottom_right": 0, "bottom_left": 1}


@given(sets=st.fixed_dictionaries({c: stamp_sets for c in CORNERS}))
@example(sets={"top_left": [1.0, 2.0], "top_right": [0.5, 1.5, 2.5],
               "bottom_right": [1.0, 2.0], "bottom_left": [0.5, 1.5, 2.5]})
@settings(max_examples=150, deadline=None)
def test_side_distances_pair_nearest_stamp_ties_to_later(sets):
    base = bench.DEFAULT_BASE
    fixes = {}
    for corner, stamps in sets.items():
        fixes[corner] = []
        for i, stamp in enumerate(stamps):
            enu = [0.0, 0.0, 0.0]
            enu[_CORNER_AXIS[corner]] = 0.25 * (i + 1)  # the distance names the pair
            g = geo.enu_to_geodetic(enu, base)
            fixes[corner].append(RtkFix(corner, g, FixQuality.FIXED, stamp))

    expected = {}
    for side, (ca, cb) in bench.SIDE_PAIRS.items():
        sa, sb = sets[ca], sets[cb]
        tol = _half_median_period(sa)
        pairs = [(stamp, i, _oracle_pair(stamp, sb, tol)) for i, stamp in enumerate(sa)]
        expected[side] = [(stamp, math.hypot(0.25 * (i + 1), 0.25 * (j + 1)))
                          for stamp, i, j in pairs if j is not None]
    if not all(expected.values()):
        with pytest.raises(ValueError, match="overlapping"):
            side_distances(columns(fixes), base)
        return
    series = side_distances(columns(fixes), base)
    for side in SIDES:
        stamps, dists = series.sides[side]
        assert stamps.tolist() == [stamp for stamp, _ in expected[side]]
        assert np.allclose(dists, [d for _, d in expected[side]], rtol=0.0, atol=1e-6)


@given(sets=st.fixed_dictionaries({s: stamp_sets for s in SIDES}))
@example(sets={"top": [0.0, 1.0], "right": [0.5], "bottom": [0.0, 2.0, 4.0],
               "left": [1.0, 3.0]})
@settings(max_examples=150, deadline=None)
def test_series_csv_cells_pair_nearest_stamp_ties_to_later(sets, tmp_path_factory):
    # side index and sample index in every value, so a cell names its sample
    series = DistanceSeries({side: (np.array(stamps), 1.0 + k + 0.001 * np.arange(len(stamps)))
                             for k, (side, stamps) in enumerate(sets.items())})
    out = tmp_path_factory.mktemp("series") / "d.csv"
    emit_csv(series, out)

    lines = ["stamp_s,d_top,d_right,d_bottom,d_left"]
    for stamp in sorted(set().union(*sets.values())):
        cells = [f"{stamp:.6f}"]
        for side in SIDES:
            stamps, dists = series.sides[side]
            j = _oracle_pair(stamp, sets[side], _half_median_period(stamps))
            cells.append("" if j is None else f"{dists[j]:.6f}")
        lines.append(",".join(cells))
    assert out.read_text() == "\n".join(lines) + "\n"


def _one_fix_per_corner(stamps):
    corners = {"top_left": (-0.45, 0.45, 0.0), "top_right": (0.45, 0.45, 0.0),
               "bottom_right": (0.45, -0.45, 0.0), "bottom_left": (-0.45, -0.45, 0.0)}
    return {c: fixes_at(c, [corners[c]], t0=stamps[c]) for c in CORNERS}


def test_single_fix_pairs_only_with_an_equal_stamp():
    # one fix per corner, 100 s apart across every side: nothing may pair
    far = _one_fix_per_corner({"top_left": 0.0, "top_right": 100.0,
                               "bottom_right": 0.0, "bottom_left": 100.0})
    with pytest.raises(ValueError, match="overlapping fixes within 0.0 s"):
        side_distances(columns(far), bench.DEFAULT_BASE)

    same = _one_fix_per_corner({c: 5.0 for c in CORNERS})
    series = side_distances(columns(same), bench.DEFAULT_BASE)
    for side in SIDES:
        stamps, dists = series.sides[side]
        assert stamps.tolist() == [5.0]
        assert dists[0] == pytest.approx(0.9, abs=1e-6)


# -- fixes as columns ----------------------------------------------------------

_QUALITY_NAMES = ("single", "float", "fixed")  # quality code -> FixQuality value
_TIED_STAMPS = st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-9])


@st.composite
def fix_records(draw):
    """(topic, record stamp, fix) triples in write order. Rover ids have
    several byte lengths, multi-byte UTF-8 and NUL among them, and need not
    name their topic; record and fix stamps tie often."""
    ids = draw(st.lists(st.text(max_size=6), min_size=1, max_size=4, unique=True))
    topics = ["/top_left/gps/fix", "/b/gps/fix", "/é/x"]
    fix = st.builds(RtkFix, st.sampled_from(ids),
                    st.builds(geo.GeodeticCoord, st.floats(-90.0, 90.0),
                              st.floats(-180.0, 180.0, exclude_min=True), st.floats(-1e4, 1e4)),
                    st.sampled_from(list(FixQuality)),
                    st.one_of(_TIED_STAMPS, st.floats(allow_nan=False)))
    return draw(st.lists(st.tuples(st.sampled_from(topics), _TIED_STAMPS, fix), max_size=40))


def _assert_columns_hold(cols, fixes):
    assert len(cols) == len(fixes)
    assert cols.stamps.dtype == cols.lla.dtype == np.float64
    assert cols.quality.dtype == np.uint8
    assert cols.stamps.tobytes() == np.array([f.stamp for f in fixes], dtype=float).tobytes()
    lla = np.array([(f.position.lat, f.position.lon, f.position.alt) for f in fixes], dtype=float)
    assert cols.lla.shape == (len(fixes), 3)
    assert cols.lla.tobytes() == lla.reshape(-1, 3).tobytes()
    assert cols.quality.tolist() == [_QUALITY_NAMES.index(f.quality.value) for f in fixes]


@given(records=fix_records())
@example(records=[("/b/gps/fix", 1.0, RtkFix("a\x00", geo.GeodeticCoord(0.0, 0.0, 0.0),
                                              FixQuality.SINGLE, 1.0)),
                  ("/b/gps/fix", 1.0, RtkFix("a", geo.GeodeticCoord(-0.0, 180.0, -0.0),
                                              FixQuality.FIXED, -0.0)),
                  ("/é/x", 0.5, RtkFix("é", geo.GeodeticCoord(1.0, 2.0, 3.0),
                                       FixQuality.FLOAT, 0.5))])
@example(records=[("/b/gps/fix", 0.0, RtkFix("ab", geo.GeodeticCoord(0.0, 0.0, 0.0),
                                              FixQuality.SINGLE, 0.0)),
                  ("/b/gps/fix", 1.0, RtkFix("a", geo.GeodeticCoord(0.0, 0.0, 0.0),
                                              FixQuality.FIXED, -math.inf))])
@settings(max_examples=150, deadline=None)
def test_load_bag_fixes_equals_decoding_each_record(tmp_path_factory, records):
    """The columns of every rover equal, bit for bit, its fixes decoded one
    record at a time through ``read_bag`` and ``decode_fix``, in bag order;
    ``fix_columns`` of those fixes gives the same columns. A bag holding an
    infinite fix stamp is refused, naming a record that holds one."""
    path = tmp_path_factory.mktemp("fixes") / "f.bag"
    with bag.BagWriter(path) as writer:
        for topic, stamp, fix in records:
            writer.append(topic, stamp, geo.encode_fix(fix))
    in_order = [geo.decode_fix(record.payload) for record in bag.read_bag(path)]
    non_finite = [i for i, fix in enumerate(in_order) if not math.isfinite(fix.stamp)]
    if non_finite:
        with pytest.raises(ValueError) as err:
            load_bag_fixes(path)
        named = re.match(rf"bag {re.escape(str(path))} record (\d+) is not a fix: ", str(err.value))
        assert named and int(named.group(1)) in non_finite
        return
    want = decoded_fixes(path)
    got = load_bag_fixes(path)
    converted = fix_columns(f for group in want.values() for f in group)
    assert got.keys() == converted.keys() == want.keys()
    for rover_id, fixes in want.items():
        _assert_columns_hold(got[rover_id], fixes)
        _assert_columns_hold(converted[rover_id], fixes)


@pytest.mark.parametrize("case", sorted(unanalysable_payloads()))
def test_a_payload_that_is_not_a_fix_names_its_record(tmp_path, case):
    payload, detail = unanalysable_payloads()[case]
    path = write_bag_with_bad_fix(tmp_path / "bad.bag", payload)
    with pytest.raises(ValueError) as err:
        load_bag_fixes(path)
    assert str(err.value).startswith(f"bag {path} record 3 is not a fix: ")
    assert detail in str(err.value)


def _reference_peaks(stamps, dists, mu, sigma):
    """The peak rule as one loop over the samples: one peak per run of at
    least ``PEAK_MIN_SAMPLES`` samples beyond ``PEAK_SIGMA_FACTOR`` sigma, at
    the run's first largest deviation."""
    dev = np.abs(dists - mu)
    over = dev > bench.PEAK_SIGMA_FACTOR * sigma
    peaks = []
    i = 0
    n = len(over)
    while i < n:
        if not over[i]:
            i += 1
            continue
        j = i
        while j < n and over[j]:
            j += 1
        if j - i >= bench.PEAK_MIN_SAMPLES:
            k = i + int(np.argmax(dev[i:j]))
            peaks.append(bench.Peak(float(stamps[k]), float(dev[k])))
        i = j
    return tuple(peaks)


@given(dists=st.lists(st.sampled_from([0.0, 0.05, -0.05, 0.3, -0.3]) | st.floats(-1.0, 1.0),
                      max_size=80),
       mu=st.sampled_from([0.0, 0.05]) | st.floats(-1.0, 1.0),
       sigma=st.just(0.0) | st.floats(0.0, 0.5))
@example(dists=[], mu=0.0, sigma=0.1)
@example(dists=[0.5, 0.5, 0.0, 0.0, 0.5, 0.5], mu=0.0, sigma=0.1)  # runs touch both ends
@example(dists=[0.0, 0.5, 0.7, 0.6, -0.7, 0.7, 0.0], mu=0.0, sigma=0.1)  # tied maxima
@example(dists=[0.5, -0.3, 0.5, 0.2], mu=0.0, sigma=0.0)  # every sample over
@example(dists=[0.2, 0.2, 0.2], mu=0.2, sigma=0.0)  # none over
@example(dists=[0.0, 0.5, 0.0, 0.5, 0.0], mu=0.0, sigma=0.1)  # runs too short
@settings(max_examples=300, deadline=None)
def test_find_peaks_equals_the_sample_loop(dists, mu, sigma):
    """Oracle: the run-based peaks equal the sample loop's, with sigma 0,
    tied maxima inside a run, runs at either end, and every sample over the
    threshold or none."""
    stamps = np.arange(len(dists)) / 14.0
    dists = np.array(dists, dtype=float)
    got = bench._find_peaks(stamps, dists, mu, sigma)
    assert got == _reference_peaks(stamps, dists, mu, sigma)
    assert all(type(p.stamp) is float and type(p.magnitude_m) is float for p in got)
