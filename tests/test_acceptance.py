"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary values. Everything is seeded; no network, no hardware.
"""
import math

import numpy as np

from hmas import bag, bench, geo, quat
from hmas.agents import (AgentSpec, FollowCommand, Scenario, ScenarioAgent,
                         SensorSpec, run_scenario)
from hmas.bus import Bus, QosProfile, Reliability
from hmas.geo import GeodeticCoord
from hmas.tf import Transform, TransformTree, compose, invert

from fix_oracle import decoded_fixes
from quat_oracle import from_axis_angle, to_matrix

BASE = GeodeticCoord(48.70, 6.15, 220.0)
GPS = (SensorSpec("gps", "gnss"),)


def test_criterion_1_geodesy_oracle_equivalence(rng):
    x, y, z = geo.geodetic_to_ecef(GeodeticCoord(0.0, 0.0, 0.0))
    assert abs(x - 6378137.0) < 1e-6 and abs(y) < 1e-6 and abs(z) < 1e-6
    _, _, pole_z = geo.geodetic_to_ecef(GeodeticCoord(90.0, 0.0, 0.0))
    assert abs(pole_z - 6356752.314) <= 1e-3

    worst_deg, worst_alt = 0.0, 0.0
    for _ in range(10_000):
        g = GeodeticCoord(float(rng.uniform(-89.9, 89.9)),
                          float(rng.uniform(-179.9, 179.9)),
                          float(rng.uniform(-400.0, 9000.0)))
        back = geo.ecef_to_geodetic(geo.geodetic_to_ecef(g))
        worst_deg = max(worst_deg, abs(back.lat - g.lat), abs(back.lon - g.lon))
        worst_alt = max(worst_alt, abs(back.alt - g.alt))
    assert worst_deg <= 1e-9
    assert worst_alt <= 1e-6
    print(f"\nPASS criterion 1: 10^4 round-trips, worst {worst_deg:.2e} deg / "
          f"{worst_alt:.2e} m; anchor points match")


def test_criterion_2_enu_rigidity(rng):
    worst = 0.0
    for _ in range(1_000):
        b = GeodeticCoord(float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179)),
                          float(rng.uniform(-100, 3000)))
        p1 = geo.enu_to_ecef(rng.uniform(-10_000, 10_000, 3).tolist(), b)
        p2 = geo.enu_to_ecef(rng.uniform(-10_000, 10_000, 3).tolist(), b)
        e1, e2 = geo.ecef_to_enu(p1, b), geo.ecef_to_enu(p2, b)
        chord = math.dist(p1, p2)
        enu_d = math.dist(e1, e2)
        worst = max(worst, abs(enu_d - chord) / chord)
    assert worst <= 1e-9
    print(f"\nPASS criterion 2: 10^3 point pairs, worst relative distance "
          f"deviation {worst:.2e}")


def test_criterion_3_qos_semantics(rng):
    # keep-last-1 burst
    bus = Bus()
    node = bus.create_node("spot", "driver")
    pub = bus.advertise(node, "t")
    sub = bus.subscribe(node, "t", QosProfile(history_depth=1))
    for i in range(100):
        pub.publish(float(i), b"payload-%d" % i)
    msg = sub.take()
    assert msg.payload == b"payload-99" and sub.take() is None

    # namespace isolation over randomized name sets
    letters = "abcdefghijklmnopqrstuvwxyz"
    for trial in range(50):
        ns_a, ns_b = (("".join(rng.choice(list(letters), size=5)) + str(i))
                      for i in range(2))
        topic = "".join(rng.choice(list(letters), size=6))
        iso = Bus()
        a = iso.create_node(ns_a, "driver")
        b = iso.create_node(ns_b, "driver")
        pub_b = iso.advertise(b, topic)
        sub_a = iso.subscribe(a, topic)
        pub_b.publish(0.0, b"leak")
        assert sub_a.take() is None

    # non-blocking publish to a never-consuming subscriber
    never = bus.subscribe(node, "t", QosProfile(history_depth=1))
    for i in range(100_000):
        pub.publish(100.0 + i, b"x")
    print("\nPASS criterion 3: keep-last-1 burst, randomized namespace "
          "isolation, 10^5 non-blocking publishes")


def _random_quat(rng):
    axis = rng.normal(size=3)
    return from_axis_angle(axis, float(rng.uniform(-math.pi, math.pi)))


def test_criterion_4_tf_correctness(rng):
    tree = TransformTree()
    frames = ["f0"]
    for i in range(1, 50):
        parent = frames[int(rng.integers(0, len(frames)))]
        child = f"f{i}"
        for stamp in (0.0, 10.0):
            tree.set_transform(Transform(parent, child, rng.uniform(-5, 5, 3),
                                         _random_quat(rng), stamp))
        frames.append(child)

    worst = 0.0
    for _ in range(300):
        a, b, c = (frames[int(rng.integers(0, len(frames)))] for _ in range(3))
        at = float(rng.uniform(0, 10))
        direct = tree.lookup(a, c, at)
        via = compose(tree.lookup(a, b, at), tree.lookup(b, c, at))
        worst = max(worst, float(np.max(np.abs(np.subtract(via.translation,
                                                           direct.translation)))))
        worst = max(worst, float(np.max(np.abs(
            to_matrix(via.rotation) - to_matrix(direct.rotation)))))
        rev = invert(tree.lookup(c, a, at))
        worst = max(worst, float(np.max(np.abs(np.subtract(rev.translation,
                                                           direct.translation)))))
        worst = max(worst, float(np.max(np.abs(
            to_matrix(rev.rotation) - to_matrix(direct.rotation)))))
    assert worst <= 1e-9

    # interpolation endpoints reproduce stored samples
    probe = TransformTree()
    stored = [Transform("w", "x", rng.uniform(-5, 5, 3), _random_quat(rng), float(i))
              for i in range(8)]
    for s in stored:
        probe.set_transform(s)
    for s in stored:
        out = probe.lookup("w", "x", s.stamp)
        assert np.array_equal(out.translation, s.translation)
        assert float(np.max(np.abs(np.subtract(out.rotation,
                                               quat.canonicalize(s.rotation))))) <= 1e-12

    # composition against the homogeneous-matrix brute-force oracle
    worst_m = 0.0
    for _ in range(1_000):
        ta = Transform("x", "y", rng.uniform(-5, 5, 3), _random_quat(rng))
        tb = Transform("y", "z", rng.uniform(-5, 5, 3), _random_quat(rng))
        got = np.eye(4)
        got[:3, :3] = to_matrix(compose(ta, tb).rotation)
        got[:3, 3] = compose(ta, tb).translation
        ma, mb = np.eye(4), np.eye(4)
        ma[:3, :3] = to_matrix(ta.rotation)
        ma[:3, 3] = ta.translation
        mb[:3, :3] = to_matrix(tb.rotation)
        mb[:3, 3] = tb.translation
        worst_m = max(worst_m, float(np.max(np.abs(got - ma @ mb))))
    assert worst_m <= 1e-9
    print(f"\nPASS criterion 4: tree properties worst {worst:.2e}, "
          f"matrix oracle worst {worst_m:.2e} over 10^3 pairs")


def test_criterion_5_static_envelope(tmp_path):
    seeds = range(1, 21)
    worst_mean_err, min_small_sides = 0.0, 4
    for seed in seeds:
        spec = bench.static_spec(seed=seed)
        path = bench.run_experiment(spec, tmp_path / f"static_{seed}.bag")
        if seed == 1:
            per_rover = {r: len(f) for r, f in bench.load_bag_fixes(path).items()}
            assert all(abs(n - 300 * 14) <= 1 for n in per_rover.values())
        _, report = bench.analyze_bag(path, spec.base, spec.side_m)
        errs = [abs(report.sides[s].mean_m - spec.side_m) for s in bench.SIDES]
        assert all(0.0 <= e <= 0.20 for e in errs), f"seed {seed}: {errs}"
        small = sum(1 for e in errs if e <= 0.05)
        assert small >= 2, f"seed {seed}: only {small} sides within 5 cm"
        assert report.stable, f"seed {seed}: stability verdict failed"
        worst_mean_err = max(worst_mean_err, max(errs))
        min_small_sides = min(min_small_sides, small)
    print(f"\nPASS criterion 5: 20 seeds, worst per-side mean error "
          f"{worst_mean_err:.3f} m, >= {min_small_sides} sides within 5 cm, all stable")


def test_criterion_6_disturbance_transients(tmp_path):
    spec = bench.disturbed_spec(seed=1)
    path = bench.run_experiment(spec, tmp_path / "disturbed.bag")
    series, report = bench.analyze_bag(path, spec.base, spec.side_m,
                                       windows=bench.side_windows(spec))
    assert report.within_20cm  # outside declared windows

    twist_magnitudes = []
    for corner, w in spec.disturbances:
        affected = [side for side, _ in bench._CORNER_SIDES[corner]]
        aligned = [p for side in affected for p in report.sides[side].peaks
                   if w.start_s - 2.0 <= p.stamp <= w.end_s + 2.0 + 3.0]
        assert aligned, f"no peak aligned with window {w} on {corner}"
        if corner == "top_right":  # the three corner twists
            twist_magnitudes.append(max(p.magnitude_m for p in aligned))
    assert len(twist_magnitudes) == 3
    for magnitude in twist_magnitudes:
        assert 0.05 <= magnitude <= 0.15, f"twist peak {magnitude:.3f} m"
    print(f"\nPASS criterion 6: peaks aligned with all 5 windows, twist peaks "
          f"{[f'{m:.3f}' for m in twist_magnitudes]} m, within_20cm outside windows")


def test_criterion_7_rotation_obstruction(tmp_path):
    spec = bench.rotation_spec(seed=1)
    path = bench.run_experiment(spec, tmp_path / "rotation.bag")
    series, report = bench.analyze_bag(path, spec.base, spec.side_m,
                                       windows=bench.side_windows(spec),
                                       convergence_s=5.0)
    top_peak = max(p.magnitude_m for p in report.sides["top"].peaks)
    right_peak = max(p.magnitude_m for p in report.sides["right"].peaks)
    assert abs(top_peak - 1.4) <= 0.2, f"top peak {top_peak:.3f}"
    assert abs(right_peak - 1.5) <= 0.2, f"right peak {right_peak:.3f}"
    for side in ("bottom", "left"):
        peaks = report.sides[side].peaks
        assert all(p.magnitude_m <= 0.20 for p in peaks), f"{side}: {peaks}"
        stamps, dists = series.sides[side]
        live = stamps >= 5.0
        assert float(np.max(np.abs(dists[live] - spec.side_m))) <= 0.20
    # the meter-level bound is never exceeded by more than the obstruction itself
    for side, configured in (("top", 1.4), ("right", 1.5)):
        stamps, dists = series.sides[side]
        live = stamps >= 5.0
        assert float(np.max(np.abs(dists[live] - spec.side_m))) <= configured + 0.2
    print(f"\nPASS criterion 7: obstruction peaks top {top_peak:.3f} m / right "
          f"{right_peak:.3f} m on exactly the adjacent sides; others <= 0.20 m")


def test_criterion_8_translation_run(tmp_path):
    noiseless = bench.translation_spec(seed=1, noiseless=True)
    path = bench.run_experiment(noiseless, tmp_path / "square_nl.bag")
    fixes = decoded_fixes(path)
    centroid = None
    for corner in bench.CORNERS:
        series = fixes[corner]
        pts = geo.geodetic_to_enu_array([(f.position.lat, f.position.lon, f.position.alt)
                                            for f in series], noiseless.base)
        centroid = pts if centroid is None else centroid + pts
    centroid /= 4.0
    length = float(np.linalg.norm(np.diff(centroid, axis=0), axis=1).sum())
    # the 30 m line, the 25 m square and the 1 m overshoot
    expected = bench.LINE_LENGTH_M + 4.0 * bench.SQUARE_SIDE_M + bench.OVERSHOOT_M
    assert abs(length - expected) < 0.1

    noisy = bench.translation_spec(seed=1)
    path_n = bench.run_experiment(noisy, tmp_path / "square.bag")
    _, report = bench.analyze_bag(path_n, noisy.base, noisy.side_m)
    assert report.within_20cm
    assert all(report.sides[s].within_20cm for s in bench.SIDES)
    print(f"\nPASS criterion 8: noiseless centroid path {length:.3f} m "
          f"(target {expected:.1f}), noisy within_20cm on all sides")


def test_criterion_9_bag_round_trip(tmp_path):
    spec = bench.static_spec(seed=4, duration_s=130.0)
    p1 = bench.run_experiment(spec, tmp_path / "a.bag")
    p2 = bench.run_experiment(spec, tmp_path / "b.bag")
    assert p1.read_bytes() == p2.read_bytes()

    records = bag.read_bag(p1)
    fresh = Bus()
    listener = fresh.create_node("hmas", "display")
    deep = QosProfile(reliability=Reliability.RELIABLE, history_depth=10_000)
    subs = {f"/{c}/gps/fix": fresh.subscribe(listener, f"/{c}/gps/fix", deep)
            for c in bench.CORNERS}
    bag.replay(p1, fresh, fast=True)
    replayed = {topic: [] for topic in subs}
    for topic, sub in subs.items():
        while True:
            msg = sub.take()
            if msg is None:
                break
            replayed[topic].append((msg.stamp, msg.payload))
    for topic in subs:
        original = [(r.stamp, r.payload) for r in records if r.topic == topic]
        assert replayed[topic] == original

    csv_1, csv_2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    rep_1, rep_2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for csv_out, rep_out in ((csv_1, rep_1), (csv_2, rep_2)):
        series, report = bench.analyze_bag(p1, spec.base, spec.side_m)
        bench.emit_csv(series, csv_out)
        bench.emit_csv(report, rep_out)
    assert csv_1.read_bytes() == csv_2.read_bytes()
    assert rep_1.read_bytes() == rep_2.read_bytes()
    print(f"\nPASS criterion 9: byte-identical bags ({len(records)} records), "
          "exact replay sequences, byte-deterministic analysis")


def _follow_scenario(noiseless: bool) -> Scenario:
    operator = ScenarioAgent(AgentSpec("operator", "human", 1.5, sensors=GPS),
                             (0.0, 0.0, 0.0), waypoints=((120.0, 0.0, 0.0),),
                             speed=1.0)
    spot = ScenarioAgent(AgentSpec("spot", "ground", 1.5, sensors=GPS),
                         (-2.0, -1.0, 0.0))
    cmd = FollowCommand("spot", "operator", offset=(0.0, -1.0), standoff=0.5)
    return Scenario(BASE, 1, 120.0, (operator, spot), (cmd,), noiseless=noiseless)


def test_criterion_10_follow_behavior():
    results = {}
    for noiseless in (True, False):
        errs, min_sep = [], [math.inf]

        def watch(world):
            op = np.array(world.agents["operator"].position)
            sp = np.array(world.agents["spot"].position)
            min_sep[0] = min(min_sep[0], float(np.linalg.norm(sp - op)))
            if world.time > 10.0:
                goal = op + np.array([0.0, -1.0, 0.0])
                errs.append(float(np.linalg.norm(sp - goal)))

        world = run_scenario(_follow_scenario(noiseless), on_step=watch)
        results[noiseless] = (float(np.mean(errs)), min_sep[0])
        assert world.fix_counts["operator"] == 14 * 120
        assert world.fix_counts["spot"] == 14 * 120
    mean_nl, sep_nl = results[True]
    mean_noisy, _ = results[False]
    assert mean_nl < 0.5
    assert mean_noisy < 0.7
    assert sep_nl >= 0.5 - 1e-6  # standoff with noiseless fixes
    print(f"\nPASS criterion 10: mean tracking error {mean_nl:.3f} m noiseless / "
          f"{mean_noisy:.3f} m noisy, min separation {sep_nl:.3f} m, "
          f"14 fixes/s/agent")
