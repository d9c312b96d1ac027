"""Agent layer: spawning, kinematics, fix publishing, follow behavior."""
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmas import quat
from hmas.agents import (CONTROL_DT_S, DEAD_BAND_M, DEFAULT_FIX_RATE_HZ, FIX_PERIOD_S,
                         FOLLOW_GAIN, HEADING_BASELINE_S, HEADING_MIN_MOVE_M,
                         STALE_FIX_PERIODS, STEPS_PER_FIX,
                         AgentSpec, DuplicateAgentError, FollowCommand,
                         Scenario, ScenarioAgent, SensorSpec, SpawnError,
                         UnknownAgentError, World, _WaypointScript, load_scenario,
                         run_scenario)
from hmas.bag import read_bag, record
from hmas.bus import SeededDropInjector
from hmas.geo import (CORRECTION_TOPIC, MAX_RUN_S, CorrectionLink, FixQuality,
                      GeodeticCoord, decode_fix, enu_to_geodetic, steps_within,
                      take_corrections)
from hmas.tf import TfError

BASE = GeodeticCoord(48.70, 6.15, 220.0)
GPS = (SensorSpec("gps", "gnss"),)


def ground(name, max_speed=1.5):
    return AgentSpec(name, "ground", max_speed, sensors=GPS)


def noiseless_world(**kwargs):
    return World(BASE, noiseless=True, **kwargs)


def advance(world, steps):
    """Step ``world`` ``steps`` times: 7 steps of CONTROL_DT_S make 0.05 s."""
    for _ in range(steps):
        world.step()


class TestSpec:
    def test_aerial_requires_altitude_range(self):
        with pytest.raises(ValueError):
            AgentSpec("anafi", "aerial", 5.0)
        AgentSpec("anafi", "aerial", 5.0, altitude_range=(1.0, 50.0))

    def test_invalid_names_and_speeds(self):
        with pytest.raises(Exception):
            AgentSpec("Spot", "ground", 1.0)
        with pytest.raises(ValueError):
            AgentSpec("spot", "ground", 0.0)
        with pytest.raises(ValueError):
            AgentSpec("spot", "submarine", 1.0)

    def test_sensor_mount_is_three_floats(self):
        spec = SensorSpec("cam", mount=[1, 0, -2])
        assert spec.mount == (1.0, 0.0, -2.0)
        assert all(type(v) is float for v in spec.mount)
        assert SensorSpec("gps").mount == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("mount", [(0.0, 0.3), (0.0, 0.0, 0.3, 1.0), (),
                                       (math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                                       (0.0, 0.0, -math.inf), ("up", 0.0, 0.0), 0.3, None,
                                       (True, False, 0.0), np.array([True, False, False])])
    def test_sensor_mount_rejected(self, mount):
        with pytest.raises(ValueError, match="mount"):
            SensorSpec("gps", "gnss", mount)

    def test_follow_command_validation(self):
        with pytest.raises(ValueError):
            FollowCommand("a", "a")
        with pytest.raises(ValueError):
            FollowCommand("a", "b", standoff=0.0)
        offset = FollowCommand("a", "b", offset=[0, -1]).offset
        assert offset == (0.0, -1.0) and all(type(v) is float for v in offset)

    @pytest.mark.parametrize("build", [
        lambda: AgentSpec("spot", "ground", math.nan),
        lambda: AgentSpec("spot", "ground", math.inf),
        lambda: FollowCommand("a", "b", standoff=math.nan),
        lambda: FollowCommand("a", "b", standoff=math.inf),
        lambda: FollowCommand("a", "b", offset=(math.nan, 0.0)),
        lambda: FollowCommand("a", "b", offset=(0.0, -math.inf)),
        lambda: FollowCommand("a", "b", offset=(0.0, -1.0, 0.0)),
        lambda: ScenarioAgent(ground("spot"), (0.0, 0.0, 0.0), speed=math.nan),
        lambda: ScenarioAgent(ground("spot"), (0.0, 0.0, 0.0), speed=math.inf),
    ], ids=["max_speed_nan", "max_speed_inf", "standoff_nan", "standoff_inf",
            "offset_nan", "offset_inf", "offset_3", "speed_nan", "speed_inf"])
    def test_non_finite_inputs_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_point_target_is_three_floats(self):
        target = FollowCommand("spot", [1, 0, -2]).target
        assert target == (1.0, 0.0, -2.0) and all(type(v) is float for v in target)

    @pytest.mark.parametrize("target", [(math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0),
                                        (0.0, -math.inf, 0.0), (1.0, 0.0),
                                        (1.0, 0.0, 0.0, 0.0)],
                             ids=["nan", "inf", "minus_inf", "two", "four"])
    def test_point_target_must_be_three_finite_numbers(self, target):
        with pytest.raises(ValueError, match="target"):
            FollowCommand("spot", target)

    def test_scenario_agent_points_are_float_tuples(self):
        entry = ScenarioAgent(ground("spot"), [1, 2, 0], waypoints=[[3, 4, 0], (5, 6, 0)])
        assert entry.start == (1.0, 2.0, 0.0)
        assert entry.waypoints == ((3.0, 4.0, 0.0), (5.0, 6.0, 0.0))
        assert all(type(v) is float for point in (entry.start, *entry.waypoints) for v in point)

    @pytest.mark.parametrize("build", [
        lambda: ScenarioAgent(ground("spot"), (0.0, 0.0)),
        lambda: ScenarioAgent(ground("spot"), (math.nan, 0.0, 0.0)),
        lambda: ScenarioAgent(ground("spot"), (0.0, 0.0, 0.0), waypoints=((1.0, math.inf, 0.0),)),
        lambda: ScenarioAgent(ground("spot"), (0.0, 0.0, 0.0), waypoints=((1.0, 0.0),)),
        lambda: ScenarioAgent(ground("spot"), (True, 0, 0)),
        lambda: Scenario(BASE, 1, math.nan, (), ()),
        lambda: Scenario(BASE, 1, math.inf, (), ()),
        lambda: Scenario(BASE, 1, 0.0, (), ()),
        lambda: Scenario(BASE, 1, -5.0, (), ()),
        lambda: Scenario(BASE, 1, CONTROL_DT_S * 0.999, (), ()),
        lambda: Scenario(BASE, 1, 0.001, (), ()),
        lambda: Scenario(BASE, 1, MAX_RUN_S * 1.0001, (), ()),
        lambda: Scenario(BASE, 1, 1e300, (), ()),
        lambda: Scenario(BASE, 1.5, 1.0, (), ()),
        lambda: Scenario(BASE, True, 1.0, (), ()),
        lambda: Scenario(BASE, -1, 1.0, (), ()),
        lambda: Scenario(BASE, 1, 1.0, (), (), noiseless="no"),
        lambda: Scenario(BASE, 1, 1.0, (), (), noiseless=1),
    ], ids=["start_2", "start_nan", "waypoint_inf", "waypoint_2", "start_bool", "duration_nan",
            "duration_inf", "duration_0", "duration_negative", "duration_under_one_step",
            "duration_1ms", "duration_over_the_cap", "duration_1e300", "seed_float",
            "seed_bool", "seed_negative", "noiseless_str", "noiseless_int"])
    def test_scenario_inputs_rejected(self, build):
        with pytest.raises(ValueError):
            build()


class TestSpawn:
    def test_spawn_creates_nodes_frames_and_fix_topic(self):
        world = noiseless_world()
        world.spawn_agent(ground("spot"), (0.0, 0.0, 0.0))
        graph = world.bus.discover()
        assert "/spot/driver" in graph.nodes
        assert "/spot/gps" in graph.nodes
        assert "/spot/gps/fix" in graph.publishers
        out = world.tree.lookup("world", "spot/base", 0.0)
        np.testing.assert_array_equal(out.translation, [0.0, 0.0, 0.0])
        assert "spot/gps" in world.tree.frames()

    def test_human_with_backpack_gnss_placed_at_start(self):
        world = noiseless_world()
        spec = AgentSpec("operator", "human", 1.5, sensors=GPS)
        world.spawn_agent(spec, (5.0, 5.0, 0.0))
        out = world.tree.lookup("world", "operator/base", 0.0)
        np.testing.assert_array_equal(out.translation, [5.0, 5.0, 0.0])

    def test_duplicate_name_rejected(self):
        world = noiseless_world()
        world.spawn_agent(ground("spot"), (0, 0, 0))
        with pytest.raises(DuplicateAgentError):
            world.spawn_agent(ground("spot"), (1, 1, 0))

    def test_aerial_start_outside_altitude_range(self):
        world = noiseless_world()
        spec = AgentSpec("anafi", "aerial", 5.0, altitude_range=(1.0, 50.0), sensors=GPS)
        with pytest.raises(SpawnError):
            world.spawn_agent(spec, (0.0, 0.0, 0.0))
        world.spawn_agent(spec, (0.0, 0.0, 10.0))

    def test_start_outside_world_bounds(self):
        world = noiseless_world(bounds_m=100.0)
        with pytest.raises(SpawnError):
            world.spawn_agent(ground("spot"), (101.0, 0.0, 0.0))

    @pytest.mark.parametrize("start", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                                       (0.0, 0.0, -math.inf)])
    def test_non_finite_start_rejected_before_any_node(self, start):
        world = noiseless_world()
        with pytest.raises(SpawnError, match="finite"):
            world.spawn_agent(ground("spot"), start)
        assert world.bus.discover().nodes == {"/hmas/display", "/hmas/rtk_base"}
        world.spawn_agent(ground("spot"), (0.0, 0.0, 0.0))


    @pytest.mark.parametrize("start", [(1.0, 2.0), (1.0, 2.0, 0.0, 0.0), None, (True, 0, 0),
                                       (0.0, False, 0.0)],
                             ids=["two", "four", "none", "true", "false"])
    def test_start_must_be_three_numbers(self, start):
        world = noiseless_world()
        with pytest.raises(SpawnError, match="3 finite numbers"):
            world.spawn_agent(ground("spot"), start)
        assert world.bus.discover().nodes == {"/hmas/display", "/hmas/rtk_base"}


class TestCorrections:
    def test_every_gnss_sensor_subscribes_to_the_base(self):
        world = noiseless_world()
        world.spawn_agent(ground("spot"), (0.0, 0.0, 0.0))
        world.spawn_agent(AgentSpec("anafi", "aerial", 5.0, altitude_range=(1.0, 50.0),
                                    sensors=(SensorSpec("cam"), *GPS)), (0.0, 0.0, 10.0))
        world.spawn_agent(AgentSpec("operator", "human", 1.5), (1.0, 0.0, 0.0))
        graph = world.bus.discover()
        assert graph.publishers[CORRECTION_TOPIC.full] == {"/hmas/rtk_base"}
        assert graph.subscribers[CORRECTION_TOPIC.full] == {"/spot/gps", "/anafi/gps"}

    def test_scenario_bag_holds_every_epoch_sent(self, tmp_path):
        scenario = Scenario(BASE, 1, 4.0, (ScenarioAgent(ground("spot"), (0.0, 0.0, 0.0)),), ())
        recorders = []
        world = run_scenario(scenario, on_world=lambda w: recorders.append(
            record(w.bus, [CORRECTION_TOPIC.full], tmp_path / "rtk.bag")))
        records = read_bag(recorders[0].stop())
        k = math.floor(world.time)  # the step clock ends at 4 s exactly: epoch 4 is sent
        assert world.time == 4.0 and k == 4
        assert [r.topic for r in records] == [CORRECTION_TOPIC.full] * k
        assert [int.from_bytes(r.payload, "little") for r in records] == list(range(1, k + 1))
        assert [r.stamp for r in records] == [float(e) for e in range(1, k + 1)]

    def test_the_base_is_polled_on_fix_steps_only(self, monkeypatch):
        """An epoch falls on a whole second, which is a fix step: a 30 s world
        polls its base on its 420 fix steps, not on all 4,200 control steps,
        and still sends its 30 epochs."""
        polls, sent = [], []
        poll = CorrectionLink.poll

        def counting_poll(link, now):
            polls.append(now)
            sent.append(poll(link, now))
            return sent[-1]

        monkeypatch.setattr(CorrectionLink, "poll", counting_poll)
        run_scenario(Scenario(BASE, 1, 30.0, (ScenarioAgent(ground("spot"), (0.0, 0.0, 0.0)),),
                              ()))
        assert len(polls) == 420
        assert polls == [k / 14.0 for k in range(1, 421)]
        assert sum(sent) == 30


class TestStepping:
    def test_zero_velocity_holds_positions(self):
        world = noiseless_world()
        world.spawn_agent(ground("spot"), (1.0, 2.0, 0.0))
        advance(world, 10 * 14)
        np.testing.assert_array_equal(world.agents["spot"].position, [1.0, 2.0, 0.0])

    def test_constant_velocity_integrates_exactly(self):
        world = noiseless_world()
        world.spawn_agent(ground("spot"), (0.0, 0.0, 0.0))
        world.set_velocity("spot", (1.5, 0.0, 0.0))
        advance(world, 280)  # 2 s total at max speed
        assert world.agents["spot"].position[0] == pytest.approx(3.0, abs=1e-9)

    def test_velocity_clamped_to_max_speed(self):
        world = noiseless_world()
        world.spawn_agent(ground("spot", max_speed=1.0), (0, 0, 0))
        world.set_velocity("spot", (10.0, 0.0, 0.0))
        assert np.linalg.norm(world.agents["spot"].velocity) == pytest.approx(1.0)

    def test_ground_agent_pinned_to_terrain(self):
        world = noiseless_world()
        world.spawn_agent(ground("spot"), (0, 0, 0))
        world.set_velocity("spot", (0.0, 0.0, 1.0))
        advance(world, 70)
        assert world.agents["spot"].position[2] == 0.0

    def test_aerial_altitude_clamped(self):
        world = noiseless_world()
        spec = AgentSpec("anafi", "aerial", 10.0, altitude_range=(1.0, 5.0), sensors=GPS)
        world.spawn_agent(spec, (0, 0, 3.0))
        world.set_velocity("anafi", (0.0, 0.0, 10.0))
        advance(world, 5 * 70)
        assert world.agents["anafi"].position[2] == 5.0

    def test_fourteen_fixes_per_second(self):
        world = noiseless_world()
        world.spawn_agent(ground("spot"), (0, 0, 0))
        advance(world, 140)
        assert world.fix_counts["spot"] == 14

    def test_fix_payloads_decode_to_truth_when_noiseless(self):
        world = noiseless_world()
        world.spawn_agent(ground("spot"), (3.0, -2.0, 0.0))
        node = world.bus.create_node("probe", "sink")
        sub = world.bus.subscribe(node, "/spot/gps/fix")
        advance(world, 20 * 7)
        fix = decode_fix(world.bus.take(sub).payload)
        assert fix.rover_id == "spot"
        est = world.estimated_state("spot")
        assert est is not None
        np.testing.assert_allclose(est[1], [3.0, -2.0, 0.0], atol=1e-6)

    def test_tf_tracks_estimated_pose(self):
        world = noiseless_world()
        world.spawn_agent(ground("spot"), (0.0, 0.0, 0.0))
        world.set_velocity("spot", (1.0, 0.0, 0.0))
        advance(world, 28 * 7)  # 1.4 s
        stamp, est = world.estimated_state("spot")
        out = world.tree.lookup("world", "spot/base", stamp)
        np.testing.assert_allclose(out.translation, est, atol=1e-9)


    def test_an_agent_spawned_late_fixes_on_the_world_grid(self):
        world = noiseless_world()
        advance(world, 71)
        assert world.time == 71 / 140.0  # just past 0.5 s
        world.spawn_agent(ground("spot"), (1.0, 0.0, 0.0))
        advance(world, 8)
        assert world.fix_counts["spot"] == 0
        world.step()
        stamp, _ = world.estimated_state("spot")
        assert world.fix_counts["spot"] == 1 and stamp == world.time == 8 / 14.0

    def test_every_fix_carries_the_truth_at_its_stamp(self):
        """One clock over a long run: each fix of a noiseless walker is
        bit-equal to the truth at the step whose time is its stamp, and the
        clock ends on the duration. The run is long enough (past 1,174.7 s)
        for a float clock summed from 1/140 s steps to drift by a step."""
        walker = ScenarioAgent(AgentSpec("walker", "human", 1.5, sensors=GPS),
                               (0.0, 0.0, 0.0), waypoints=((5000.0, 0.0, 0.0),), speed=1.0)
        truth, fixes = {}, []

        def on_world(world):
            world.bus.add_publish_hook(lambda topic, stamp, payload: fixes.append(payload)
                                       if topic.full == "/walker/gps/fix" else None)

        def on_step(world):
            truth[world.time] = world.agents["walker"].position

        world = run_scenario(Scenario(BASE, 1, 1200.0, (walker,), (), noiseless=True),
                             on_step, on_world)
        assert world.time == 1200.0
        assert len(fixes) == world.fix_counts["walker"] == 14 * 1200
        for payload in fixes:
            fix = decode_fix(payload)
            position = truth[fix.stamp]
            assert fix.position == enu_to_geodetic(position, BASE)
            assert abs(position[0] - fix.stamp) < 1e-6  # 1 m/s east from the origin


class TestFollow:
    def converged_world(self):
        world = noiseless_world()
        world.spawn_agent(ground("spot"), (0.0, 0.0, 0.0))
        world.spawn_agent(AgentSpec("operator", "human", 1.5, sensors=GPS),
                          (10.0, 0.0, 0.0))
        advance(world, 10 * 7)  # let fixes arrive
        return world

    def test_zero_velocity_at_goal(self):
        world = noiseless_world()
        world.spawn_agent(ground("spot"), (10.0, 0.0, 0.0))
        world.spawn_agent(AgentSpec("operator", "human", 1.5, sensors=GPS),
                          (10.0, 0.0, 0.0))
        advance(world, 10 * 7)
        cmd = FollowCommand("spot", (10.0, 0.0, 0.0), offset=(0.0, 0.0), standoff=0.1)
        assert world.follow_step(cmd) == (0.0, 0.0, 0.0)

    def test_saturates_toward_distant_goal(self):
        world = self.converged_world()
        cmd = FollowCommand("spot", "operator", offset=(0.0, 0.0), standoff=0.5)
        v = world.follow_step(cmd)
        assert np.linalg.norm(v) == pytest.approx(1.5, abs=1e-9)
        assert v[0] == pytest.approx(1.5, abs=1e-6)

    def test_unknown_agents_rejected(self):
        world = self.converged_world()
        with pytest.raises(UnknownAgentError):
            world.follow_step(FollowCommand("ghost", "operator"))
        with pytest.raises(UnknownAgentError):
            world.follow_step(FollowCommand("spot", "ghost"))

    def test_stale_fix_holds_position(self):
        world = self.converged_world()
        cmd = FollowCommand("spot", "operator")
        world.agents["operator"].rover = None  # silence its fixes
        world.agents["spot"].rover = None
        advance(world, 20 * 7)  # 1 s without fixes > 5 periods
        assert world.follow_step(cmd) == (0.0, 0.0, 0.0)

    def test_command_is_function_of_fixes_not_truth(self):
        world = self.converged_world()
        cmd = FollowCommand("spot", "operator", offset=(0.0, -1.0))
        before = world.follow_step(cmd)
        world.agents["operator"].position = np.array(world.agents["operator"].position) + 500.0
        world.agents["spot"].position = np.array(world.agents["spot"].position) - 500.0
        after = world.follow_step(cmd)  # no step, no new fixes
        assert before == after

    def test_standoff_never_violated_noiseless(self):
        gps = GPS
        target = ScenarioAgent(AgentSpec("operator", "human", 1.5, sensors=gps),
                               (0.0, 0.0, 0.0), waypoints=((30.0, 0.0, 0.0),), speed=1.0)
        chaser = ScenarioAgent(AgentSpec("spot", "ground", 3.0, sensors=gps),
                               (-3.0, 0.0, 0.0))
        # offset goal *at* the target: only the standoff keeps them apart
        cmd = FollowCommand("spot", "operator", offset=(0.0, 0.0), standoff=1.0)
        sc = Scenario(BASE, 5, 30.0, (target, chaser), (cmd,), noiseless=True)
        min_sep = [math.inf]

        def watch(world):
            sep = np.linalg.norm(np.subtract(world.agents["spot"].position,
                                             world.agents["operator"].position))
            min_sep[0] = min(min_sep[0], sep)

        run_scenario(sc, on_step=watch)
        assert min_sep[0] >= 1.0 - 1e-6

    def test_each_epoch_goes_out_before_the_fixes_at_its_second(self, tmp_path):
        """Epoch k is published on the step whose time is k s, before that
        step's fixes, so the fix stamped k takes it; a 30 s run sends all 30."""
        scenario = Scenario(BASE, 1, 30.0, (ScenarioAgent(ground("spot"), (0.0, 0.0, 0.0)),), ())
        recorders = []
        run_scenario(scenario, on_world=lambda w: recorders.append(
            record(w.bus, [CORRECTION_TOPIC.full, "/*/gps/fix"], tmp_path / "run.bag")))
        order = [(r.topic, r.stamp) for r in read_bag(recorders[0].stop())]
        assert [stamp for topic, stamp in order if topic == CORRECTION_TOPIC.full] == [
            float(k) for k in range(1, 31)]
        for k in range(1, 31):
            sent = order.index((CORRECTION_TOPIC.full, float(k)))
            fixed = [i for i, entry in enumerate(order) if entry == ("/spot/gps/fix", k)]
            assert fixed and min(fixed) > sent

    def test_line_follow_tracks_offset_path(self):
        gps = GPS
        target = ScenarioAgent(AgentSpec("operator", "human", 1.5, sensors=gps),
                               (0.0, 0.0, 0.0), waypoints=((60.0, 0.0, 0.0),), speed=1.0)
        follower = ScenarioAgent(AgentSpec("spot", "ground", 1.5, sensors=gps),
                                 (-2.0, -1.0, 0.0))
        cmd = FollowCommand("spot", "operator", offset=(0.0, -1.0), standoff=0.5)
        sc = Scenario(BASE, 1, 60.0, (target, follower), (cmd,), noiseless=True)
        errs = []

        def watch(world):
            if world.time > 10.0:
                goal = np.array(world.agents["operator"].position) + np.array([0.0, -1.0, 0.0])
                errs.append(np.linalg.norm(np.array(world.agents["spot"].position) - goal))

        run_scenario(sc, on_step=watch)
        assert np.mean(errs) < 0.5


class TestScenarioIO:
    SCENARIO = {
        "base": {"lat": 48.70, "lon": 6.15, "alt": 220.0},
        "seed": 7,
        "duration_s": 2.0,
        "noiseless": True,
        "agents": [
            {"name": "operator", "category": "human", "max_speed": 1.5,
             "sensors": [{"name": "gps", "kind": "gnss"}],
             "start": [0, 0, 0], "waypoints": [[10, 0, 0]], "speed": 1.0},
            {"name": "spot", "category": "ground", "max_speed": 1.5,
             "sensors": [{"name": "gps", "kind": "gnss"}], "start": [-2, -1, 0]},
        ],
        "commands": [
            {"follower": "spot", "target": "operator", "offset": [0, -1],
             "standoff": 0.5},
        ],
    }

    def test_load_and_run(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.SCENARIO))
        scenario = load_scenario(path)
        assert scenario.seed == 7
        assert scenario.commands[0].offset == (0.0, -1.0)
        world = run_scenario(scenario)
        assert world.time == 2.0
        assert world.fix_counts["operator"] == 28
        assert world.agents["operator"].position[0] == pytest.approx(2.0, abs=1e-6)


# -- float step path against the numpy arithmetic it replaced -------------------
#
# The references below are the whole-array kinematics and follow behaviour
# that the float step path replaced, with the standoff dot product written
# out; every result must match them bit for bit (compared by bytes, so 0.0
# and -0.0 differ).


def _ref_clamp_speed(velocity, max_speed):
    speed = quat.norm(velocity)
    if speed > max_speed:
        return velocity * (max_speed / speed)
    return velocity


def _ref_clamp_point(spec, bounds, point):
    if spec.category == "aerial":
        lo, hi = spec.altitude_range
        point[2] = min(max(point[2], lo), hi)
    else:
        point[2] = 0.0
    point[0] = min(max(point[0], -bounds), bounds)
    point[1] = min(max(point[1], -bounds), bounds)


def _ref_kinematics(spec, bounds, position, odom, velocity, dt):
    velocity = _ref_clamp_speed(velocity, spec.max_speed)
    position = position + velocity * dt
    _ref_clamp_point(spec, bounds, position)
    if odom is not None:
        odom = odom + velocity * dt
        _ref_clamp_point(spec, bounds, odom)
    return velocity, position, odom


def _ref_heading(hist):
    if len(hist) >= 2:
        latest_stamp, latest = hist[-1]
        for stamp, pos in hist:
            if latest_stamp - stamp >= HEADING_BASELINE_S:
                move = (latest - pos)[:2]
                norm = quat.norm(move)
                if norm >= HEADING_MIN_MOVE_M:
                    return move / norm
                break
    return np.array([1.0, 0.0])


def _ref_standoff(velocity, f_pos, t_pos, standoff, dt):
    sep = f_pos - t_pos
    dist = quat.norm(sep)
    if dist < 1e-9:
        return velocity
    radial = sep / dist
    approach = -(velocity[0] * radial[0] + velocity[1] * radial[1] + velocity[2] * radial[2])
    max_approach = (dist - standoff) / dt
    if approach > max_approach:
        velocity = velocity + (approach - max_approach) * radial
    return velocity


def _ref_follow(f_pos, t_pos, heading, cmd, dt, max_speed):
    forward, left = cmd.offset
    offset = np.array([
        forward * heading[0] - left * heading[1],
        forward * heading[1] + left * heading[0],
        0.0,
    ])
    error = t_pos + offset - f_pos
    if quat.norm(error) < DEAD_BAND_M:
        velocity = np.zeros(3)
    else:
        velocity = _ref_clamp_speed(FOLLOW_GAIN * error, max_speed)
    velocity = _ref_standoff(velocity, f_pos, t_pos, cmd.standoff, dt)
    return _ref_clamp_speed(velocity, max_speed)


def _bits(*arrays):
    return [None if a is None else np.asarray(a, dtype=float).tobytes() for a in arrays]


signed_zero = st.sampled_from([0.0, -0.0])
coord = st.one_of(signed_zero, st.floats(-150.0, 150.0, allow_nan=False))
vec3 = st.tuples(coord, coord, coord)


@st.composite
def moving_agents(draw):
    category = draw(st.sampled_from(["aerial", "ground", "human"]))
    max_speed = draw(st.floats(0.1, 20.0))
    altitude = None
    if category == "aerial":
        lo = draw(st.one_of(signed_zero, st.floats(-20.0, 40.0)))
        altitude = (lo, lo + draw(st.floats(0.5, 60.0)))
    spec = AgentSpec("mover", category, max_speed, altitude_range=altitude)
    velocity = draw(st.tuples(*[st.one_of(signed_zero, st.floats(-4.0, 4.0).map(
        lambda v: v * max_speed))] * 3))  # up to 4x the maximum per component
    odom = draw(st.one_of(st.none(), vec3))
    return spec, draw(vec3), odom, velocity


# any 3-vector an Agent property accepts on assignment
vector_forms = st.sampled_from([np.array, list, tuple])


@given(moving_agents(), st.sampled_from([5.0, 100.0, 10_000.0]), st.integers(1, 4),
       vector_forms)
@settings(max_examples=300, deadline=None)
def test_world_step_kinematics_match_numpy_reference(agent, bounds, steps, form):
    spec, position, odom, velocity = agent
    world = World(BASE, bounds_m=bounds)
    start = (0.0, 0.0, spec.altitude_range[0] if spec.altitude_range else 0.0)
    moved = world.spawn_agent(spec, start)
    moved.position = form(position)
    moved.velocity = form(velocity)
    moved.odom_position = None if odom is None else form(odom)
    ref = (np.array(velocity), np.array(position), None if odom is None else np.array(odom))
    for _ in range(steps):
        world.step()
        v, p, o = ref
        ref = _ref_kinematics(spec, bounds, p, o, v, CONTROL_DT_S)
        assert _bits(moved.velocity, moved.position, moved.odom_position) == _bits(*ref)
        assert type(moved.position) is tuple and all(type(c) is float for c in moved.position)


@st.composite
def follow_cases(draw):
    """A follower's odometry, the target's fix history (oldest first, the
    latest stamp within the staleness limit of time 0), and a command."""
    f_pos = draw(vec3)
    n = draw(st.integers(1, 8))
    latest = -draw(st.floats(0.0, 0.3))
    gaps = draw(st.lists(st.floats(0.01, 0.3), min_size=n - 1, max_size=n - 1))
    stamps = [latest]
    for gap in gaps:
        stamps.insert(0, stamps[0] - gap)
    # small moves too, so both sides of HEADING_MIN_MOVE_M are drawn
    scale = draw(st.sampled_from([0.01, 1.0, 50.0]))
    positions = draw(st.lists(st.tuples(*[st.one_of(signed_zero, st.floats(-1.0, 1.0).map(
        lambda v: v * scale))] * 3), min_size=n, max_size=n))
    target = draw(st.one_of(st.just("operator"), vec3))
    offset = draw(st.tuples(st.one_of(signed_zero, st.integers(-3, 3), st.floats(-3.0, 3.0)),
                            st.one_of(signed_zero, st.integers(-3, 3), st.floats(-3.0, 3.0))))
    cmd = FollowCommand("spot", target, offset, draw(st.floats(0.05, 3.0)))
    return f_pos, list(zip(stamps, positions)), cmd


@given(follow_cases(), st.sampled_from(["ground", "aerial"]), st.floats(0.1, 6.0),
       vector_forms)
@settings(max_examples=200, deadline=None)
def test_follow_step_matches_numpy_reference(case, category, max_speed, form):
    f_pos, hist, cmd = case
    world = World(BASE)
    altitude = (0.0, 50.0) if category == "aerial" else None
    follower = world.spawn_agent(AgentSpec("spot", category, max_speed,
                                           altitude_range=altitude), (0.0, 0.0, 0.0))
    world.spawn_agent(AgentSpec("operator", "human", 1.5), (0.0, 0.0, 0.0))
    follower.odom_position = form(f_pos)
    follower.odom_stamp = 0.0
    world._estimates["operator"].extend(hist)  # entries: (stamp, (e, n, u))
    if isinstance(cmd.target, str):
        ref_hist = [(stamp, np.array(pos)) for stamp, pos in hist]
        t_pos, heading = ref_hist[-1][1], _ref_heading(ref_hist)
    else:
        t_pos, heading = np.array(cmd.target, dtype=float), np.array([1.0, 0.0])
    expected = _ref_follow(np.array(f_pos), t_pos, heading, cmd, CONTROL_DT_S, max_speed)
    command = world.follow_step(cmd)
    assert _bits(command) == _bits(expected)
    assert type(command) is tuple and all(type(v) is float for v in command)
    assert _bits(world.follow_step(cmd)) == _bits(expected)  # the heading, cached


@given(st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)), min_size=1, max_size=6),
       st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
@settings(max_examples=25, deadline=None)
def test_follow_step_tracks_a_changing_fix_history(seed, legs, offset):
    """The target's heading is cached until its next fix. Every command of a
    world whose target keeps moving still equals the numpy reference with the
    heading recomputed from the fix history at every step."""
    world = World(BASE, seed=seed)
    world.spawn_agent(AgentSpec("operator", "human", 1.5, sensors=GPS), (0.0, 0.0, 0.0))
    follower = world.spawn_agent(ground("spot", max_speed=2.0), (-2.0, -1.0, 0.0))
    cmd = FollowCommand("spot", "operator", offset)
    stale_after = STALE_FIX_PERIODS * FIX_PERIOD_S
    steps = round(4.0 / CONTROL_DT_S)
    compared = 0
    for k in range(steps):
        world.set_velocity("operator", (*legs[k * len(legs) // steps], 0.0))
        hist = [(stamp, np.array(pos)) for stamp, pos in world._estimates["operator"]]
        command = world.follow_step(cmd)
        if (follower.odom_position is None or world.time - follower.odom_stamp > stale_after
                or not hist or world.time - hist[-1][0] > stale_after):
            expected = np.zeros(3)
        else:
            expected = _ref_follow(np.array(follower.odom_position), hist[-1][1],
                                   _ref_heading(hist), cmd, CONTROL_DT_S, 2.0)
            compared += 1
        assert _bits(command) == _bits(expected)
        world.set_velocity("spot", command)
        world.step()
    assert compared > steps // 2


@given(st.sampled_from(["position", "velocity", "odom_position"]), vec3, vector_forms)
@settings(max_examples=100, deadline=None)
def test_agent_vectors_are_immutable_float_tuples(attr, value, form):
    """A read is the float tuple the agent holds, which nothing can write
    into; changing the assigned array afterwards does not move the agent,
    assigning it (or any 3-vector) does."""
    agent = World(BASE).spawn_agent(ground("spot"), (0.0, 0.0, 0.0))
    source = form(value)
    setattr(agent, attr, source)
    if form is not tuple:
        source[0] = 99.0  # the agent holds its own floats
    read = getattr(agent, attr)
    assert type(read) is tuple and all(type(c) is float for c in read)
    assert _bits(read) == _bits(value)
    with pytest.raises(TypeError):
        read[0] = 99.0
    moved = np.array(read) + 1.0
    assert _bits(getattr(agent, attr)) == _bits(value)
    setattr(agent, attr, moved)
    assert _bits(getattr(agent, attr)) == _bits(moved)


def test_agent_vector_assignment_checks_its_shape():
    agent = World(BASE).spawn_agent(ground("spot"), (0.0, 0.0, 0.0))
    assert agent.odom_position is None
    agent.odom_position = (1.0, 2.0, 0.0)
    agent.odom_position = None
    assert agent.odom_position is None
    for attr in ("position", "velocity", "odom_position"):
        with pytest.raises(ValueError):
            setattr(agent, attr, (1.0, 2.0))
    for attr in ("position", "velocity"):
        with pytest.raises((TypeError, ValueError)):
            setattr(agent, attr, None)


@given(st.tuples(coord, coord, coord).map(lambda v: [10.0 * c for c in v]),
       st.floats(0.1, 20.0))
@settings(max_examples=200, deadline=None)
def test_set_velocity_matches_numpy_reference(velocity, max_speed):
    world = World(BASE)
    world.spawn_agent(AgentSpec("spot", "ground", max_speed), (0.0, 0.0, 0.0))
    world.set_velocity("spot", velocity)
    expected = _ref_clamp_speed(np.asarray(velocity, dtype=float).reshape(3), max_speed)
    assert _bits(world.agents["spot"].velocity) == _bits(expected)


def test_set_velocity_keeps_its_own_copy():
    world = World(BASE)
    world.spawn_agent(ground("spot"), (0.0, 0.0, 0.0))
    v = np.array([1.0, 0.0, 0.0])
    world.set_velocity("spot", v)
    v[0] = 99.0
    np.testing.assert_array_equal(world.agents["spot"].velocity, [1.0, 0.0, 0.0])


def test_estimated_state_is_an_immutable_float_tuple():
    world = noiseless_world()
    world.spawn_agent(ground("spot"), (3.0, -2.0, 0.0))
    advance(world, 2 * 7)
    state = world.estimated_state("spot")
    stamp, est = state
    assert type(stamp) is float and type(est) is tuple and all(type(c) is float for c in est)
    with pytest.raises(TypeError):
        est[0] = 99.0
    with pytest.raises(TypeError):
        state[1] = (99.0, 0.0, 0.0)
    assert world.estimated_state("spot") == (stamp, est)


def _fleet(seed):
    world = World(BASE, seed=seed)
    world.spawn_agent(AgentSpec("operator", "human", 1.5, sensors=GPS), (0.0, 0.0, 0.0))
    world.spawn_agent(AgentSpec("anafi", "aerial", 4.0, altitude_range=(2.0, 30.0),
                                sensors=GPS), (-2.0, 1.0, 10.0))
    fixes = []
    world.bus.add_publish_hook(lambda topic, stamp, payload: fixes.append((topic, stamp, payload)))
    return world, fixes


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_skipping_idle_rover_steps_changes_no_fix(seed):
    """World steps a rover only on a fix step, with the corrections its
    subscription holds by then. A world whose rovers also take and ingest
    their corrections after every step, as they arrive, publishes the same
    fixes and leaves the rovers in the same grade."""
    lean, lean_fixes = _fleet(seed)
    every, every_fixes = _fleet(seed)
    for k in range(round(12.0 / CONTROL_DT_S)):
        velocity = (math.cos(0.01 * k), math.sin(0.01 * k), 0.5 * math.sin(0.02 * k))
        for world in (lean, every):
            world.set_velocity("operator", velocity)
            world.set_velocity("anafi", velocity)
            world.step()
        for agent in every.agents.values():
            for msg in take_corrections(every.bus, agent.rtk_sub):
                agent.rover.receive_correction(msg)
    assert lean_fixes and lean_fixes == every_fixes
    for name in lean.agents:
        # corrections arrived: both climbed the ladder to fixed
        assert lean.agents[name].rover.quality is FixQuality.FIXED
        assert every.agents[name].rover.quality is FixQuality.FIXED
        assert _bits(lean.agents[name].position) == _bits(every.agents[name].position)


def _lossy_team(seed, duration_s=30.0, alongside=None):
    """Run a seeded operator, ground and aerial team with 5 % fix loss and a TF
    lookup per agent per step, as the fleet benchmark does. Returns a hash of
    every agent's state and lookup at every step, the fix counts and the
    lookups that failed after the first second. ``alongside()`` runs after
    every step."""
    gps = (SensorSpec("gps", "gnss", (0.0, 0.0, 0.3)),)
    members = (
        ScenarioAgent(AgentSpec("operator", "human", 1.5, sensors=gps), (0.0, 0.0, 0.0),
                      ((8.0, 3.0, 0.0), (-4.0, 6.0, 0.0), (2.0, -5.0, 0.0)), 1.0),
        ScenarioAgent(AgentSpec("ground", "ground", 2.0, sensors=gps), (-2.0, -1.0, 0.0)),
        ScenarioAgent(AgentSpec("aerial", "aerial", 3.0, altitude_range=(2.0, 30.0),
                                sensors=gps), (-2.0, 1.0, 10.0)))
    commands = (FollowCommand("ground", "operator", (0.0, -1.0)),
                FollowCommand("aerial", "operator", (-2.0, 0.0), standoff=1.0))
    digest, late_failures = hashlib.sha256(), []

    def on_step(world):
        for name, agent in sorted(world.agents.items()):
            digest.update(b"".join(_bits(agent.position, agent.velocity)))
            digest.update(_bits(agent.odom_position)[0] or b"-")
            latest = agent.odom_stamp if agent.odom_stamp is not None else 0.0
            try:
                out = world.tree.lookup("world", f"{name}/gps", latest - 0.5 / 14.0)
                digest.update(np.array(out.translation).tobytes()
                              + np.array(out.rotation).tobytes())
            except TfError:
                if world.time > 1.0:
                    late_failures.append((world.time, name))
        if alongside is not None:
            alongside()

    world = run_scenario(
        Scenario(BASE, seed, duration_s, members, commands), on_step=on_step,
        on_world=lambda w: w.bus.set_fault_injector(SeededDropInjector(0.05, seed)))
    return digest.hexdigest(), world.fix_counts, late_failures


def test_a_lossy_scenario_repeats_bit_for_bit_in_one_process():
    """Guards the fleet benchmark's own checks: each run publishes 420 fixes
    per agent, no TF lookup fails after the first second, and every run of
    one seed hashes the same, the hash pinned so that every agent state and
    TF lookup keeps its bits. World state must not leak between worlds: a
    shorter run, a run of another seed and a second world stepped alongside
    change nothing."""
    _lossy_team(3, duration_s=1.0)
    first = _lossy_team(3)
    assert first[0] == "73bf941d666f4ea47fa6b29a043ab932922bc96dfbb3499d8782c181c79d3250"
    assert first[1] == {"operator": 420, "ground": 420, "aerial": 420}
    assert first[2] == []
    assert _lossy_team(4)[0] != first[0]

    other = World(BASE, seed=5)
    other.spawn_agent(AgentSpec("operator", "human", 1.5, sensors=GPS), (5.0, 5.0, 0.0))
    other.spawn_agent(ground("ground", max_speed=2.0), (0.0, 0.0, 0.0))
    chase = FollowCommand("ground", "operator", (1.0, 0.5))
    advance(other, 3)  # so its fixes arrive on other steps than the team's

    def step_other():
        k = other.time
        other.set_velocity("operator", (math.cos(0.7 * k), math.sin(0.3 * k), 0.0))
        other.set_velocity("ground", other.follow_step(chase))
        other.step()

    assert _lossy_team(3, alongside=step_other) == first
    assert _lossy_team(3) == first


@st.composite
def command_scenarios(draw):
    """A scenario of at most 2 s and 2-4 agents: a scripted operator at or
    above its top speed, an aerial follower whose goal lies outside its
    altitude range, and up to two ground followers of the operator or of a
    point, some started on their goal (the dead band) or at it with a
    standoff that binds; with or without noise."""
    operator_speed = draw(st.floats(0.5, 3.0))
    leg = st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0), st.just(0.0))
    members = [ScenarioAgent(
        AgentSpec("operator", draw(st.sampled_from(["human", "ground"])), operator_speed,
                  sensors=GPS), (0.0, 0.0, 0.0), tuple(draw(st.lists(leg, min_size=1, max_size=3))),
        operator_speed * draw(st.sampled_from([1.0, 1.0 + 2**-40, 1.5, 4.0])))]
    lo = draw(st.floats(1.0, 5.0))
    hi = lo + draw(st.floats(0.5, 5.0))
    members.append(ScenarioAgent(
        AgentSpec("anafi", "aerial", draw(st.floats(0.5, 4.0)), altitude_range=(lo, hi),
                  sensors=GPS), (-2.0, 1.0, draw(st.sampled_from([lo, hi])))))
    # a ground target pulls it down to lo, a point high above up to hi
    commands = [FollowCommand("anafi", draw(st.sampled_from(["operator", (1.0, 2.0, hi + 10.0)])),
                              (-1.0, 0.0), draw(st.floats(0.2, 2.0)))]
    point = (3.0, -2.0, 0.0)
    for name in ("spot", "rover")[:draw(st.integers(0, 2))]:
        target, offset, start = draw(st.sampled_from([
            (point, (2.0, 1.0), (5.0, -1.0, 0.0)),  # on its goal, outside the standoff
            (point, (0.0, 0.0), (3.1, -2.0, 0.0)),  # inside the standoff
            (point, (0.0, 0.0), point),  # on the point itself
            ("operator", (0.0, 0.0), (-2.0, -1.0, 0.0)),  # runs into the standoff
            ("operator", (0.0, -1.0), (0.0, -1.0, 0.0))]))  # on its goal at first
        members.append(ScenarioAgent(ground(name, max_speed=draw(st.floats(0.3, 3.0))), start))
        commands.append(FollowCommand(name, target, offset, draw(st.floats(0.2, 2.0))))
    return Scenario(BASE, draw(st.integers(0, 2**32 - 1)), draw(st.floats(0.2, 2.0)),
                    tuple(members), tuple(commands), draw(st.booleans()))


def _agent_bits(world):
    return [_bits(a.position, a.velocity, a.odom_position) for a in world.agents.values()]


@given(command_scenarios())
@example(Scenario(BASE, 1, 2.0, (
    ScenarioAgent(AgentSpec("operator", "human", 1.5, sensors=GPS), (0.0, 0.0, 0.0),
                  ((5.0, 0.0, 0.0),), 2.0),
    ScenarioAgent(AgentSpec("anafi", "aerial", 2.0, altitude_range=(2.0, 4.0), sensors=GPS),
                  (-2.0, 1.0, 4.0)),
    ScenarioAgent(ground("spot", max_speed=3.0), (3.1, -2.0, 0.0)),
    ScenarioAgent(ground("rover", max_speed=1.0), (5.0, -1.0, 0.0))), (
    FollowCommand("anafi", "operator", (-1.0, 0.0)),
    FollowCommand("spot", (3.0, -2.0, 0.0), standoff=1.0),
    FollowCommand("rover", (3.0, -2.0, 0.0), (2.0, 1.0)))))
@settings(max_examples=40, deadline=None)
def test_run_scenario_equals_stepping_by_hand(scenario):
    """``run_scenario`` clamps its own script and follow commands without
    re-checking them. The same scenario stepped by hand through the public
    ``set_velocity``, ``follow_step`` and ``step``, with 5 % fix loss, leaves
    every agent's position, velocity and odometry with the same bits after
    every step. The example has every case at once, and a clamp of a clamped
    follow command that moves bits: spot, pushed out of its standoff."""
    def lossy(world):
        world.bus.set_fault_injector(SeededDropInjector(0.05, scenario.seed))

    seen = []
    run_scenario(scenario, on_step=lambda world: seen.append(_agent_bits(world)),
                 on_world=lossy)

    world = World(scenario.base, seed=scenario.seed, noiseless=scenario.noiseless)
    lossy(world)
    scripts = {}
    for entry in scenario.agents:
        world.spawn_agent(entry.spec, entry.start)
        if entry.waypoints:
            scripts[entry.spec.name] = _WaypointScript(entry.waypoints, entry.speed)
    by_hand = []
    for _ in range(steps_within(scenario.duration_s, DEFAULT_FIX_RATE_HZ * STEPS_PER_FIX)):
        for name, script in scripts.items():
            world.set_velocity(name, script.velocity(world.agents[name].position))
        for cmd in scenario.commands:
            world.set_velocity(cmd.follower, world.follow_step(cmd))
        world.step()
        by_hand.append(_agent_bits(world))
    assert seen == by_hand


# -- the one vector rule ----------------------------------------------------------

vector_number = st.one_of(signed_zero, st.floats(-1e9, 1e9), st.integers(-10**9, 10**9))
vector_non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
# entries that are not finite numbers: non-finite floats, bools (numpy's too),
# strings, None, nested vectors
vector_junk = st.one_of(vector_non_finite, st.booleans(), st.sampled_from([np.True_, np.False_]),
                        st.text(max_size=3), st.none(),
                        vector_number.map(lambda x: [x]),
                        vector_number.map(lambda x: np.array([x])))


@st.composite
def vectors(draw):
    """(value, the floats it stands for, or None if it is not a flat vector of
    finite numbers): tuples, lists and ndarrays of 2 to 4 entries."""
    size = draw(st.integers(2, 4))
    form = draw(st.sampled_from(["tuple", "list", "array", "nested array", "string array"]))
    if form in ("tuple", "list"):
        items = draw(st.lists(st.one_of(vector_number, vector_number, vector_junk),
                              min_size=size, max_size=size))
        value = tuple(items) if form == "tuple" else items
    else:
        items = draw(st.lists(st.one_of(vector_number, vector_number, vector_non_finite),
                              min_size=size, max_size=size))
        value = np.array(items, dtype=float)
        if form == "nested array":
            value = value.reshape(draw(st.sampled_from([(size, 1), (1, size)])))
        elif form == "string array":
            value = value.astype(str)
    flat = form in ("tuple", "list", "array")
    numbers = flat and all(type(x) in (int, float) and math.isfinite(x) for x in items)
    return value, tuple(float(x) for x in items) if numbers else None


def _flier():
    return AgentSpec("spot", "aerial", 1e12, altitude_range=(-1e10, 1e10))


def _held_by_agent(attr, assign):
    """An entry point that assigns through ``assign(world, agent, value)`` and
    returns what the agent's ``attr`` then holds; a refusal must leave it as it was."""
    def enter(value):
        world = World(BASE, bounds_m=1e10)
        agent = world.spawn_agent(_flier(), (1.0, 2.0, 3.0))
        agent.velocity = agent.odom_position = (4.0, -5.0, 6.0)
        before = _bits(getattr(agent, attr))
        try:
            assign(world, agent, value)
        except ValueError:
            assert _bits(getattr(agent, attr)) == before
            raise
        return getattr(agent, attr)
    return enter


# entry point -> (vector length, error on refusal, enter(value) -> the floats kept)
VECTOR_ENTRIES = {
    "sensor_mount": (3, ValueError, lambda v: SensorSpec("cam", mount=v).mount),
    "follow_offset": (2, ValueError,
                      lambda v: FollowCommand("spot", "operator", offset=v).offset),
    "point_target": (3, ValueError, lambda v: FollowCommand("spot", v).target),
    "spawn_start": (3, SpawnError,
                    lambda v: World(BASE, bounds_m=1e10).spawn_agent(_flier(), v).position),
    "script_start": (3, ValueError, lambda v: ScenarioAgent(ground("spot"), v).start),
    "script_waypoint": (3, ValueError, lambda v: ScenarioAgent(
        ground("spot"), (0.0, 0.0, 0.0), waypoints=((1.0, 2.0, 0.0), v)).waypoints[1]),
    **{attr: (3, ValueError, _held_by_agent(
        attr, lambda w, a, v, attr=attr: setattr(a, attr, v)))
       for attr in ("position", "velocity", "odom_position")},
    "set_velocity": (3, ValueError, _held_by_agent(
        "velocity", lambda w, a, v: w.set_velocity("spot", v))),
}


@pytest.mark.parametrize("entry", sorted(VECTOR_ENTRIES))
@given(vector=vectors())
@settings(max_examples=60, deadline=None)
def test_every_vector_input_passes_one_rule(entry, vector):
    """Every vector that enters the agent layer is accepted, as floats bit-equal
    to ``float(x)`` of its entries, exactly when it is a flat vector of the
    right number of finite numbers; anything else raises the entry's error."""
    n, error, enter = VECTOR_ENTRIES[entry]
    value, floats = vector
    if floats is not None and len(floats) == n:
        kept = enter(value)
        assert type(kept) is tuple and all(type(v) is float for v in kept)
        assert _bits(kept) == _bits(floats)
    else:
        with pytest.raises(error, match=f"must be {n} finite numbers"):
            enter(value)


def test_the_vector_rule_refuses_numpy_bools_and_keeps_numpy_numbers():
    """A numpy bool is not a ``numbers.Real``; it used to pass as 1.0 or 0.0."""
    for entry in (np.True_, np.False_):
        with pytest.raises(ValueError, match="v must be 3 finite numbers"):
            quat._finite_floats([entry, 0, 0], 3, "v")
    kept = quat._finite_floats([np.float64(1.5), np.int64(-2), np.float32(0.25)], 3, "v")
    assert kept == (1.5, -2.0, 0.25) and all(type(v) is float for v in kept)
    with pytest.raises(ValueError, match="start of 'spot' must be 3 finite numbers"):
        ScenarioAgent(ground("spot"), [np.True_, 0.0, 0.0])


@pytest.mark.parametrize("velocity", [(math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0),
                                      np.array([0.0, -math.inf, 0.0]), [0.0, 0.0, math.nan]],
                         ids=["nan", "inf", "minus_inf_array", "nan_list"])
def test_non_finite_velocity_refused_at_the_call(velocity):
    """A non-finite command used to be kept (inf clamped to NaN) and to crash
    ``World.step`` at the agent's next fix; now the call refuses it and the
    agent keeps its last command."""
    world = World(BASE)
    world.spawn_agent(ground("spot"), (0.0, 0.0, 0.0))
    world.set_velocity("spot", (1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="velocity must be 3 finite numbers"):
        world.set_velocity("spot", velocity)
    assert world.agents["spot"].velocity == (1.0, 0.0, 0.0)
    advance(world, 15)  # past the first fix, at the tenth step
    assert world.fix_counts["spot"] == 1
    assert all(map(math.isfinite, world.agents["spot"].position))


def test_scenario_of_one_control_step_runs_one_step():
    assert Scenario(BASE, 1, MAX_RUN_S, (), ()).duration_s == MAX_RUN_S
    scenario = Scenario(BASE, 1, CONTROL_DT_S, (ScenarioAgent(ground("spot"), (0, 0, 0)),), ())
    assert run_scenario(scenario).time == CONTROL_DT_S


# -- one run-length rule --------------------------------------------------------


@given(st.integers(1, round(MAX_RUN_S * 140)), st.integers(1, round(MAX_RUN_S * 14)))
@settings(max_examples=500, deadline=None)
def test_a_duration_on_the_step_grid_runs_its_own_steps(k_control, k_fix):
    """k/140 s is k control steps and k/14 s is k fix steps, up to 24 h."""
    assert steps_within(k_control / 140.0, 140.0) == k_control
    assert steps_within(k_fix / 14.0, 14.0) == k_fix


def test_a_scenario_never_runs_past_its_duration():
    """1.006 s holds 140 control steps (1.0 s); the 141st would end at 1.00714 s."""
    scenario = Scenario(BASE, 1, 1.006, (ScenarioAgent(ground("spot"), (0, 0, 0)),), ())
    world = run_scenario(scenario)
    assert world.time == 1.0 and world.fix_counts["spot"] == 14
