"""Agent layer: spawning, kinematics, fix publishing, follow behavior."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmas import quat
from hmas.agents import (DEAD_BAND_M, FOLLOW_GAIN, HEADING_BASELINE_S, HEADING_MIN_MOVE_M,
                         AgentSpec, DuplicateAgentError, FollowCommand,
                         Scenario, ScenarioAgent, SensorSpec, SpawnError,
                         UnknownAgentError, World, load_scenario, run_scenario)
from hmas.geo import FixQuality, GeodeticCoord, RoverConfig, decode_fix

BASE = GeodeticCoord(48.70, 6.15, 220.0)
GPS = (SensorSpec("gps", "gnss"),)


def ground(name, max_speed=1.5):
    return AgentSpec(name, "ground", max_speed, sensors=GPS)


def noiseless_world(**kwargs):
    return World(BASE, rover_config=RoverConfig.noiseless(), **kwargs)


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
                                       (0.0, 0.0, -math.inf), ("up", 0.0, 0.0), 0.3, None])
    def test_sensor_mount_rejected(self, mount):
        with pytest.raises(ValueError, match="mount"):
            SensorSpec("gps", "gnss", mount)

    def test_follow_command_validation(self):
        with pytest.raises(ValueError):
            FollowCommand("a", "a")
        with pytest.raises(ValueError):
            FollowCommand("a", "b", standoff=0.0)


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
        assert world.bus.discover().nodes == {"/hmas/display"}
        world.spawn_agent(ground("spot"), (0.0, 0.0, 0.0))


class TestStepping:
    def test_zero_velocity_holds_positions(self):
        world = noiseless_world()
        world.spawn_agent(ground("spot"), (1.0, 2.0, 0.0))
        for _ in range(10):
            world.step(0.1)
        np.testing.assert_array_equal(world.agents["spot"].position, [1.0, 2.0, 0.0])

    def test_constant_velocity_integrates_exactly(self):
        world = noiseless_world()
        world.spawn_agent(ground("spot"), (0.0, 0.0, 0.0))
        world.set_velocity("spot", (1.5, 0.0, 0.0))
        for _ in range(8):
            world.step(0.25)  # 2 s total at max speed
        assert world.agents["spot"].position[0] == pytest.approx(3.0, abs=1e-9)

    def test_dt_bounds(self):
        world = noiseless_world()
        with pytest.raises(ValueError):
            world.step(0.0)
        with pytest.raises(ValueError):
            world.step(1.5)

    def test_velocity_clamped_to_max_speed(self):
        world = noiseless_world()
        world.spawn_agent(ground("spot", max_speed=1.0), (0, 0, 0))
        world.set_velocity("spot", (10.0, 0.0, 0.0))
        assert np.linalg.norm(world.agents["spot"].velocity) == pytest.approx(1.0)

    def test_ground_agent_pinned_to_terrain(self):
        world = noiseless_world()
        world.spawn_agent(ground("spot"), (0, 0, 0))
        world.set_velocity("spot", (0.0, 0.0, 1.0))
        world.step(0.5)
        assert world.agents["spot"].position[2] == 0.0

    def test_aerial_altitude_clamped(self):
        world = noiseless_world()
        spec = AgentSpec("anafi", "aerial", 10.0, altitude_range=(1.0, 5.0), sensors=GPS)
        world.spawn_agent(spec, (0, 0, 3.0))
        world.set_velocity("anafi", (0.0, 0.0, 10.0))
        for _ in range(5):
            world.step(0.5)
        assert world.agents["anafi"].position[2] == 5.0

    def test_fourteen_fixes_per_second(self):
        world = noiseless_world()
        world.spawn_agent(ground("spot"), (0, 0, 0))
        for _ in range(140):
            world.step(1.0 / 140.0)
        assert world.fix_counts["spot"] == 14

    def test_fix_payloads_decode_to_truth_when_noiseless(self):
        world = noiseless_world()
        world.spawn_agent(ground("spot"), (3.0, -2.0, 0.0))
        node = world.bus.create_node("probe", "sink")
        sub = world.bus.subscribe(node, "/spot/gps/fix")
        for _ in range(20):
            world.step(0.05)
        fix = decode_fix(world.bus.take(sub).payload)
        assert fix.rover_id == "spot"
        est = world.estimated_state("spot")
        assert est is not None
        np.testing.assert_allclose(est[1], [3.0, -2.0, 0.0], atol=1e-6)

    def test_tf_tracks_estimated_pose(self):
        world = noiseless_world()
        world.spawn_agent(ground("spot"), (0.0, 0.0, 0.0))
        world.set_velocity("spot", (1.0, 0.0, 0.0))
        for _ in range(28):
            world.step(0.05)  # 1.4 s
        stamp, est = world.estimated_state("spot")
        out = world.tree.lookup("world", "spot/base", stamp)
        np.testing.assert_allclose(out.translation, est, atol=1e-9)


class TestFollow:
    def converged_world(self):
        world = noiseless_world()
        world.spawn_agent(ground("spot"), (0.0, 0.0, 0.0))
        world.spawn_agent(AgentSpec("operator", "human", 1.5, sensors=GPS),
                          (10.0, 0.0, 0.0))
        for _ in range(10):
            world.step(0.05)  # let fixes arrive
        return world

    def test_zero_velocity_at_goal(self):
        world = noiseless_world()
        world.spawn_agent(ground("spot"), (10.0, 0.0, 0.0))
        world.spawn_agent(AgentSpec("operator", "human", 1.5, sensors=GPS),
                          (10.0, 0.0, 0.0))
        for _ in range(10):
            world.step(0.05)
        cmd = FollowCommand("spot", (10.0, 0.0, 0.0), offset=(0.0, 0.0), standoff=0.1)
        np.testing.assert_array_equal(world.follow_step(cmd, 0.05), np.zeros(3))

    def test_saturates_toward_distant_goal(self):
        world = self.converged_world()
        cmd = FollowCommand("spot", "operator", offset=(0.0, 0.0), standoff=0.5)
        v = world.follow_step(cmd, 0.05)
        assert np.linalg.norm(v) == pytest.approx(1.5, abs=1e-9)
        assert v[0] == pytest.approx(1.5, abs=1e-6)

    def test_unknown_agents_rejected(self):
        world = self.converged_world()
        with pytest.raises(UnknownAgentError):
            world.follow_step(FollowCommand("ghost", "operator"), 0.05)
        with pytest.raises(UnknownAgentError):
            world.follow_step(FollowCommand("spot", "ghost"), 0.05)

    def test_stale_fix_holds_position(self):
        world = self.converged_world()
        cmd = FollowCommand("spot", "operator")
        world.agents["operator"].rover = None  # silence its fixes
        world.agents["spot"].rover = None
        for _ in range(20):
            world.step(0.05)  # 1 s without fixes > 5 periods
        np.testing.assert_array_equal(world.follow_step(cmd, 0.05), np.zeros(3))

    def test_command_is_function_of_fixes_not_truth(self):
        world = self.converged_world()
        cmd = FollowCommand("spot", "operator", offset=(0.0, -1.0))
        before = world.follow_step(cmd, 0.05)
        world.agents["operator"].position = world.agents["operator"].position + 500.0
        world.agents["spot"].position = world.agents["spot"].position - 500.0
        after = world.follow_step(cmd, 0.05)  # no step, no new fixes
        np.testing.assert_array_equal(before, after)

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
            sep = np.linalg.norm(world.agents["spot"].position
                                 - world.agents["operator"].position)
            min_sep[0] = min(min_sep[0], sep)

        run_scenario(sc, on_step=watch)
        assert min_sep[0] >= 1.0 - 1e-6

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
                goal = world.agents["operator"].position + np.array([0.0, -1.0, 0.0])
                errs.append(np.linalg.norm(world.agents["spot"].position - goal))

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
        assert world.time == pytest.approx(2.0, abs=1e-6)
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


@given(moving_agents(), st.sampled_from([5.0, 100.0, 10_000.0]),
       st.floats(1e-3, 1.0), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_world_step_kinematics_match_numpy_reference(agent, bounds, dt, steps):
    spec, position, odom, velocity = agent
    world = World(BASE, bounds_m=bounds)
    start = (0.0, 0.0, spec.altitude_range[0] if spec.altitude_range else 0.0)
    moved = world.spawn_agent(spec, start)
    moved.position = np.array(position)
    moved.velocity = np.array(velocity)
    moved.odom_position = None if odom is None else np.array(odom)
    ref = (np.array(velocity), np.array(position), None if odom is None else np.array(odom))
    for _ in range(steps):
        world.step(dt)
        v, p, o = ref
        ref = _ref_kinematics(spec, bounds, p, o, v, dt)
        assert _bits(moved.velocity, moved.position, moved.odom_position) == _bits(*ref)
        assert moved.position.dtype == np.float64 and moved.position.flags.writeable


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
    return f_pos, list(zip(stamps, positions)), cmd, draw(st.floats(1e-3, 1.0))


@given(follow_cases(), st.sampled_from(["ground", "aerial"]), st.floats(0.1, 6.0))
@settings(max_examples=200, deadline=None)
def test_follow_step_matches_numpy_reference(case, category, max_speed):
    f_pos, hist, cmd, dt = case
    world = World(BASE)
    altitude = (0.0, 50.0) if category == "aerial" else None
    follower = world.spawn_agent(AgentSpec("spot", category, max_speed,
                                           altitude_range=altitude), (0.0, 0.0, 0.0))
    world.spawn_agent(AgentSpec("operator", "human", 1.5), (0.0, 0.0, 0.0))
    follower.odom_position = np.array(f_pos)
    follower.odom_stamp = 0.0
    world._estimates["operator"].extend(hist)  # entries: (stamp, (e, n, u))
    if isinstance(cmd.target, str):
        ref_hist = [(stamp, np.array(pos)) for stamp, pos in hist]
        t_pos, heading = ref_hist[-1][1], _ref_heading(ref_hist)
    else:
        t_pos, heading = np.array(cmd.target, dtype=float), np.array([1.0, 0.0])
    expected = _ref_follow(np.array(f_pos), t_pos, heading, cmd, dt, max_speed)
    assert _bits(world.follow_step(cmd, dt)) == _bits(expected)


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


def test_estimated_state_is_a_copy():
    world = noiseless_world()
    world.spawn_agent(ground("spot"), (3.0, -2.0, 0.0))
    for _ in range(2):
        world.step(0.05)
    stamp, est = world.estimated_state("spot")
    est[0] = 99.0
    assert world.estimated_state("spot")[1][0] != 99.0


def _fleet(seed):
    world = World(BASE, seed=seed)
    world.spawn_agent(AgentSpec("operator", "human", 1.5, sensors=GPS), (0.0, 0.0, 0.0))
    world.spawn_agent(AgentSpec("anafi", "aerial", 4.0, altitude_range=(2.0, 30.0),
                                sensors=GPS), (-2.0, 1.0, 10.0))
    fixes = []
    world.bus.add_publish_hook(lambda msg: fixes.append((msg.topic, msg.stamp, msg.payload)))
    return world, fixes


@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0 / 140.0, 0.01, 0.05, 0.3]))
@settings(max_examples=12, deadline=None)
def test_skipping_idle_rover_steps_changes_no_fix(seed, dt):
    """World steps a rover only when a fix is due or corrections arrived. A
    world whose rovers are also stepped on every other step, as they once
    were, publishes the same fixes and leaves the rovers in the same grade."""
    lean, lean_fixes = _fleet(seed)
    every, every_fixes = _fleet(seed)
    for k in range(round(12.0 / dt)):
        velocity = (math.cos(0.01 * k), math.sin(0.01 * k), 0.5 * math.sin(0.02 * k))
        for world in (lean, every):
            world.set_velocity("operator", velocity)
            world.set_velocity("anafi", velocity)
            world.step(dt)
        for agent in every.agents.values():
            assert agent.rover.step(None, (), every.time) is None
    assert lean_fixes and lean_fixes == every_fixes
    for name in lean.agents:
        # corrections arrived: both climbed the ladder to fixed
        assert lean.agents[name].rover.quality is FixQuality.FIXED
        assert every.agents[name].rover.quality is FixQuality.FIXED
        assert _bits(lean.agents[name].position) == _bits(every.agents[name].position)
