"""Heterogeneous agent layer: agent specs by category, simple kinematics,
and the follow-target behavior, wired over the bus and localized via the
transform tree and the RTK rover model.

Control is estimation-only: follow commands act on the latest published
fixes, never on simulator ground truth.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .bus import Bus, QosProfile, QualifiedName
from .geo import (CorrectionLink, EnuCoord, GeodeticCoord, Rover, RoverConfig,
                  encode_fix, decode_fix, geodetic_to_enu, enu_to_geodetic)
from .tf import Transform, TransformTree
from . import quat

CATEGORIES = ("aerial", "ground", "human")

FOLLOW_GAIN = 4.0          # 1/s, proportional velocity toward the goal
DEAD_BAND_M = 0.25
STALE_FIX_PERIODS = 5.0
HEADING_BASELINE_S = 0.35  # min fix spacing for target heading estimation
HEADING_MIN_MOVE_M = 0.05


class AgentError(Exception):
    pass


class UnknownAgentError(AgentError):
    pass


class DuplicateAgentError(AgentError):
    pass


class SpawnError(AgentError):
    pass


@dataclass(frozen=True)
class SensorSpec:
    name: str
    kind: str = "generic"
    mount: tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class AgentSpec:
    """One agent: its bus namespace, motion envelope, and sensor payload."""

    name: str
    category: str
    max_speed: float
    altitude_range: tuple[float, float] | None = None
    sensors: tuple[SensorSpec, ...] = ()

    def __post_init__(self) -> None:
        QualifiedName(self.name, "driver")  # validates the namespace
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        if self.max_speed <= 0.0:
            raise ValueError("max_speed must be positive")
        if self.category == "aerial":
            if self.altitude_range is None or self.altitude_range[0] >= self.altitude_range[1]:
                raise ValueError("aerial agents need altitude_range = (min, max), min < max")
        object.__setattr__(self, "sensors", tuple(self.sensors))


@dataclass(frozen=True)
class FollowCommand:
    """Keep ``follower`` at ``offset`` (forward, left) in the target's heading
    frame, never closer than ``standoff``."""

    follower: str
    target: str | tuple[float, float, float]
    offset: tuple[float, float] = (0.0, 0.0)
    standoff: float = 0.5

    def __post_init__(self) -> None:
        if self.standoff <= 0.0:
            raise ValueError("standoff must be positive")
        if isinstance(self.target, str) and self.target == self.follower:
            raise ValueError("an agent cannot follow itself")


class Agent:
    def __init__(self, spec: AgentSpec, position: np.ndarray) -> None:
        self.spec = spec
        self.position = position       # ground truth, ENU meters
        self.velocity = np.zeros(3)
        self.rover: Rover | None = None
        self.fix_pub = None
        # controller-side state: last fix dead-reckoned with own commands,
        # never touched by simulator ground truth
        self.odom_position: np.ndarray | None = None
        self.odom_stamp: float | None = None

    @property
    def name(self) -> str:
        return self.spec.name


class World:
    """Single-owner simulation world stepping agents, rovers, and the bus."""

    def __init__(self, base: GeodeticCoord, seed: int = 0,
                 bounds_m: float = 10_000.0,
                 rover_config: RoverConfig | None = None) -> None:
        self.base = base
        self.bus = Bus()
        self.tree = TransformTree()
        self.bounds_m = bounds_m
        self.rover_config = rover_config if rover_config is not None else RoverConfig()
        self._seed_root = np.random.SeedSequence(seed)
        self._link = CorrectionLink(base, seed=self._seed_root.spawn(1)[0])
        self._agents: dict[str, Agent] = {}
        self._display = self.bus.create_node("hmas", "display")
        self._fix_subs: dict[str, object] = {}
        self._estimates: dict[str, deque] = {}  # name -> deque[(stamp, enu np3)]
        self.fix_counts: dict[str, int] = {}
        self._time = 0.0

    @property
    def time(self) -> float:
        return self._time

    @property
    def agents(self) -> dict[str, Agent]:
        return self._agents

    def fix_period(self) -> float:
        return 1.0 / self.rover_config.fix_rate_hz

    # -- population -----------------------------------------------------

    def spawn_agent(self, spec: AgentSpec, start) -> Agent:
        if spec.name in self._agents:
            raise DuplicateAgentError(f"agent {spec.name!r} already exists")
        position = _as_enu_array(start)
        if np.max(np.abs(position[:2])) > self.bounds_m:
            raise SpawnError(f"start {position} outside the {self.bounds_m} m world bounds")
        if spec.category == "aerial":
            lo, hi = spec.altitude_range
            if not lo <= position[2] <= hi:
                raise SpawnError(
                    f"aerial start altitude {position[2]} outside range [{lo}, {hi}]")
        else:
            position[2] = 0.0  # flat terrain
        agent = Agent(spec, position)
        self.bus.create_node(spec.name, "driver")
        for sensor in spec.sensors:
            node = self.bus.create_node(spec.name, sensor.name)
            if sensor.kind == "gnss":
                if agent.rover is None:
                    agent.rover = Rover(spec.name, self.rover_config,
                                        seed=self._seed_root.spawn(1)[0])
                    agent.fix_pub = self.bus.advertise(node, f"{sensor.name}/fix")
                    topic = f"/{spec.name}/{sensor.name}/fix"
                    self._fix_subs[spec.name] = self.bus.subscribe(
                        self._display, topic, QosProfile(history_depth=8))
        self._set_pose_edges(agent, position, self._time)
        self._agents[spec.name] = agent
        self._estimates[spec.name] = deque(maxlen=8)
        self.fix_counts[spec.name] = 0
        return agent

    def _set_pose_edges(self, agent: Agent, position: np.ndarray, stamp: float) -> None:
        base_frame = f"{agent.name}/base"
        self.tree.set_transform(Transform("world", base_frame, position,
                                          quat.IDENTITY.copy(), stamp))
        for sensor in agent.spec.sensors:
            self.tree.set_transform(Transform(base_frame, f"{agent.name}/{sensor.name}",
                                              np.array(sensor.mount, dtype=float),
                                              quat.IDENTITY.copy(), stamp))

    # -- control --------------------------------------------------------

    def set_velocity(self, name: str, velocity) -> None:
        agent = self._require(name)
        agent.velocity = _clamp_speed(np.asarray(velocity, dtype=float).reshape(3),
                                      agent.spec.max_speed)

    def estimated_state(self, name: str) -> tuple[float, np.ndarray] | None:
        """Latest published-fix position (stamp, ENU) for an agent, if any."""
        hist = self._estimates.get(name)
        if not hist:
            return None
        return hist[-1]

    def follow_step(self, cmd: FollowCommand, dt: float) -> np.ndarray:
        """Velocity command steering the follower toward the offset goal.

        Operates on published fixes only (the follower's dead-reckoned from
        its last fix with its own commands); a stale or missing fix on either
        side yields a hold-position (zero) command.
        """
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        follower = self._require(cmd.follower)
        stale_after = STALE_FIX_PERIODS * self.fix_period()
        if (follower.odom_position is None
                or self._time - follower.odom_stamp > stale_after):
            return np.zeros(3)
        f_pos = follower.odom_position
        if isinstance(cmd.target, str):
            self._require(cmd.target)
            t_state = self.estimated_state(cmd.target)
            if t_state is None or self._time - t_state[0] > stale_after:
                return np.zeros(3)
            t_pos = t_state[1]
            heading = self._target_heading(cmd.target)
        else:
            t_pos = _as_enu_array(cmd.target)
            heading = np.array([1.0, 0.0])
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
            velocity = _clamp_speed(FOLLOW_GAIN * error, follower.spec.max_speed)
        velocity = self._enforce_standoff(velocity, f_pos, t_pos, cmd.standoff, dt)
        return _clamp_speed(velocity, follower.spec.max_speed)

    def _target_heading(self, name: str) -> np.ndarray:
        """Unit horizontal heading from the target's fix history (east default)."""
        hist = self._estimates[name]
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

    @staticmethod
    def _enforce_standoff(velocity: np.ndarray, f_pos: np.ndarray,
                          t_pos: np.ndarray, standoff: float, dt: float) -> np.ndarray:
        sep = f_pos - t_pos
        dist = quat.norm(sep)
        if dist < 1e-9:
            return velocity
        radial = sep / dist
        approach = -float(velocity.dot(radial))
        max_approach = (dist - standoff) / dt
        if approach > max_approach:
            velocity = velocity + (approach - max_approach) * radial
        return velocity

    # -- stepping ---------------------------------------------------------

    def step(self, dt: float) -> None:
        """Advance kinematics, rovers, fix publishing, and TF by ``dt``."""
        if not 0.0 < dt <= 1.0:
            raise ValueError(f"dt must be in (0, 1] s, got {dt}")
        now = self._time + dt
        corrections = self._link.poll(now)
        for agent in self._agents.values():
            agent.velocity = _clamp_speed(agent.velocity, agent.spec.max_speed)
            agent.position = agent.position + agent.velocity * dt
            self._clamp_category_point(agent, agent.position)
            if agent.odom_position is not None:
                agent.odom_position = agent.odom_position + agent.velocity * dt
                self._clamp_category_point(agent, agent.odom_position)
            if agent.rover is not None:
                # the rover reads the truth only on a step that emits a fix
                truth = (enu_to_geodetic(EnuCoord(*agent.position), self.base)
                         if agent.rover.fix_due(now) else None)
                fix = agent.rover.step(truth, corrections, now)
                if fix is not None:
                    agent.fix_pub.publish(fix.stamp, encode_fix(fix))
                    self.fix_counts[agent.name] += 1
                    est = geodetic_to_enu(fix.position, self.base)
                    est_pos = np.array([est.east, est.north, est.up])
                    agent.odom_position = est_pos.copy()
                    agent.odom_stamp = fix.stamp
                    self._set_pose_edges(agent, est_pos, fix.stamp)
        self._drain_fixes()
        self._time = now

    def _clamp_category_point(self, agent: Agent, point: np.ndarray) -> None:
        if agent.spec.category == "aerial":
            lo, hi = agent.spec.altitude_range
            point[2] = min(max(point[2], lo), hi)
        else:
            point[2] = 0.0
        bound = self.bounds_m
        point[0] = min(max(point[0], -bound), bound)
        point[1] = min(max(point[1], -bound), bound)

    def _drain_fixes(self) -> None:
        for name, sub in self._fix_subs.items():
            while True:
                msg = self.bus.take(sub)
                if msg is None:
                    break
                fix = decode_fix(msg.payload)
                est = geodetic_to_enu(fix.position, self.base)
                self._estimates[name].append(
                    (fix.stamp, np.array([est.east, est.north, est.up])))

    def _require(self, name: str) -> Agent:
        try:
            return self._agents[name]
        except KeyError:
            raise UnknownAgentError(f"no agent named {name!r}") from None


def _as_enu_array(value) -> np.ndarray:
    if isinstance(value, EnuCoord):
        return np.array([value.east, value.north, value.up])
    return np.asarray(value, dtype=float).reshape(3).copy()


def _clamp_speed(velocity: np.ndarray, max_speed: float) -> np.ndarray:
    speed = quat.norm(velocity)
    if speed > max_speed:
        return velocity * (max_speed / speed)
    return velocity


# -- scenarios -----------------------------------------------------------


@dataclass(frozen=True)
class ScenarioAgent:
    spec: AgentSpec
    start: tuple[float, float, float]
    waypoints: tuple[tuple[float, float, float], ...] = ()
    speed: float = 1.0


@dataclass(frozen=True)
class Scenario:
    base: GeodeticCoord
    seed: int
    duration_s: float
    agents: tuple[ScenarioAgent, ...]
    commands: tuple[FollowCommand, ...]
    noiseless: bool = False


def load_scenario(path) -> Scenario:
    raw = json.loads(Path(path).read_text())
    base = GeodeticCoord(**raw["base"])
    agents = []
    for entry in raw["agents"]:
        sensors = tuple(SensorSpec(s["name"], s.get("kind", "generic"),
                                   tuple(s.get("mount", (0.0, 0.0, 0.0))))
                        for s in entry.get("sensors", ()))
        spec = AgentSpec(entry["name"], entry["category"], entry["max_speed"],
                         tuple(entry["altitude_range"]) if "altitude_range" in entry else None,
                         sensors)
        agents.append(ScenarioAgent(spec, tuple(entry.get("start", (0.0, 0.0, 0.0))),
                                    tuple(tuple(w) for w in entry.get("waypoints", ())),
                                    entry.get("speed", 1.0)))
    commands = tuple(
        FollowCommand(c["follower"],
                      c["target"] if isinstance(c["target"], str) else tuple(c["target"]),
                      tuple(c.get("offset", (0.0, 0.0))), c.get("standoff", 0.5))
        for c in raw.get("commands", ()))
    return Scenario(base, raw.get("seed", 0), float(raw["duration_s"]),
                    tuple(agents), commands, raw.get("noiseless", False))


def run_scenario(scenario: Scenario, dt: float | None = None,
                 on_step: Callable[[World], None] | None = None,
                 on_world: Callable[[World], None] | None = None) -> World:
    """Run a scenario to completion; scripted agents walk their waypoints,
    commanded agents follow. ``on_world`` fires once before any agent spawns
    (e.g. to attach a recorder); returns the finished world."""
    config = RoverConfig.noiseless() if scenario.noiseless else RoverConfig()
    world = World(scenario.base, seed=scenario.seed, rover_config=config)
    if on_world is not None:
        on_world(world)
    if dt is None:
        dt = world.fix_period() / 10.0
    scripts: dict[str, _WaypointScript] = {}
    for entry in scenario.agents:
        world.spawn_agent(entry.spec, entry.start)
        if entry.waypoints:
            scripts[entry.spec.name] = _WaypointScript(entry.waypoints, entry.speed)
    steps = round(scenario.duration_s / dt)
    for _ in range(steps):
        for name, script in scripts.items():
            world.set_velocity(name, script.velocity(world.agents[name].position, dt))
        for cmd in scenario.commands:
            world.set_velocity(cmd.follower, world.follow_step(cmd, dt))
        world.step(dt)
        if on_step is not None:
            on_step(world)
    return world


class _WaypointScript:
    """Drives an agent through waypoints at constant speed (ground truth actor)."""

    def __init__(self, waypoints: Sequence[Sequence[float]], speed: float) -> None:
        if speed <= 0.0:
            raise ValueError("script speed must be positive")
        self._waypoints = [np.asarray(w, dtype=float).reshape(3) for w in waypoints]
        self._speed = speed
        self._index = 0

    def velocity(self, position: np.ndarray, dt: float) -> np.ndarray:
        while self._index < len(self._waypoints):
            to_goal = self._waypoints[self._index] - position
            dist = quat.norm(to_goal)
            if dist > self._speed * dt:
                return to_goal * (self._speed / dist)
            self._index += 1
        return np.zeros(3)
