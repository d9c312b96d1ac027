"""Heterogeneous agent layer: agent specs by category, simple kinematics,
and the follow-target behavior, wired over the bus and localized via the
transform tree and the RTK rover model.

Control is estimation-only: follow commands act on the latest published
fixes, never on simulator ground truth.

The step path runs on Python floats: ``World.step`` moves each agent and its
odometry from one ``tolist()`` of each vector, in numpy's operation order,
and stores fresh arrays back, so ``Agent.position``, ``velocity`` and
``odom_position`` stay assignable arrays. Norms and the standoff dot product
are fixed-order float sums (``quat.norm``, ``quat.inner``), the package's one
rule for reductions. A rover is stepped only when a fix is due or corrections
arrived; on any other step ``Rover.step`` would do nothing but check its clock.
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .bus import Bus, QosProfile, QualifiedName
from .geo import (CorrectionLink, EnuCoord, GeodeticCoord, Rover, RoverConfig,
                  encode_fix, decode_fix, geodetic_to_enu, enu_to_geodetic)
from .tf import TransformTree, _transform
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

    def __post_init__(self) -> None:
        try:
            mount = tuple(map(float, self.mount))
        except (TypeError, ValueError):
            mount = ()
        if len(mount) != 3 or not all(map(math.isfinite, mount)):
            raise ValueError(f"sensor {self.name!r} mount must be 3 finite numbers, "
                             f"got {self.mount!r}")
        object.__setattr__(self, "mount", mount)


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
        self._estimates: dict[str, deque] = {}  # name -> deque[(stamp, (e, n, u))]
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
        if not all(map(math.isfinite, position.tolist())):
            raise SpawnError(f"start {position} is not finite")
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

    def _set_pose_edges(self, agent: Agent, position, stamp: float) -> None:
        base_frame = f"{agent.name}/base"
        self.tree.set_transform(_transform("world", base_frame, position, _IDENTITY, stamp))
        for sensor in agent.spec.sensors:
            self.tree.set_transform(_transform(base_frame, f"{agent.name}/{sensor.name}",
                                               sensor.mount, _IDENTITY, stamp))

    # -- control --------------------------------------------------------

    def set_velocity(self, name: str, velocity) -> None:
        agent = self._require(name)
        agent.velocity = _clamp_speed(np.array(velocity, dtype=float).reshape(3),
                                      agent.spec.max_speed)

    def estimated_state(self, name: str) -> tuple[float, np.ndarray] | None:
        """Latest published-fix position (stamp, ENU array) for an agent, if
        any; the array is a fresh copy."""
        hist = self._estimates.get(name)
        if not hist:
            return None
        stamp, position = hist[-1]
        return stamp, np.array(position)

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
        fx, fy, fz = follower.odom_position.tolist()
        if isinstance(cmd.target, str):
            self._require(cmd.target)
            hist = self._estimates[cmd.target]
            if not hist or self._time - hist[-1][0] > stale_after:
                return np.zeros(3)
            tx, ty, tz = hist[-1][1]
            hx, hy = self._target_heading(cmd.target)
        else:
            tx, ty, tz = _as_enu_array(cmd.target).tolist()
            hx, hy = 1.0, 0.0
        forward, left = cmd.offset
        # t_pos + offset - f_pos, with the offset's up component 0.0
        error = (tx + (forward * hx - left * hy) - fx,
                 ty + (forward * hy + left * hx) - fy,
                 tz + 0.0 - fz)
        if quat.norm(error) < DEAD_BAND_M:
            velocity = np.zeros(3)
        else:
            velocity = _clamp_speed(FOLLOW_GAIN * np.array(error), follower.spec.max_speed)
        sep = (fx - tx, fy - ty, fz - tz)
        velocity = self._enforce_standoff(velocity, sep, cmd.standoff, dt)
        return _clamp_speed(velocity, follower.spec.max_speed)

    def _target_heading(self, name: str) -> tuple[float, float]:
        """Unit horizontal heading from the target's fix history (east default)."""
        hist = self._estimates[name]
        if len(hist) >= 2:
            latest_stamp, (lx, ly, _) = hist[-1]
            for stamp, (px, py, _) in hist:
                if latest_stamp - stamp >= HEADING_BASELINE_S:
                    mx, my = lx - px, ly - py
                    norm = quat.norm((mx, my))
                    if norm >= HEADING_MIN_MOVE_M:
                        return mx / norm, my / norm
                    break
        return 1.0, 0.0

    @staticmethod
    def _enforce_standoff(velocity: np.ndarray, sep: quat.Vec3,
                          standoff: float, dt: float) -> np.ndarray:
        """``velocity`` with its approach along ``sep`` (follower minus
        target) cut so the next ``dt`` ends no closer than ``standoff``."""
        dist = quat.norm(sep)
        if dist < 1e-9:
            return velocity
        radial = np.array(sep) / dist
        approach = -quat.inner(velocity.tolist(), radial.tolist())
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
            velocity = agent.velocity = _clamp_speed(agent.velocity, agent.spec.max_speed)
            vx, vy, vz = velocity.tolist()
            dx, dy, dz = vx * dt, vy * dt, vz * dt
            px, py, pz = agent.position.tolist()
            px, py, pz = self._clamp_point(agent, px + dx, py + dy, pz + dz)
            agent.position = np.array((px, py, pz))
            if agent.odom_position is not None:
                ox, oy, oz = agent.odom_position.tolist()
                agent.odom_position = np.array(self._clamp_point(agent, ox + dx, oy + dy, oz + dz))
            rover = agent.rover
            if rover is None:
                continue
            if rover.fix_due(now):
                # the rover reads the truth only on a step that emits a fix
                truth = enu_to_geodetic(EnuCoord(px, py, pz), self.base)
                fix = rover.step(truth, corrections, now)
                agent.fix_pub.publish(fix.stamp, encode_fix(fix))
                self.fix_counts[agent.name] += 1
                est = geodetic_to_enu(fix.position, self.base)
                est_pos = (est.east, est.north, est.up)
                agent.odom_position = np.array(est_pos)
                agent.odom_stamp = fix.stamp
                self._set_pose_edges(agent, est_pos, fix.stamp)
            elif corrections:
                rover.step(None, corrections, now)  # ingests them; no fix is due
        self._drain_fixes()
        self._time = now

    def _clamp_point(self, agent: Agent, x: float, y: float, z: float
                     ) -> tuple[float, float, float]:
        """(x, y, z) held inside the world bounds and the category's altitude.

        ``min(max(v, lo), hi)`` returns ``v`` itself when ``lo <= v <= hi``,
        so it runs only for a coordinate outside its range (or NaN).
        """
        if agent.spec.category == "aerial":
            lo, hi = agent.spec.altitude_range
            if not lo <= z <= hi:
                z = min(max(z, lo), hi)
        else:
            z = 0.0
        bound = self.bounds_m
        if not -bound <= x <= bound:
            x = min(max(x, -bound), bound)
        if not -bound <= y <= bound:
            y = min(max(y, -bound), bound)
        return x, y, z

    def _drain_fixes(self) -> None:
        for name, sub in self._fix_subs.items():
            while True:
                msg = self.bus.take(sub)
                if msg is None:
                    break
                fix = decode_fix(msg.payload)
                est = geodetic_to_enu(fix.position, self.base)
                self._estimates[name].append((fix.stamp, (est.east, est.north, est.up)))

    def _require(self, name: str) -> Agent:
        try:
            return self._agents[name]
        except KeyError:
            raise UnknownAgentError(f"no agent named {name!r}") from None


def _as_enu_array(value) -> np.ndarray:
    if isinstance(value, EnuCoord):
        return np.array([value.east, value.north, value.up])
    return np.asarray(value, dtype=float).reshape(3).copy()


_IDENTITY = (1.0, 0.0, 0.0, 0.0)


def _clamp_speed(velocity: np.ndarray, max_speed: float) -> np.ndarray:
    speed = quat.norm(velocity.tolist())
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
                                   s.get("mount", (0.0, 0.0, 0.0)))
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
            dist = quat.norm(to_goal.tolist())
            if dist > self._speed * dt:
                return to_goal * (self._speed / dist)
            self._index += 1
        return np.zeros(3)
