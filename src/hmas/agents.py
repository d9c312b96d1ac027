"""Heterogeneous agent layer: agent specs by category, simple kinematics,
and the follow-target behavior, wired over the bus and localized via the
transform tree and the RTK rover model.

Control is estimation-only: follow commands act on the latest published
fixes, never on simulator ground truth.

Every vector is a ``quat.Vec3`` of Python floats, and every vector that enters
(a spec's, a spawn's, a setter's or ``set_velocity``'s) passes the one rule,
``quat._finite_floats``; ``geo`` takes and returns such tuples. ``run_scenario``'s
own script and follow commands are such tuples, computed from finite state, so
it clamps them to the agent's speed but does not re-check them.
``Agent.position``, ``velocity``, ``odom_position`` and ``World.estimated_state``
return the tuples held. Arithmetic keeps numpy's operation order, norms and the
standoff dot product are fixed-order float sums, and every speed clamp still
runs, since a clamped vector's norm can round above the limit. A target's
heading is cached until its next fix. The world's one clock counts control steps of
``CONTROL_DT_S``, a tenth of the fix period, so ``World.time`` is exactly the
stamp k/14 on every ``STEPS_PER_FIX``-th step and exactly j after j seconds,
when the RTK base sends epoch j. Only on such a fix step is the base polled and
a rover stepped, at that stamp, with what its own correction subscription
holds: a correction moves the grade only at a fix stamp, so taking it at the
next fix changes no bit.
``World(noiseless=True)`` gives every rover no bias and no noise, and
``run_scenario`` runs the control steps up to its duration (one step to 24 h).
``noiseless`` (of a world, a rover or a scenario) passes ``quat._flag``, a
Python bool. An ``AgentSpec`` refuses, when built, a sensor list that
``spawn_agent`` could not build: each entry a ``SensorSpec`` whose name is a
valid bus local name, the names distinct and none ``driver`` or ``base`` (the
agent's own node and frame), so a refused spec leaves no node on the bus;
``spawn_agent`` refuses a node name the bus already holds before it creates any.
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .bus import Bus, InvalidNameError, QosProfile, QualifiedName
from .geo import (CORRECTION_QOS, CORRECTION_TOPIC, DEFAULT_FIX_RATE_HZ, FIX_PERIOD_S,
                  MAX_RUN_S, GeodeticCoord, Rover, encode_fix, decode_fix,
                  geodetic_to_enu, enu_to_geodetic, rtk_base, steps_within, take_corrections)
from .quat import _finite_float, _finite_floats, _flag, _integer
from .tf import TransformTree, _transform
from . import quat

CATEGORIES = ("aerial", "ground", "human")

FOLLOW_GAIN = 4.0          # 1/s, proportional velocity toward the goal
DEAD_BAND_M = 0.25
STALE_FIX_PERIODS = 5.0
HEADING_BASELINE_S = 0.35  # min fix spacing for target heading estimation
HEADING_MIN_MOVE_M = 0.05
STEPS_PER_FIX = 10  # control steps per fix period
CONTROL_DT_S = FIX_PERIOD_S / STEPS_PER_FIX  # World.step's one step


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
        object.__setattr__(self, "mount",
                           _finite_floats(self.mount, 3, f"sensor {self.name!r} mount"))


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
        object.__setattr__(self, "max_speed", _finite_float(self.max_speed, "max_speed"))
        if not self.max_speed > 0.0:
            raise ValueError(f"max_speed must be finite and above 0, got {self.max_speed}")
        object.__setattr__(self, "altitude_range", None if self.altitude_range is None
                           else _finite_floats(self.altitude_range, 2, "altitude_range"))
        if self.category == "aerial":
            if self.altitude_range is None or self.altitude_range[0] >= self.altitude_range[1]:
                raise ValueError("aerial agents need altitude_range = (min, max), min < max")
        object.__setattr__(self, "sensors", tuple(self.sensors))
        names = {s.name for s in self.sensors if isinstance(s, SensorSpec) and type(s.name) is str}
        try:  # spawn_agent makes a bus node of each name
            for name in names:
                QualifiedName(self.name, name)
        except InvalidNameError:
            names = set()
        # every sensor a SensorSpec of its own valid name, none the driver node or base frame
        if len(names - {"driver", "base"}) != len(self.sensors):
            raise ValueError(f"sensors must be SensorSpecs with distinct valid bus local names, "
                             f"none 'driver' or 'base', got {self.sensors!r}")


@dataclass(frozen=True)
class FollowCommand:
    """Keep ``follower`` at ``offset`` (forward, left) in the target's heading
    frame, never closer than ``standoff``. The target is an agent's name or
    a fixed ENU point of 3 finite numbers, stored as floats."""

    follower: str
    target: str | tuple[float, float, float]
    offset: tuple[float, float] = (0.0, 0.0)
    standoff: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "standoff", _finite_float(self.standoff, "standoff"))
        if not self.standoff > 0.0:
            raise ValueError(f"standoff must be finite and above 0, got {self.standoff}")
        object.__setattr__(self, "offset", _finite_floats(self.offset, 2, "offset"))
        if isinstance(self.target, str):
            if self.target == self.follower:
                raise ValueError("an agent cannot follow itself")
        else:
            object.__setattr__(self, "target", _finite_floats(self.target, 3, "a point target"))


def _vector(attr: str, doc: str, optional: bool = False) -> property:
    """An ``Agent`` vector kept as a float tuple in ``attr``, ``_`` + its name: a
    read returns that tuple, an assignment takes any finite 3-vector as floats
    (or None, if ``optional``)."""
    def set_(self, value) -> None:
        setattr(self, attr, None if optional and value is None
                else _finite_floats(value, 3, attr[1:]))
    return property(lambda self: getattr(self, attr), set_, doc=doc)


class Agent:
    position = _vector("_position", "Ground truth, ENU meters.")
    velocity = _vector("_velocity", "Commanded velocity, ENU m/s.")
    odom_position = _vector("_odom_position", "Controller-side state: the last fix "
                            "dead-reckoned with the agent's own commands, never touched "
                            "by ground truth.", optional=True)

    def __init__(self, spec: AgentSpec, position: quat.Vec3) -> None:
        self.spec = spec
        self._position = position  # the 3 floats World.spawn_agent checked
        self._velocity = (0.0, 0.0, 0.0)
        self.rover: Rover | None = None
        self.fix_pub = None
        self.rtk_sub = None
        self._odom_position: quat.Vec3 | None = None
        self.odom_stamp: float | None = None
        # the TF frames World sets on every fix: the base, and each sensor's with its mount
        self._base_frame = f"{spec.name}/base"
        self._sensor_frames = tuple((f"{spec.name}/{s.name}", s.mount) for s in spec.sensors)

    @property
    def name(self) -> str:
        return self.spec.name


class World:
    """Single-owner simulation world stepping agents, rovers, and the bus."""

    def __init__(self, base: GeodeticCoord, seed: int = 0,
                 bounds_m: float = 10_000.0, noiseless: bool = False) -> None:
        self.base = base
        self.bus = Bus()
        self.tree = TransformTree()
        self.bounds_m = _finite_float(bounds_m, "bounds_m")
        if not self.bounds_m > 0.0:
            raise ValueError(f"bounds_m must be finite and above 0, got {bounds_m}")
        self.noiseless = _flag(noiseless, "noiseless")
        self._seed_root = np.random.SeedSequence(_integer(seed, "seed", 0))
        self._seed_root.spawn(1)  # the old correction link's seed: rover seeds stay put
        self._link = rtk_base(self.bus)
        self._agents: dict[str, Agent] = {}
        self._display = self.bus.create_node("hmas", "display")
        self._fix_subs: dict[str, object] = {}
        self._estimates: dict[str, deque] = {}  # name -> deque[(stamp, (e, n, u))]
        self._headings: dict[str, tuple[float, float]] = {}  # name -> heading of its estimates
        self.fix_counts: dict[str, int] = {}
        self._steps = 0  # the world's one clock, in control steps

    @property
    def time(self) -> float:
        """The step count over the control rate: a correctly rounded quotient."""
        return self._steps / (DEFAULT_FIX_RATE_HZ * STEPS_PER_FIX)

    @property
    def agents(self) -> dict[str, Agent]:
        return self._agents

    # -- population -----------------------------------------------------

    def spawn_agent(self, spec: AgentSpec, start) -> Agent:
        if spec.name in self._agents:
            raise DuplicateAgentError(f"agent {spec.name!r} already exists")
        x, y, z = position = _finite_floats(start, 3, "start", SpawnError)
        if max(abs(x), abs(y)) > self.bounds_m:
            raise SpawnError(f"start {position} outside the {self.bounds_m} m world bounds")
        if spec.category == "aerial":
            lo, hi = spec.altitude_range
            if not lo <= z <= hi:
                raise SpawnError(f"aerial start altitude {z} outside range [{lo}, {hi}]")
        else:
            position = x, y, 0.0  # flat terrain
        taken = self.bus.discover().nodes  # the world's own, such as /hmas/rtk_base
        for local in ("driver", *(sensor.name for sensor in spec.sensors)):
            if (full := f"/{spec.name}/{local}") in taken:
                raise SpawnError(f"node {full} already exists")
        agent = Agent(spec, position)
        self.bus.create_node(spec.name, "driver")
        for sensor in spec.sensors:
            node = self.bus.create_node(spec.name, sensor.name)
            if sensor.kind == "gnss":
                if agent.rover is None:
                    agent.rover = Rover(spec.name, self._seed_root.spawn(1)[0],
                                        noiseless=self.noiseless)
                    agent.fix_pub = self.bus.advertise(node, f"{sensor.name}/fix")
                    agent.rtk_sub = self.bus.subscribe(node, CORRECTION_TOPIC.full, CORRECTION_QOS)
                    topic = f"/{spec.name}/{sensor.name}/fix"
                    self._fix_subs[spec.name] = self.bus.subscribe(
                        self._display, topic, QosProfile(history_depth=8))
        self._set_pose_edges(agent, position, self.time)
        self._agents[spec.name] = agent
        self._estimates[spec.name] = deque(maxlen=8)
        self.fix_counts[spec.name] = 0
        return agent

    def _set_pose_edges(self, agent: Agent, position, stamp: float) -> None:
        base_frame = agent._base_frame
        self.tree.set_transform(_transform("world", base_frame, position, quat.IDENTITY, stamp))
        for frame, mount in agent._sensor_frames:
            self.tree.set_transform(_transform(base_frame, frame, mount, quat.IDENTITY, stamp))

    # -- control --------------------------------------------------------

    def set_velocity(self, name: str, velocity) -> None:
        agent = self._require(name)
        agent._velocity = _clamp_speed(_finite_floats(velocity, 3, "velocity"),
                                       agent.spec.max_speed)

    def estimated_state(self, name: str) -> tuple[float, quat.Vec3] | None:
        """Latest published-fix position (stamp, ENU floats) for an agent, if any."""
        hist = self._estimates.get(name)
        return hist[-1] if hist else None

    def follow_step(self, cmd: FollowCommand) -> quat.Vec3:
        """Velocity command (3 floats) steering the follower toward the offset goal.

        Operates on published fixes only (the follower's dead-reckoned from
        its last fix with its own commands); a stale or missing fix on either
        side yields a hold-position (zero) command.
        """
        follower = self._require(cmd.follower)
        now = self.time
        stale_after = STALE_FIX_PERIODS * FIX_PERIOD_S
        if follower._odom_position is None or now - follower.odom_stamp > stale_after:
            return 0.0, 0.0, 0.0
        fx, fy, fz = follower._odom_position
        if isinstance(cmd.target, str):
            self._require(cmd.target)
            hist = self._estimates[cmd.target]
            if not hist or now - hist[-1][0] > stale_after:
                return 0.0, 0.0, 0.0
            tx, ty, tz = hist[-1][1]
            hx, hy = self._target_heading(cmd.target)
        else:
            tx, ty, tz = cmd.target
            hx, hy = 1.0, 0.0
        forward, left = cmd.offset
        # t_pos + offset - f_pos, with the offset's up component 0.0
        ex = tx + (forward * hx - left * hy) - fx
        ey = ty + (forward * hy + left * hx) - fy
        ez = tz + 0.0 - fz
        # norms here and below are quat.norm's left-to-right sum, written out
        if math.sqrt(ex * ex + ey * ey + ez * ez) < DEAD_BAND_M:
            velocity = (0.0, 0.0, 0.0)
        else:
            velocity = _clamp_speed((FOLLOW_GAIN * ex, FOLLOW_GAIN * ey, FOLLOW_GAIN * ez),
                                    follower.spec.max_speed)
        velocity = self._enforce_standoff(velocity, fx - tx, fy - ty, fz - tz, cmd.standoff)
        return _clamp_speed(velocity, follower.spec.max_speed)

    def _target_heading(self, name: str) -> tuple[float, float]:
        """Unit horizontal heading from the target's fix history (east
        default), cached until ``_drain_fixes`` adds to that history."""
        heading = self._headings.get(name)
        if heading is not None:
            return heading
        heading = 1.0, 0.0
        hist = self._estimates[name]
        if len(hist) >= 2:
            latest_stamp, (lx, ly, _) = hist[-1]
            for stamp, (px, py, _) in hist:
                if latest_stamp - stamp >= HEADING_BASELINE_S:
                    mx, my = lx - px, ly - py
                    norm = quat.norm((mx, my))
                    if norm >= HEADING_MIN_MOVE_M:
                        heading = mx / norm, my / norm
                    break
        self._headings[name] = heading
        return heading

    @staticmethod
    def _enforce_standoff(velocity: quat.Vec3, sx: float, sy: float, sz: float,
                          standoff: float) -> quat.Vec3:
        """``velocity`` with its approach along (sx, sy, sz) (follower minus
        target) cut so the next control step ends no closer than ``standoff``."""
        dist = math.sqrt(sx * sx + sy * sy + sz * sz)
        if dist < 1e-9:
            return velocity
        rx, ry, rz = sx / dist, sy / dist, sz / dist
        vx, vy, vz = velocity
        approach = -(vx * rx + vy * ry + vz * rz)
        max_approach = (dist - standoff) / CONTROL_DT_S
        if approach > max_approach:
            cut = approach - max_approach
            velocity = vx + cut * rx, vy + cut * ry, vz + cut * rz
        return velocity

    # -- stepping ---------------------------------------------------------

    def step(self) -> None:
        """Advance kinematics, rovers, fix publishing, and TF by ``CONTROL_DT_S``."""
        self._steps += 1
        now = self.time
        fix_step = self._steps % STEPS_PER_FIX == 0
        if fix_step:  # an epoch falls on a whole second, which is a fix step
            self._link.poll(now)
        for agent in self._agents.values():
            vx, vy, vz = agent._velocity = _clamp_speed(agent._velocity, agent.spec.max_speed)
            dx, dy, dz = vx * CONTROL_DT_S, vy * CONTROL_DT_S, vz * CONTROL_DT_S
            px, py, pz = agent._position
            px, py, pz = agent._position = self._clamp_point(agent, px + dx, py + dy, pz + dz)
            if agent._odom_position is not None:
                ox, oy, oz = agent._odom_position
                agent._odom_position = self._clamp_point(agent, ox + dx, oy + dy, oz + dz)
            rover = agent.rover
            if rover is None or not fix_step:
                continue
            # the rover reads the truth only on a fix step
            truth = enu_to_geodetic((px, py, pz), self.base)
            fix = rover.step(truth, take_corrections(self.bus, agent.rtk_sub), now)
            agent.fix_pub.publish(fix.stamp, encode_fix(fix))
            self.fix_counts[agent.name] += 1
            est_pos = agent._odom_position = geodetic_to_enu(fix.position, self.base)
            agent.odom_stamp = fix.stamp
            self._set_pose_edges(agent, est_pos, fix.stamp)
        if fix_step:  # a fix topic's one publisher, its sensor node, sends only on fix steps
            self._drain_fixes()

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
                self._estimates[name].append((fix.stamp, geodetic_to_enu(fix.position, self.base)))
                self._headings.pop(name, None)

    def _require(self, name: str) -> Agent:
        try:
            return self._agents[name]
        except KeyError:
            raise UnknownAgentError(f"no agent named {name!r}") from None


def _clamp_speed(velocity: quat.Vec3, max_speed: float) -> quat.Vec3:
    """``velocity`` scaled down to ``max_speed`` if it is faster; the norm is
    ``quat.norm``'s left-to-right sum, written out."""
    x, y, z = velocity
    speed = math.sqrt(x * x + y * y + z * z)
    if speed > max_speed:
        scale = max_speed / speed
        return x * scale, y * scale, z * scale
    return velocity


# -- scenarios -----------------------------------------------------------


@dataclass(frozen=True)
class ScenarioAgent:
    spec: AgentSpec
    start: tuple[float, float, float]
    waypoints: tuple[tuple[float, float, float], ...] = ()
    speed: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "speed", _finite_float(self.speed, "script speed"))
        if not self.speed > 0.0:
            raise ValueError(f"script speed must be finite and above 0, got {self.speed}")
        name = self.spec.name
        object.__setattr__(self, "start", _finite_floats(self.start, 3, f"start of {name!r}"))
        object.__setattr__(self, "waypoints", tuple(
            _finite_floats(w, 3, f"each waypoint of {name!r}") for w in self.waypoints))


@dataclass(frozen=True)
class Scenario:
    base: GeodeticCoord
    seed: int
    duration_s: float
    agents: tuple[ScenarioAgent, ...]
    commands: tuple[FollowCommand, ...]
    noiseless: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "duration_s", _finite_float(self.duration_s, "duration_s"))
        if not CONTROL_DT_S <= self.duration_s <= MAX_RUN_S:
            raise ValueError(f"duration_s must be finite and within [{CONTROL_DT_S:.6g}, "
                             f"{MAX_RUN_S:g}] s (one control step to 24 h), "
                             f"got {self.duration_s}")
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))
        _flag(self.noiseless, "noiseless")


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
        agents.append(ScenarioAgent(spec, entry.get("start", (0.0, 0.0, 0.0)),
                                    tuple(entry.get("waypoints", ())), entry.get("speed", 1.0)))
    commands = tuple(
        FollowCommand(c["follower"], c["target"], c.get("offset", (0.0, 0.0)),
                      c.get("standoff", 0.5))
        for c in raw.get("commands", ()))
    return Scenario(base, raw.get("seed", 0), raw["duration_s"],
                    tuple(agents), commands, raw.get("noiseless", False))


def run_scenario(scenario: Scenario, on_step: Callable[[World], None] | None = None,
                 on_world: Callable[[World], None] | None = None) -> World:
    """Run a scenario's control steps up to its duration; scripted agents walk
    their waypoints, commanded agents follow.
    ``on_world`` fires once before any agent spawns (e.g. to attach a
    recorder); returns the finished world.

    Its own commands are float tuples that ``_WaypointScript.velocity`` and
    ``World.follow_step`` compute from finite state, so they are clamped to
    the agent's speed as ``set_velocity`` clamps them, but not re-checked."""
    world = World(scenario.base, seed=scenario.seed, noiseless=scenario.noiseless)
    if on_world is not None:
        on_world(world)
    scripts: list[tuple[Agent, _WaypointScript]] = []
    for entry in scenario.agents:
        agent = world.spawn_agent(entry.spec, entry.start)
        if entry.waypoints:
            scripts.append((agent, _WaypointScript(entry.waypoints, entry.speed)))
    agents = world.agents
    steps = steps_within(scenario.duration_s, DEFAULT_FIX_RATE_HZ * STEPS_PER_FIX)
    for _ in range(steps):
        for agent, script in scripts:
            agent._velocity = _clamp_speed(script.velocity(agent._position),
                                           agent.spec.max_speed)
        for cmd in scenario.commands:
            velocity = world.follow_step(cmd)  # checks that the follower exists
            follower = agents[cmd.follower]
            follower._velocity = _clamp_speed(velocity, follower.spec.max_speed)
        world.step()
        if on_step is not None:
            on_step(world)
    return world


class _WaypointScript:
    """Drives an agent through waypoints at constant speed (ground truth actor)."""

    def __init__(self, waypoints: Sequence[quat.Vec3], speed: float) -> None:
        self._waypoints = waypoints
        self._speed = speed
        self._index = 0

    def velocity(self, position: quat.Vec3) -> quat.Vec3:
        px, py, pz = position
        while self._index < len(self._waypoints):
            wx, wy, wz = self._waypoints[self._index]
            gx, gy, gz = wx - px, wy - py, wz - pz
            dist = math.sqrt(gx * gx + gy * gy + gz * gz)  # quat.norm, written out
            if dist > self._speed * CONTROL_DT_S:
                scale = self._speed / dist
                return gx * scale, gy * scale, gz * scale
            self._index += 1
        return 0.0, 0.0, 0.0
