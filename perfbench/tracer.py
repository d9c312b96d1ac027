"""Span tracer for the traced benchmark run.

The tracer wraps public functions and methods of each ``hmas`` layer from
outside the package and restores the originals afterwards; it edits nothing
in the library. Every wrapped call records one span: name, start, end, parent
span and iteration id, plus one integer the wrapper reads off the call's
result (a hit, a record count, a byte count). Spans are kept in flat arrays in
memory and written out once, when the run ends.

``hmas.bus`` and ``hmas.tf`` guard their state with an ``RLock``. The benchmark
is one process with one thread, so that lock is never contended and no layer
waits; the tracer therefore records busy time only, not wait time.
"""
from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.iteration = array("i")
        self.value = array("q")
        self.error = array("b")
        self._stack: list[int] = []
        self.current_iteration = 0
        self.enabled = True

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording their calls."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, measure=None):
        """``fn`` recording one span per call; ``measure(result)`` gives the
        span's integer value."""
        nid = self._intern(name)
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.iteration.append(self.current_iteration)
            self.end.append(0.0)
            self.value.append(0)
            self.error.append(0)
            stack.append(idx)
            self.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end[idx] = perf()
                self.error[idx] = 1
                stack.pop()
                raise
            self.end[idx] = perf()
            stack.pop()
            if measure is not None:
                self.value[idx] = int(measure(result))
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "iteration": np.frombuffer(self.iteration, dtype=np.int32),
            "value": np.frombuffer(self.value, dtype=np.int64),
            "error": np.frombuffer(self.error, dtype=np.int8),
        }

    def write(self, path: Path) -> None:
        """Write every span to ``path`` (numpy ``.npz``; ``names`` maps
        ``name_id`` to the span name, ``parent`` -1 marks a root span)."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def _targets():
    """(owner, attribute, span name, measure) for every traced call site.

    Functions are patched in every module namespace that imports them, so
    the wrapper is what callers actually look up; methods are patched on
    their class.
    """
    from hmas import agents, bag, bench, bus, geo, tf

    is_hit = lambda result: result is not None  # noqa: E731
    fixed = lambda fix: fix.quality is geo.FixQuality.FIXED  # noqa: E731
    out = []
    for module in (geo, bench, agents):
        out.append((module, "enu_to_geodetic", "geo.enu_to_geodetic", None))
        out.append((module, "encode_fix", "geo.encode_fix", None))
        out.append((module, "decode_fix", "geo.decode_fix", fixed))
    for module in (geo, agents):
        out.append((module, "geodetic_to_enu", "geo.geodetic_to_enu", None))
    for module in (bag, bench):
        out.append((module, "read_bag", "bag.read", len))
    out += [
        (geo.Rover, "step", "geo.rover_step", is_hit),
        (geo.CorrectionLink, "poll", "geo.link_poll", None),
        (bus.Bus, "publish", "bus.publish", None),
        (bus.Bus, "take", "bus.take", is_hit),
        (bus.Bus, "take_with_seq", "bus.take", is_hit),
        (bus.SeededDropInjector, "should_drop", "bus.should_drop", bool),
        (tf.TransformTree, "set_transform", "tf.set_transform", None),
        (tf.TransformTree, "lookup", "tf.lookup", None),
        (agents.World, "step", "agents.world_step", None),
        (agents.World, "follow_step", "agents.follow_step", None),
        (agents, "run_scenario", "agents.run_scenario", None),
        (bag.Recorder, "stop", "bag.recorder_stop", lambda p: Path(p).stat().st_size),
        (bag, "bag_info", "bag.info", None),
        (bag, "replay", "bag.replay", lambda stats: stats.records),
        (bench, "run_experiment", "bench.run_experiment", None),
        (bench, "analyze_bag", "bench.analyze_bag", None),
        (bench, "load_bag_fixes", "bench.load_bag_fixes",
         lambda fixes: sum(len(v) for v in fixes.values())),
        (bench, "side_distances", "bench.side_distances", None),
        (bench, "summarize", "bench.summarize", None),
    ]
    return out


@contextmanager
def installed(tracer: Tracer):
    """Patch every target with a tracing wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, name, measure in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, measure))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


LAYERS = ("bus", "tf", "geo", "agents", "bag", "bench")


class SpanStats:
    """Per-layer metrics over the spans of a set of traced iterations."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self._names = tracer.names
        self._ids = {n: i for i, n in enumerate(tracer.names)}
        self.name_id = a["name_id"]
        self.iteration = a["iteration"]
        self.value = a["value"]
        self.error = a["error"]
        self.parent = a["parent"]
        self.duration = a["end"] - a["start"]
        # self time: the span minus its direct children (which hold theirs)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                            minlength=len(self.duration))
        self.self_time = self.duration - child
        self.parent_name = np.where(has_parent, self.name_id[np.maximum(self.parent, 0)], -1)

    def _mask(self, name: str, iteration: int | None = None,
              parent: str | None = None) -> np.ndarray:
        nid = self._ids.get(name, -2)
        mask = self.name_id == nid
        if iteration is not None:
            mask &= self.iteration == iteration
        if parent is not None:
            mask &= self.parent_name == self._ids.get(parent, -2)
        return mask

    def calls(self, name, iteration=None, parent=None) -> int:
        return int(np.count_nonzero(self._mask(name, iteration, parent)))

    def total_value(self, name, iteration=None, parent=None) -> int:
        return int(self.value[self._mask(name, iteration, parent)].sum())

    def self_s(self, name, iteration=None) -> float:
        return float(self.self_time[self._mask(name, iteration)].sum())

    def inclusive_s(self, name, iteration=None) -> float:
        return float(self.duration[self._mask(name, iteration)].sum())

    def errors(self, name, iteration=None) -> int:
        return int(self.error[self._mask(name, iteration)].sum())

    def root_s(self, iteration: int) -> float:
        """Host seconds of the top-level spans of one iteration."""
        return float(self.duration[(self.iteration == iteration) & (self.parent < 0)].sum())

    def layer_self_s(self, iteration: int) -> dict[str, float]:
        """Self seconds per layer (span-name prefix) in one iteration."""
        out = dict.fromkeys(LAYERS, 0.0)
        in_iter = self.iteration == iteration
        for nid, name in enumerate(self._names):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + float(
                self.self_time[in_iter & (self.name_id == nid)].sum())
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def exact_counts(stats: SpanStats, iteration: int) -> dict[str, float]:
    """The count-like per-layer values of one traced iteration."""
    s, i = stats, iteration
    written = s.total_value("bus.take", i, parent="bag.recorder_stop")
    return {
        "bus.publish.calls": s.calls("bus.publish", i),
        "bus.take.calls": s.calls("bus.take", i),
        "bus.take.hit_ratio": _ratio(s.total_value("bus.take", i), s.calls("bus.take", i)),
        "bus.drop.count": s.total_value("bus.should_drop", i),
        "tf.set_transform.calls": s.calls("tf.set_transform", i),
        "tf.lookup.calls": s.calls("tf.lookup", i),
        "tf.lookup.failed": s.errors("tf.lookup", i),
        "geo.enu_to_geodetic.calls": s.calls("geo.enu_to_geodetic", i),
        "geo.geodetic_to_enu.calls": s.calls("geo.geodetic_to_enu", i),
        "geo.rover_step.calls": s.calls("geo.rover_step", i),
        "geo.decode_fix.calls": s.calls("geo.decode_fix", i),
        "geo.fixed_ratio": _ratio(s.total_value("geo.decode_fix", i),
                                  s.calls("geo.decode_fix", i)),
        "agents.world_step.calls": s.calls("agents.world_step", i),
        "agents.truth_conv_per_fix": _ratio(
            s.calls("geo.enu_to_geodetic", i, parent="agents.world_step"),
            s.calls("bus.publish", i, parent="agents.world_step")),
        "bag.bytes_per_record": _ratio(s.total_value("bag.recorder_stop", i), written),
    }


def layer_metrics(stats: SpanStats) -> dict[str, float]:
    """Every per-layer metric: counts from the first traced iteration, times
    over all traced iterations (``.us`` is self microseconds per call)."""
    s = stats

    def self_us(name: str) -> float:
        return 1e6 * _ratio(s.self_s(name), s.calls(name))

    out = exact_counts(s, 0)
    out.update({
        "bus.publish.us": self_us("bus.publish"),
        "bus.take.us": self_us("bus.take"),
        "bus.drop.ratio": _ratio(s.total_value("bus.should_drop"), s.calls("bus.should_drop")),
        "tf.set_transform.us": self_us("tf.set_transform"),
        "tf.lookup.us": self_us("tf.lookup"),
        "geo.enu_to_geodetic.us": self_us("geo.enu_to_geodetic"),
        "geo.geodetic_to_enu.us": self_us("geo.geodetic_to_enu"),
        "geo.rover_step.us": self_us("geo.rover_step"),
        "geo.link_poll.us": self_us("geo.link_poll"),
        "geo.encode_fix.us": self_us("geo.encode_fix"),
        "geo.decode_fix.us": self_us("geo.decode_fix"),
        "agents.world_step.us": self_us("agents.world_step"),
        "agents.follow_step.us": self_us("agents.follow_step"),
        "bag.read.us_per_record": 1e6 * _ratio(s.self_s("bag.read"), s.total_value("bag.read")),
        "bag.write.us_per_record": 1e6 * _ratio(
            s.self_s("bag.recorder_stop"),
            s.total_value("bus.take", parent="bag.recorder_stop")),
        "bag.replay.us_per_record": 1e6 * _ratio(s.self_s("bag.replay"),
                                                 s.total_value("bag.replay")),
        "bench.run_experiment.s": _ratio(s.inclusive_s("bench.run_experiment"),
                                         s.calls("bench.run_experiment")),
        "bench.load_bag_fixes.us_per_fix": 1e6 * _ratio(s.inclusive_s("bench.load_bag_fixes"),
                                                        s.total_value("bench.load_bag_fixes")),
        "bench.side_distances.s": _ratio(s.inclusive_s("bench.side_distances"),
                                         s.calls("bench.side_distances")),
        "bench.summarize.s": _ratio(s.inclusive_s("bench.summarize"),
                                    s.calls("bench.summarize")),
    })
    return out
