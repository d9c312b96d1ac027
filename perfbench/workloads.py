"""The benchmark's three workloads, driven through the public API of
``hmas.bench``, ``hmas.agents`` and ``hmas.bag``.

Each workload is closed-loop and single-threaded: the next step starts as
soon as the previous one finishes. ``setup()`` builds the inputs from the
workload seed (and may be called more than once; the last call wins);
``iterate()`` runs one iteration, times its stages, and records output checks.
Stage times are scaled to nominal machine speed by the reference runs around
them (see calibration.py); ``scale`` is that factor, for information. Calls
made only to check outputs run with the tracer paused and outside the timed
stages, so they count neither in the stage times nor in the per-layer spans.
"""
from __future__ import annotations

import dataclasses
import hashlib
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from hmas import agents, bag, bench, bus, tf
from hmas.agents import AgentSpec, FollowCommand, Scenario, ScenarioAgent, SensorSpec
from hmas.geo import DEFAULT_FIX_RATE_HZ as FIX_RATE_HZ

from calibration import Bracket


class Checks:
    """Output checks: a failed check is counted and reported, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _median(values) -> float:
    return float(statistics.median(values))


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.digests: dict[str, str] = {}  # first iteration's output digests

    def _same_digest(self, checks: Checks, key: str, digest: str) -> None:
        """First call records ``digest``; later calls check it repeats."""
        if key in self.digests:
            checks.check(digest == self.digests[key], f"{key} digest changed between iterations")
        else:
            self.digests[key] = digest

    def _pause(self, tracer):
        return tracer.paused() if tracer is not None else nullcontext()


class Board4(Workload):
    """The paper's four board experiments on one seed, each bag analysed."""

    name = "board4"
    KINDS = (("static", 300.0), ("static_disturbed", 300.0),
             ("rotation", 60.0), ("translation_square", None))
    ROTATION_CONVERGENCE_S = 5.0

    def setup(self) -> None:
        self.specs = [bench.make_spec(kind, self.seed,
                                      **({} if duration is None else {"duration_s": duration}))
                      for kind, duration in self.KINDS]
        warm = bench.run_experiment(bench.static_spec(self.seed, duration_s=5.0),
                                    self.workdir / "warmup.bag")
        bench.analyze_bag(warm, convergence_s=1.0)

    def iterate(self, checks: Checks, tracer=None) -> dict:
        run_s = analyze_s = 0.0
        done = []
        perf = time.perf_counter
        bracket = Bracket()
        for spec in self.specs:
            path = self.workdir / f"{spec.kind}.bag"
            convergence = (self.ROTATION_CONVERGENCE_S if spec.kind == "rotation"
                           else bench.CONVERGENCE_S)
            t0 = perf()
            bench.run_experiment(spec, path)
            run_s += bracket.scaled(perf() - t0)
            t0 = perf()
            _, report = bench.analyze_bag(path, spec.base, spec.side_m,
                                          bench.side_windows(spec), convergence)
            analyze_s += bracket.scaled(perf() - t0)
            done.append((spec, path, report))
        with self._pause(tracer):
            fixes = sum(self._check(checks, *item) for item in done)
        sim_s = sum(spec.duration_s for spec in self.specs)
        return {"busy_s": run_s + analyze_s, "run_s": run_s, "analyze_s": analyze_s,
                "fixes": fixes, "sim_s": sim_s, "bags": len(self.specs),
                "scale": _median(bracket.scales)}

    def _check(self, checks: Checks, spec, path: Path, report) -> int:
        kind = spec.kind
        info = bag.bag_info(path)
        expected = spec.duration_s * FIX_RATE_HZ
        for corner in bench.CORNERS:
            n = info.topics.get(f"/{corner}/gps/fix", 0)
            checks.check(abs(n - expected) <= 1,
                         f"{kind}: {corner} logged {n} fixes, expected {expected:.1f} +- 1")
        if kind == "rotation":
            for side, target in (("top", 1.4), ("right", 1.5)):
                peak = max((p.magnitude_m for p in report.sides[side].peaks), default=0.0)
                checks.check(abs(peak - target) <= 0.2,
                             f"rotation: {side} peak {peak:.3f} m not within 0.2 m of {target}")
        else:
            checks.check(report.within_20cm, f"{kind}: within_20cm verdict failed")
        if kind == "static":
            checks.check(report.stable, "static: stability verdict failed")
        report_csv = self.workdir / f"{kind}.report.csv"
        bench.emit_csv(report, report_csv)
        self._same_digest(checks, f"{kind} bag", sha256(path))
        self._same_digest(checks, f"{kind} report", sha256(report_csv))
        return info.record_count

    def end_to_end(self, samples: list[dict]) -> dict:
        return {
            "produce_us_per_msg": (_median(1e6 * s["run_s"] / s["fixes"] for s in samples),
                                   "us", len(samples)),
            "consume_us_per_msg": (_median(1e6 * s["analyze_s"] / s["fixes"] for s in samples),
                                   "us", len(samples)),
        }

    def details(self, samples: list[dict]) -> dict:
        return {
            "host_s_per_sim_s": (_median(s["run_s"] / s["sim_s"] for s in samples),
                                 "s/s", len(samples)),
            "analyze_s": (_median(s["analyze_s"] / s["bags"] for s in samples),
                          "s", len(samples)),
        }


class FleetFollow(Workload):
    """Two teams of operator, ground follower and aerial follower, with lossy
    fix delivery and a TF consumer reading every agent's antenna frame."""

    name = "fleet_follow"
    DURATION_S = 30.0
    DROP_RATE = 0.05
    WINDOW_CYCLES = 700  # 5 simulated seconds between reference runs
    BASE = bench.DEFAULT_BASE
    GNSS = (SensorSpec("gps", "gnss", (0.0, 0.0, 0.3)),)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        members, commands = [], []
        for team, y0 in (("a", 0.0), ("b", 30.0)):
            walk = rng.uniform(-12.0, 12.0, size=(4, 2)) + (0.0, y0)
            operator = ScenarioAgent(
                AgentSpec(f"operator_{team}", "human", 1.5, sensors=self.GNSS),
                (0.0, y0, 0.0), tuple((float(x), float(y), 0.0) for x, y in walk), 1.0)
            ground = ScenarioAgent(
                AgentSpec(f"ground_{team}", "ground", 2.0, sensors=self.GNSS),
                (-2.0, y0 - 1.0, 0.0))
            aerial = ScenarioAgent(
                AgentSpec(f"aerial_{team}", "aerial", 3.0, altitude_range=(2.0, 30.0),
                          sensors=self.GNSS),
                (-2.0, y0 + 1.0, 10.0))
            members += [operator, ground, aerial]
            commands += [FollowCommand(ground.spec.name, operator.spec.name, offset=(0.0, -1.0)),
                         FollowCommand(aerial.spec.name, operator.spec.name,
                                       offset=(-2.0, 0.0), standoff=1.0)]
        self.scenario = Scenario(self.BASE, self.seed, self.DURATION_S,
                                 tuple(members), tuple(commands))
        agents.run_scenario(dataclasses.replace(self.scenario, duration_s=1.0))

    def iterate(self, checks: Checks, tracer=None) -> dict:
        perf = time.perf_counter
        half_period = 0.5 / FIX_RATE_HZ
        late_failures = []
        # per cycle: host seconds, and the TF consumer's share of them
        window: list[tuple[float, float]] = []
        out = {"cycles_s": [], "produce_s": 0.0, "consume_s": 0.0}
        prev = {"start": None, "consumer_s": 0.0}

        def install_injector(world) -> None:
            world.bus.set_fault_injector(bus.SeededDropInjector(self.DROP_RATE, self.seed))

        def tf_consumer(world) -> None:
            # t sits half a fix period before each agent's latest fix, so the
            # lookup interpolates between its last two TF samples
            for name, agent in world.agents.items():
                latest = agent.odom_stamp if agent.odom_stamp is not None else 0.0
                try:
                    world.tree.lookup("world", f"{name}/gps", latest - half_period)
                except tf.TfError:
                    if world.time > 1.0:
                        late_failures.append((world.time, name))

        consume = tracer.wrap("workload.tf_consumer", tf_consumer) if tracer else tf_consumer

        def close_window() -> None:
            scale = bracket.close()
            cycles = np.array(window)
            out["cycles_s"].append(cycles[:, 0] * scale)
            out["produce_s"] += float(cycles[:, 0].sum() - cycles[:, 1].sum()) * scale
            out["consume_s"] += float(cycles[:, 1].sum()) * scale
            window.clear()

        def on_step(world) -> None:
            # a cycle runs from the start of one TF consumer pass to the next
            # on_step, so it covers the consumer, scripts, follow_step and
            # World.step; reference runs fall outside every cycle
            now = perf()
            if prev["start"] is not None:
                window.append((now - prev["start"], prev["consumer_s"]))
            if len(window) == self.WINDOW_CYCLES:
                close_window()
            start = perf()
            consume(world)
            prev["start"], prev["consumer_s"] = start, perf() - start

        bracket = Bracket()
        world = agents.run_scenario(self.scenario, on_step=on_step, on_world=install_injector)
        close_window()

        expected = round(self.DURATION_S * FIX_RATE_HZ)
        for name, count in world.fix_counts.items():
            checks.check(count == expected, f"{name} published {count} fixes, expected {expected}")
        checks.check(not late_failures,
                     f"{len(late_failures)} TF lookups failed after the first simulated "
                     f"second, first {late_failures[:1]}")
        state = np.array([world.agents[n].position for n in sorted(world.agents)])
        self._same_digest(checks, "final positions", hashlib.sha256(state.tobytes()).hexdigest())
        cycles_s = np.concatenate(out["cycles_s"])
        return {"busy_s": float(cycles_s.sum()), "produce_s": out["produce_s"],
                "consume_s": out["consume_s"], "lookups": len(cycles_s) * len(world.agents),
                "fixes": sum(world.fix_counts.values()),
                "agent_s": self.DURATION_S * len(world.agents),
                "cycles_us": 1e6 * cycles_s, "scale": _median(bracket.scales)}

    def end_to_end(self, samples: list[dict]) -> dict:
        return {
            "produce_us_per_msg": (_median(1e6 * s["produce_s"] / s["fixes"] for s in samples),
                                   "us", len(samples)),
            "consume_us_per_msg": (_median(1e6 * s["consume_s"] / s["lookups"] for s in samples),
                                   "us", len(samples)),
        }

    def details(self, samples: list[dict]) -> dict:
        cycles = np.concatenate([s["cycles_us"] for s in samples])
        return {
            "host_s_per_agent_s": (_median(s["busy_s"] / s["agent_s"] for s in samples),
                                   "s/s", len(samples)),
            "cycle_us_p50": (float(np.percentile(cycles, 50)), "us", len(cycles)),
            "cycle_us_p99": (float(np.percentile(cycles, 99)), "us", len(cycles)),
        }


class BagReplay(Workload):
    """Inspect, replay-and-re-record, and analyse one long static bag."""

    name = "bag_replay"
    SOURCE_S = 900.0  # 50,400 records

    def setup(self) -> None:
        spec = bench.static_spec(self.seed, duration_s=self.SOURCE_S)
        self.source = bench.run_experiment(spec, self.workdir / "source.bag")
        self.digests["source bag"] = sha256(self.source)
        warm = bench.run_experiment(bench.static_spec(self.seed, duration_s=5.0),
                                    self.workdir / "warmup.bag")
        self._rerecord(warm, self.workdir / "warmup_copy.bag")
        bench.analyze_bag(warm, convergence_s=1.0)

    @staticmethod
    def _rerecord(source: Path, out: Path) -> None:
        """The path behind ``hmas bag record --source``."""
        live = bus.Bus()
        recorder = bag.record(live, ["/*/gps/fix"], out)
        bag.replay(source, live, fast=True)
        recorder.stop()

    def iterate(self, checks: Checks, tracer=None) -> dict:
        perf = time.perf_counter
        copy = self.workdir / "copy.bag"
        bracket = Bracket()
        t0 = perf()
        info = bag.bag_info(self.source)
        info_s = bracket.scaled(perf() - t0)
        t0 = perf()
        self._rerecord(self.source, copy)
        replay_s = bracket.scaled(perf() - t0)
        t0 = perf()
        _, report = bench.analyze_bag(copy)
        analyze_s = bracket.scaled(perf() - t0)
        with self._pause(tracer):
            checks.check(sha256(copy) == self.digests["source bag"],
                         "re-recorded bag differs from its source")
            copied = bag.bag_info(copy).record_count
            checks.check(copied == info.record_count,
                         f"re-recorded {copied} records, source holds {info.record_count}")
            checks.check(report.within_20cm and report.stable,
                         "static source: within_20cm or stability verdict failed")
            report_csv = self.workdir / "copy.report.csv"
            bench.emit_csv(report, report_csv)
            self._same_digest(checks, "report", sha256(report_csv))
        return {"busy_s": info_s + replay_s + analyze_s, "info_s": info_s,
                "replay_s": replay_s, "analyze_s": analyze_s,
                "records": info.record_count, "scale": _median(bracket.scales)}

    def end_to_end(self, samples: list[dict]) -> dict:
        return {
            "produce_us_per_msg": (_median(1e6 * s["replay_s"] / s["records"] for s in samples),
                                   "us", len(samples)),
            "consume_us_per_msg": (_median(1e6 * s["analyze_s"] / s["records"] for s in samples),
                                   "us", len(samples)),
        }

    def details(self, samples: list[dict]) -> dict:
        return {
            "replay_records_per_s": (_median(s["records"] / s["replay_s"] for s in samples),
                                     "1/s", len(samples)),
            "info_s": (_median(s["info_s"] for s in samples), "s", len(samples)),
            "analyze_s": (_median(s["analyze_s"] for s in samples), "s", len(samples)),
        }


WORKLOADS = {w.name: w for w in (Board4, FleetFollow, BagReplay)}
