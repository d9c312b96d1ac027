"""Print one line of digests of seeded outputs, to compare runs across hosts.

Run with ``src`` on ``PYTHONPATH``:

    python tests/host_digest.py

The line covers a 2.5 s follow scenario with 5 % seeded fix loss (its final
positions and its recorded bag), and a 20 s static board run (its bag, series
and report CSVs, its in-memory distances, and its slopes as ``float.hex``).
Two runs print the same line when those outputs are the same bits, so runs
under other CPUs, OpenBLAS kernels, thread counts or numpy SIMD dispatch are
compared by their lines (see ``test_host_digest.py``).
"""
from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from hmas import agents, bag, bench
from hmas.agents import AgentSpec, FollowCommand, Scenario, ScenarioAgent, SensorSpec
from hmas.bus import SeededDropInjector

SEED = 7


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def scenario_digests(out: Path) -> list[str]:
    gps = (SensorSpec("gps", "gnss", (0.0, 0.0, 0.3)),)
    members = (
        ScenarioAgent(AgentSpec("operator", "human", 1.5, sensors=gps), (0.0, 0.0, 0.0),
                      ((6.0, 3.0, 0.0), (0.0, 6.0, 0.0)), 1.0),
        ScenarioAgent(AgentSpec("spot", "ground", 2.0, sensors=gps), (-2.0, -1.0, 0.0)),
        ScenarioAgent(AgentSpec("anafi", "aerial", 3.0, altitude_range=(2.0, 30.0),
                                sensors=gps), (-2.0, 1.0, 10.0)),
    )
    commands = (FollowCommand("spot", "operator", offset=(0.0, -1.0)),
                FollowCommand("anafi", "operator", offset=(-2.0, 0.0), standoff=1.0))
    recorders = []

    def attach(world) -> None:
        world.bus.set_fault_injector(SeededDropInjector(0.05, SEED))
        recorders.append(bag.record(world.bus, ["*"], out / "scenario.bag"))

    world = agents.run_scenario(Scenario(bench.DEFAULT_BASE, SEED, 2.5, members, commands),
                                on_world=attach)
    path = recorders[0].stop()
    positions = np.array([world.agents[name].position for name in sorted(world.agents)])
    return [f"positions={_sha(positions.tobytes())}", f"scenario_bag={_sha(path.read_bytes())}"]


def board_digests(out: Path) -> list[str]:
    path = bench.run_experiment(bench.make_spec("static", SEED, duration_s=20.0),
                                out / "static.bag")
    series, report = bench.analyze_bag(path, convergence_s=5.0)
    bench.emit_csv(series, out / "series.csv")
    bench.emit_csv(report, out / "report.csv")
    distances = b"".join(series.sides[side][1].tobytes() for side in bench.SIDES)
    slopes = ",".join(report.sides[side].slope_m_per_s.hex() for side in bench.SIDES)
    return [f"board_bag={_sha(path.read_bytes())}",
            f"series={_sha((out / 'series.csv').read_bytes())}",
            f"report={_sha((out / 'report.csv').read_bytes())}",
            f"distances={_sha(distances)}", f"slopes={slopes}"]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        print(" ".join(scenario_digests(Path(tmp)) + board_digests(Path(tmp))))


if __name__ == "__main__":
    main()
