"""Benchmark for hmas-kit: seeded, closed-loop, single-threaded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload board4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run reports end-to-end metrics; with ``--trace 1`` it
reports per-layer metrics from a traced run (see perfbench/README.md).
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs every workload, each in its own process.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
NAMES = ("board4", "fleet_follow", "bag_replay")

SETUP_REPEATS = 3       # setup_s is the median of this many set-ups
MIN_ITERATIONS = 3      # untraced run: iterations measured at least
TRACED_ITERATIONS = 2   # traced run: at least this many traced iterations

PER_LAYER_UNITS = {
    "bus.publish.calls": "count", "bus.publish.us": "us",
    "bus.take.calls": "count", "bus.take.us": "us", "bus.take.hit_ratio": "ratio",
    "bus.drop.count": "count", "bus.drop.ratio": "ratio",
    "tf.set_transform.calls": "count", "tf.set_transform.us": "us",
    "tf.lookup.calls": "count", "tf.lookup.us": "us", "tf.lookup.failed": "count",
    "geo.enu_to_geodetic.calls": "count", "geo.enu_to_geodetic.us": "us",
    "geo.geodetic_to_enu.calls": "count", "geo.geodetic_to_enu.us": "us",
    "geo.rover_step.calls": "count", "geo.rover_step.us": "us",
    "geo.link_poll.us": "us", "geo.encode_fix.us": "us",
    "geo.decode_fix.calls": "count", "geo.decode_fix.us": "us", "geo.fixed_ratio": "ratio",
    "agents.world_step.calls": "count", "agents.world_step.us": "us",
    "agents.follow_step.us": "us", "agents.truth_conv_per_fix": "ratio",
    "bag.read.us_per_record": "us", "bag.write.us_per_record": "us",
    "bag.replay.us_per_record": "us", "bag.bytes_per_record": "B",
    "bench.run_experiment.s": "s", "bench.load_bag_fixes.us_per_fix": "us",
    "bench.side_distances.s": "s", "bench.summarize.s": "s",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=NAMES + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time per run (traced runs split it)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def line(workload: str, name: str, value: float, unit: str, n: int) -> None:
    print(f"metric {workload} {name} {value:.6g} {unit} n={n}")


def measure(workload, checks, seconds: float, min_iterations: int, tracer=None) -> list[dict]:
    """Closed loop: iterate until ``seconds`` have passed and at least
    ``min_iterations`` iterations ran."""
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < min_iterations or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.current_iteration = len(samples)
        samples.append(workload.iterate(checks, tracer))
    return samples


def run_one(args) -> int:
    t0 = time.perf_counter()
    if not (ROOT / "src" / "hmas" / "__init__.py").is_file():
        print(f"perfbench: no hmas package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import hmas
    if Path(hmas.__file__).resolve().parent != ROOT / "src" / "hmas":
        print(f"perfbench: imported hmas from {hmas.__file__}, not from src/",
              file=sys.stderr)
        return 2
    import tracer as tracing
    from calibration import REFERENCE_NOMINAL_S, Bracket
    from workloads import WORKLOADS, Checks
    import_s = time.perf_counter() - t0

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        bracket = Bracket()
        import_s *= REFERENCE_NOMINAL_S / bracket.before
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload.setup()
            setup_times.append((time.perf_counter() - t) * bracket.close())
        setup_s = import_s + statistics.median(setup_times)

        checks = Checks()
        name = args.workload
        metrics: dict[str, tuple[float, str, int]] = {}
        if not args.trace:
            samples = measure(workload, checks, args.seconds, MIN_ITERATIONS)
            metrics["setup_s"] = (setup_s, "s", SETUP_REPEATS)
            metrics.update(workload.end_to_end(samples))
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = (rss_mb, "MB", 1)
            for key, value in {**metrics, **workload.details(samples)}.items():
                line(name, key, *value)
        else:
            untraced = measure(workload, checks, args.seconds / 3.0, 1)
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced = measure(workload, checks, args.seconds * 2.0 / 3.0,
                                 TRACED_ITERATIONS, tracer)
            tracer.write(OUT / f"spans-{name}.npz")
            stats = tracing.SpanStats(tracer)
            layer = tracing.layer_metrics(stats)
            layer["trace.overhead_ratio"] = (statistics.median(s["busy_s"] for s in traced)
                                             / statistics.median(s["busy_s"] for s in untraced))
            first = tracing.exact_counts(stats, 0)
            for i in range(1, len(traced)):
                again = tracing.exact_counts(stats, i)
                diff = sorted(k for k in first if first[k] != again[k])
                checks.check(not diff, f"exact counts differ in traced iteration {i}: {diff}")
            for key, value in layer.items():
                n = min(len(traced), len(untraced)) if key == "trace.overhead_ratio" else len(traced)
                metrics[key] = (value, PER_LAYER_UNITS[key], n)
                line(name, key, value, PER_LAYER_UNITS[key], n)
            traced_s = stats.root_s(0)
            print(f"self time by layer, traced iteration 0 ({traced_s:.3f} s in "
                  f"top-level spans, {len(tracer.start)} spans in all):")
            for layer_name, seconds in stats.layer_self_s(0).items():
                print(f"  {layer_name:<9} {seconds:9.4f} s  {100.0 * seconds / traced_s:5.1f} %")
        scales = [s["scale"] for s in (samples if not args.trace else untraced + traced)]
        print(f"speed {name} machine ran at {statistics.median(scales):.3f} of nominal "
              f"speed (median of {len(scales)} iterations)")
        for key, digest in workload.digests.items():
            print(f"digest {name} {key} sha256={digest}")
        line(name, "failed_ratio", len(checks.failures) / max(checks.attempted, 1),
             "ratio", checks.attempted)
        for failure in checks.failures:
            print(f"FAILED check: {failure}")
        print(json.dumps({
            "correct": not checks.failures,
            "attempted": checks.attempted,
            "failed": len(checks.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is its own."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        result = json.loads(lines.pop()) if proc.returncode == 0 and lines else None
        print("\n".join(lines))
        correct = bool(result and result["correct"])
        status = status if correct else 1
        print(f"workload {name}: exit {proc.returncode}, correct={correct}", flush=True)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
