"""Command line front end: experiment runs, bag tooling, scenario demos.

Exit codes: 0 on success, 1 when ``hmas bench analyze`` finds that the 20 cm
relative-accuracy verdict fails, and 2 on bad input or an error, which prints
one ``hmas: error: ...`` line on stderr. Argument values are checked only by
the library code that owns them (``ExperimentSpec``, ``summarize``, ``replay``).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import agents, bag, bench
from .bus import Bus
from .geo import DEFAULT_FIX_RATE_HZ, MAX_RUN_S, GeodeticCoord, read_fix_csv, steps_within

_CLI_KINDS = {
    "static": "static",
    "disturbed": "static_disturbed",
    "rotation": "rotation",
    "square": "translation_square",
}


def _parse_base(text: str) -> GeodeticCoord:
    try:
        lat, lon, alt = (float(v) for v in text.split(","))
        return GeodeticCoord(lat, lon, alt)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"base must be 'lat,lon,alt', got {text!r} ({exc})") from None


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, which ``main`` reports as one line and exit 2."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hmas", description="HMAS middleware kit tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="RTK accuracy experiments")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    p_run = bench_sub.add_parser("run", help="run an experiment into a bag")
    p_run.add_argument("--kind", choices=sorted(_CLI_KINDS), required=True)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--duration", type=float, default=None,
                       help="override run duration in seconds")
    p_run.add_argument("--noiseless", action="store_true")
    p_run.set_defaults(handler=_cmd_bench_run)

    p_an = bench_sub.add_parser("analyze", help="per-side distances and verdicts")
    p_an.add_argument("bagfile", nargs="?", help="bag recorded by 'bench run'")
    p_an.add_argument("--fixes", help="rover fix CSV instead of a bag")
    p_an.add_argument("--base", type=_parse_base, default=bench.DEFAULT_BASE,
                      help="ENU anchor as lat,lon,alt (default: the bench base)")
    p_an.add_argument("--expected-side", type=float, default=bench.DEFAULT_SIDE_M)
    p_an.add_argument("--convergence-s", type=float, default=bench.CONVERGENCE_S)
    p_an.add_argument("--kind", choices=sorted(_CLI_KINDS),
                      help="experiment kind, to exclude its disturbance windows "
                           "over the span of the input's fixes")
    p_an.add_argument("--csv", help="write the distance series CSV here")
    p_an.add_argument("--report", help="write the summary report CSV here")
    p_an.set_defaults(handler=_cmd_bench_analyze)

    p_bag = sub.add_parser("bag", help="record/replay/inspect bags")
    bag_sub = p_bag.add_subparsers(dest="bag_command", required=True)

    p_rec = bag_sub.add_parser("record", help="re-record filtered traffic from a source")
    p_rec.add_argument("--filter", action="append", required=True, dest="filters",
                       help="glob over full topic names (repeatable)")
    p_rec.add_argument("-o", "--out", required=True)
    src = p_rec.add_mutually_exclusive_group(required=True)
    src.add_argument("--source", help="bag to replay as the traffic source")
    src.add_argument("--scenario", help="scenario JSON to run as the traffic source")
    p_rec.set_defaults(handler=_cmd_bag_record)

    p_rep = bag_sub.add_parser("replay", help="republish a bag onto a fresh bus")
    p_rep.add_argument("bagfile")
    p_rep.add_argument("--rate", type=float, help="realtime factor r > 0")
    p_rep.add_argument("--fast", action="store_true", help="as fast as possible")
    p_rep.set_defaults(handler=_cmd_bag_replay)

    p_info = bag_sub.add_parser("info", help="record count, topics, time span")
    p_info.add_argument("bagfile")
    p_info.set_defaults(handler=_cmd_bag_info)

    p_scn = sub.add_parser("scenario", help="agent demos")
    scn_sub = p_scn.add_subparsers(dest="scenario_command", required=True)
    p_scn_run = scn_sub.add_parser("run", help="run a scenario JSON")
    p_scn_run.add_argument("scenario")
    p_scn_run.set_defaults(handler=_cmd_scenario_run)

    return parser


def _cmd_bench_run(args) -> int:
    kind = _CLI_KINDS[args.kind]
    kwargs = {"noiseless": args.noiseless}
    if args.duration is not None:
        if kind == "translation_square":
            raise ValueError("--duration does not apply to --kind square: "
                             "its legs fix the run's duration")
        kwargs["duration_s"] = args.duration
    spec = bench.make_spec(kind, args.seed, **kwargs)
    dropped = len(bench.make_spec(kind, args.seed).disturbances) - len(spec.disturbances)
    if dropped:
        print(f"dropped {dropped} disturbance window(s) that start at or after "
              f"the end of the {spec.duration_s:g} s run")
    path = bench.run_experiment(spec, args.out)
    # the run records each corner's fix at every stamp k / 14 Hz, k = 1..steps
    # (steps >= 1): the bag's summary without reading it back
    steps = steps_within(spec.duration_s, DEFAULT_FIX_RATE_HZ)
    print(f"wrote {path}: {len(bench.CORNERS) * steps} records on {len(bench.CORNERS)} topics, "
          f"span [{1 / DEFAULT_FIX_RATE_HZ:.3f}, {steps / DEFAULT_FIX_RATE_HZ:.3f}] s")
    return 0


def _cmd_bench_analyze(args) -> int:
    if bool(args.bagfile) == bool(args.fixes):
        raise ValueError("analyze needs exactly one of: a bag file or --fixes CSV")
    fixes = (bench.fix_columns(read_fix_csv(args.fixes)) if args.fixes
             else bench.load_bag_fixes(args.bagfile))
    series = bench.side_distances(fixes, args.base)
    windows = None
    if args.kind not in (None, "square"):  # square runs have no disturbance windows
        kind = _CLI_KINDS[args.kind]
        end = max(float(columns.stamps.max()) for columns in fixes.values())
        # a log may be shorter than the shortest run of its kind, or longer than the
        # longest (MAX_RUN_S); windows that start after the log's end fall outside it
        duration = min(max(end, bench.shortest_run_s(kind)), MAX_RUN_S)
        windows = bench.side_windows(bench.make_spec(kind, 0, duration_s=duration))
    report = bench.summarize(series, args.expected_side, windows, args.convergence_s)
    if args.csv:
        bench.emit_csv(series, args.csv)
    if args.report:
        bench.emit_csv(report, args.report)
    for side in bench.SIDES:
        s = report.sides[side]
        print(f"{side:>6}: mean {s.mean_m:.3f} m, max |err| {s.max_abs_error_m:.3f} m, "
              f"{len(s.peaks)} peak(s), within_20cm={s.within_20cm}, stable={s.stable}")
    print(f"verdicts: within_20cm={report.within_20cm} stable={report.stable}")
    return 0 if report.within_20cm else 1


def _cmd_bag_record(args) -> int:
    partial = Path(f"{args.out}.{os.getpid()}.tmp")  # moved to -o only once whole
    try:
        if args.source:
            bus = Bus()
            recorder = bag.record(bus, args.filters, partial)
            bag.replay(args.source, bus, fast=True)
        else:
            scenario = agents.load_scenario(args.scenario)
            recorder = None

            def attach(world) -> None:
                nonlocal recorder
                recorder = bag.record(world.bus, args.filters, partial)

            agents.run_scenario(scenario, on_world=attach)
        recorder.stop()
        os.replace(partial, args.out)
    except OSError as err:
        if str(err.filename) == str(partial):  # the recording is made beside -o, so name -o
            raise OSError(err.errno, err.strerror, args.out) from None
        raise
    finally:
        partial.unlink(missing_ok=True)
    info = bag.bag_info(args.out)
    print(f"wrote {args.out}: {info.record_count} records on {len(info.topics)} topics")
    return 0


def _cmd_bag_replay(args) -> int:
    stats = bag.replay(args.bagfile, Bus(), rate=args.rate, fast=args.fast)
    for topic in sorted(stats.topics):
        print(f"{topic}: {stats.topics[topic]} message(s)")
    print(f"replayed {stats.records} record(s)")
    return 0


def _cmd_bag_info(args) -> int:
    info = bag.bag_info(args.bagfile)
    print(f"records: {info.record_count}")
    if info.record_count:
        print(f"span: [{info.start_stamp:.6f}, {info.end_stamp:.6f}] s")
    for topic in sorted(info.topics):
        print(f"  {topic}: {info.topics[topic]}")
    return 0


def _cmd_scenario_run(args) -> int:
    scenario = agents.load_scenario(args.scenario)
    world = agents.run_scenario(scenario)
    summary = {
        "duration_s": world.time,
        "agents": {
            name: {
                "position_enu": [round(v, 3) for v in world.agents[name].position],
                "fixes": world.fix_counts[name],
            }
            for name in sorted(world.agents)
        },
    }
    print(json.dumps(summary, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except Exception as exc:  # bad input or a crash: exit 2, not a failed verdict
        print(f"hmas: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
