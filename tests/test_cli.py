"""End-to-end CLI coverage through hmas.cli.main."""
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import hmas
from hmas import agents, bag, bench
from hmas.cli import main
from hmas.geo import MAX_RUN_S, write_fix_csv

from fix_oracle import decoded_fixes, unanalysable_payloads, write_bag_with_bad_fix

SCENARIO = {
    "base": {"lat": 48.70, "lon": 6.15, "alt": 220.0},
    "seed": 3,
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
        {"follower": "spot", "target": "operator", "offset": [0, -1]},
    ],
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestBenchCli:
    def test_run_then_analyze_pass(self, tmp_path, capsys):
        out = tmp_path / "run.bag"
        assert run_cli("bench", "run", "--kind", "static", "--seed", "1",
                       "--duration", "150", "--out", out) == 0
        assert out.exists()
        csv_out = tmp_path / "d.csv"
        report_out = tmp_path / "r.csv"
        code = run_cli("bench", "analyze", out, "--expected-side", "0.9",
                       "--csv", csv_out, "--report", report_out)
        captured = capsys.readouterr().out
        assert code == 0
        assert "within_20cm=True" in captured
        assert csv_out.read_text().startswith("stamp_s,d_top,d_right,d_bottom,d_left")
        assert report_out.read_text().startswith("key,value")

    def test_analyze_exits_nonzero_on_verdict_failure(self, tmp_path):
        out = tmp_path / "run.bag"
        run_cli("bench", "run", "--kind", "static", "--seed", "1",
                "--duration", "150", "--out", out)
        # absurd expected side: every sample is >20 cm off
        assert run_cli("bench", "analyze", out, "--expected-side", "0.5") == 1

    def test_analyze_requires_one_input(self, tmp_path):
        assert run_cli("bench", "analyze") == 2

    def test_analyze_from_fix_csv(self, tmp_path, capsys):
        from hmas.geo import write_fix_csv
        spec = bench.static_spec(seed=2, duration_s=130.0)
        bagfile = tmp_path / "r.bag"
        bench.run_experiment(spec, bagfile)
        fixes = decoded_fixes(bagfile)
        csv_in = tmp_path / "fixes.csv"
        write_fix_csv(csv_in, [f for series in fixes.values() for f in series])
        code = run_cli("bench", "analyze", "--fixes", csv_in,
                       "--base", "48.70,6.15,220.0")
        assert code == 0
        assert "verdicts:" in capsys.readouterr().out

    @pytest.mark.parametrize("stamp", ["nan", "inf"])
    def test_analyze_rejects_a_non_finite_fix_stamp(self, tmp_path, capsys, stamp):
        from hmas.geo import write_fix_csv
        bagfile = tmp_path / "s.bag"
        bench.run_experiment(bench.make_spec("static", 1, duration_s=2.0, noiseless=True),
                             bagfile)
        fixes = [f for series in decoded_fixes(bagfile).values() for f in series]
        csv_in = tmp_path / "fixes.csv"
        write_fix_csv(csv_in, fixes)
        lines = csv_in.read_text().splitlines()
        last = lines[-1].split(",")
        lines[-1] = ",".join([stamp, *last[1:]])
        csv_in.write_text("\n".join(lines) + "\n")
        code = run_cli("bench", "analyze", "--fixes", csv_in, "--convergence-s", "0")
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"hmas: error: fix CSV {csv_in} row {len(fixes)}: "
                       f"stamp {stamp} is not finite\n")

    @pytest.mark.parametrize("row, detail", [
        ("0.071429,top_left,nan,6.15,220.0,fixed", "latitude nan outside [-90, 90]"),
        (",top_left,48.7,6.15,220.0,fixed", "could not convert string to float: ''"),
        ("0.071429,top_left,48.7,6.15,220.0,rtk", "'rtk' is not a valid FixQuality"),
        ("0.071429,top_left", "float() argument must be"),
    ], ids=["nan_latitude", "empty_stamp", "unknown_quality", "short_row"])
    def test_analyze_names_the_bad_fix_row(self, tmp_path, capsys, row, detail):
        csv_in = tmp_path / "fixes.csv"
        csv_in.write_text("stamp_s,rover_id,lat_deg,lon_deg,alt_m,quality\n" + row + "\n")
        code = run_cli("bench", "analyze", "--fixes", csv_in)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"hmas: error: fix CSV {csv_in} row 1: {detail}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("case", sorted(unanalysable_payloads()))
    def test_analyze_names_the_bag_record_that_is_not_a_fix(self, tmp_path, capsys, case):
        payload, detail = unanalysable_payloads()[case]
        path = write_bag_with_bad_fix(tmp_path / "bad.bag", payload)
        assert run_cli("bench", "analyze", path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"hmas: error: bag {path} record 3 is not a fix: ")
        assert detail in err and err.count("\n") == 1

    def test_rotation_kind_excludes_its_windows(self, tmp_path, capsys):
        out = tmp_path / "rot.bag"
        run_cli("bench", "run", "--kind", "rotation", "--seed", "1", "--out", out)
        code = run_cli("bench", "analyze", out, "--kind", "rotation",
                       "--convergence-s", "5")
        assert code == 0

    def test_rotation_kind_judges_a_log_shorter_than_a_rotation_run(self, tmp_path, capsys):
        """A 20 s log is shorter than the 51 s a rotation run needs; its
        windows come from the shortest rotation run, which has none before
        51 s, so the log gets a verdict and the same report as without --kind."""
        out = tmp_path / "short.bag"
        bench.run_experiment(bench.static_spec(1, duration_s=20.0), out)
        with_kind, without = tmp_path / "k.csv", tmp_path / "n.csv"
        code = run_cli("bench", "analyze", out, "--kind", "rotation", "--convergence-s", "5",
                       "--report", with_kind)
        assert code in (0, 1)
        assert capsys.readouterr().err == ""
        run_cli("bench", "analyze", out, "--convergence-s", "5", "--report", without)
        assert with_kind.read_bytes() == without.read_bytes()

    def test_kind_judges_a_log_longer_than_the_longest_run(self, tmp_path, capsys):
        """A log may outlast the 24 h cap on a run: --kind takes its windows
        from a run of the cap's length."""
        out = tmp_path / "run.bag"
        bench.run_experiment(bench.static_spec(1, duration_s=130.0), out)
        groups = decoded_fixes(out).values()
        csv_in = tmp_path / "long.csv"
        write_fix_csv(csv_in, [f for group in groups for f in group]
                      + [replace(f, stamp=f.stamp + MAX_RUN_S) for group in groups for f in group])
        for kind in ("static", "disturbed", "rotation"):
            assert run_cli("bench", "analyze", "--fixes", csv_in, "--kind", kind) in (0, 1)
            assert capsys.readouterr().err == ""

    def test_kind_windows_follow_the_run_duration(self, tmp_path, capsys):
        """A 400 s disturbed run keeps obstructing top_left until 400 s; its
        windows come from the input's last fix, not the default 300 s run."""
        out = tmp_path / "long.bag"
        run_cli("bench", "run", "--kind", "disturbed", "--duration", "400", "--seed", "1",
                "--out", out)
        report_out = tmp_path / "r.csv"
        run_cli("bench", "analyze", out, "--kind", "disturbed", "--report", report_out)

        fixes = bench.load_bag_fixes(out)
        windows = bench.side_windows(bench.disturbed_spec(1, duration_s=400.0))
        report = bench.summarize(bench.side_distances(fixes, bench.DEFAULT_BASE),
                                 bench.DEFAULT_SIDE_M, windows)
        expected = tmp_path / "expected.csv"
        bench.emit_csv(report, expected)
        assert report_out.read_text() == expected.read_text()
        assert report.sides["top"].stable and report.sides["left"].stable

        # a fix CSV of the same run (rounded coordinates) gets the same verdicts
        from hmas.geo import write_fix_csv
        csv_in = tmp_path / "fixes.csv"
        write_fix_csv(csv_in, [f for group in decoded_fixes(out).values() for f in group])
        csv_report = tmp_path / "r_csv.csv"
        run_cli("bench", "analyze", "--fixes", csv_in, "--kind", "disturbed",
                "--report", csv_report)

        def verdicts(path):
            return [ln for ln in path.read_text().splitlines()
                    if ln.split(",")[0].endswith(("stable", "within_20cm"))]
        assert verdicts(csv_report) == verdicts(expected)

    def test_square_kind_has_no_windows(self, tmp_path):
        out = tmp_path / "sq.bag"
        run_cli("bench", "run", "--kind", "square", "--seed", "2", "--out", out)
        with_kind, without = tmp_path / "k.csv", tmp_path / "n.csv"
        assert run_cli("bench", "analyze", out, "--kind", "square", "--convergence-s", "5",
                       "--report", with_kind) == 0
        assert run_cli("bench", "analyze", out, "--convergence-s", "5",
                       "--report", without) == 0
        assert with_kind.read_bytes() == without.read_bytes()

    @pytest.mark.parametrize("kind, duration, records, dropped", [
        ("static", "2", 112, 0),
        ("disturbed", "100", 5600, 5),
        ("disturbed", "141", 7896, 4),  # one twist clipped to the run's end
        ("rotation", "51", 2856, 1),
        ("square", None, 11564, 0),  # its legs fix the duration
    ])
    def test_every_kind_runs_at_a_short_duration(self, tmp_path, capsys, kind, duration,
                                                 records, dropped):
        out = tmp_path / "short.bag"
        extra = () if duration is None else ("--duration", duration)
        assert run_cli("bench", "run", "--kind", kind, "--out", out, *extra) == 0
        text = capsys.readouterr().out
        assert f": {records} records on 4 topics" in text
        assert ("dropped" in text) == bool(dropped)
        if dropped:
            assert f"dropped {dropped} disturbance window(s)" in text
        assert bag.bag_info(out).record_count == records


    @pytest.mark.parametrize("kind, duration", [
        ("static", None), ("static", repr(1 / 14)),
        ("disturbed", None), ("disturbed", repr(1 / 14)),
        ("rotation", None), ("rotation", repr(bench.shortest_run_s("rotation"))),
        ("square", None),  # its legs fix the duration
    ])
    def test_run_summary_equals_the_bags_info(self, tmp_path, capsys, kind, duration):
        """``bench run`` prints its bag's summary from the run, without reading
        the bag back: the line equals the one ``bag_info`` of the bag gives.
        1/14 s is one fix per corner; rotation runs are never that short."""
        out = tmp_path / "run.bag"
        extra = () if duration is None else ("--duration", duration)
        assert run_cli("bench", "run", "--kind", kind, "--out", out, *extra) == 0
        info = bag.bag_info(out)
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"wrote {out}: {info.record_count} records on {len(info.topics)} topics, "
            f"span [{info.start_stamp:.3f}, {info.end_stamp:.3f}] s")
        if duration == repr(1 / 14):
            assert info.record_count == 4

    def test_a_long_run_does_not_read_its_bag_back(self, tmp_path):
        """A 2 h static ``bench run`` in a child process peaks at 50 MB or less:
        the writer holds one chunk and the summary line reads no bag (about
        100 MB when the line came from ``bag_info`` of the 33 MB bag). The
        child reports its own ``VmHWM``, which starts afresh at ``exec``."""
        out = tmp_path / "long.bag"
        child = (
            "import sys\n"
            "from hmas.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
            "sys.exit(code)\n"
        )
        src = str(Path(hmas.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", child, "bench", "run", "--kind", "static",
                               "--duration", "7200", "--out", str(out)],
                              env=env, check=True, timeout=300, capture_output=True, text=True)
        summary, peak_kb = done.stdout.splitlines()
        assert summary == f"wrote {out}: 403200 records on 4 topics, span [0.071, 7200.000] s"
        peak_mb = int(peak_kb) / 1024.0
        assert peak_mb <= 50.0, f"peak RSS {peak_mb:.1f} MB"


class TestExitCodes:
    @pytest.fixture
    def bad_input(self, tmp_path):
        from hmas.geo import FixQuality, GeodeticCoord, RtkFix, write_fix_csv
        corrupt = tmp_path / "corrupt.bag"
        corrupt.write_bytes(b"HBAG\x01\x00\x05\x00")
        fixes = tmp_path / "ids.csv"
        write_fix_csv(fixes, [RtkFix(f"rover{i}", GeodeticCoord(48.7, 6.15, 220.0),
                                     FixQuality.FIXED, 1.0) for i in range(4)])
        return {"missing": tmp_path / "missing.bag", "corrupt": corrupt, "ids": fixes,
                "out": tmp_path / "out.bag"}

    @pytest.mark.parametrize("argv", [
        ("bag", "info", "{missing}"),
        ("bench", "analyze", "{missing}"),
        ("bag", "info", "{corrupt}"),
        ("bench", "analyze", "{corrupt}"),
        ("bag", "replay", "{corrupt}", "--fast"),
        ("bench", "analyze", "--fixes", "{ids}"),
        ("bench", "run", "--kind", "rotation", "--duration", "30", "--out", "{out}"),
        ("bench", "run", "--kind", "square", "--duration", "60", "--out", "{out}"),
        ("bench", "run", "--kind", "static", "--duration", "-1", "--out", "{out}"),
    ], ids=["info-missing", "analyze-missing", "info-corrupt", "analyze-corrupt",
            "replay-corrupt", "fixes-not-corners", "rotation-30s", "square-duration",
            "negative-duration"])
    def test_bad_input_exits_2_with_one_line(self, bad_input, capsys, argv):
        code = run_cli(*(a.format(**bad_input) for a in argv))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("hmas: error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


    @pytest.fixture(scope="class")
    def short_bag(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bag") / "short.bag"
        bench.run_experiment(bench.make_spec("static", 1, duration_s=2.0, noiseless=True), out)
        return out

    @pytest.mark.parametrize("argv", [
        ("bag", "replay", "{bag}", "--rate", "nan"),
        ("bag", "replay", "{bag}", "--rate", "inf"),
        ("bag", "replay", "{bag}", "--rate", "abc"),
        ("bench", "analyze", "{bag}", "--expected-side", "nan", "--convergence-s", "0"),
        ("bench", "analyze", "{bag}", "--expected-side", "-1", "--convergence-s", "0"),
        ("bench", "analyze", "{bag}", "--convergence-s", "-5"),
        ("bench", "analyze", "{bag}", "--convergence-s", "inf"),
        ("bench", "run", "--kind", "static", "--duration", "nan", "--out", "{out}"),
        ("bench", "run", "--kind", "static", "--duration", "abc", "--out", "{out}"),
        ("bench", "analyze", "{bag}", "--base", "nan,6.15,220"),
        ("bench", "analyze", "{bag}", "--no-such-option"),
        ("bench",),
        ("bag", "replay", "{bag}", "--rate", "2", "--fast"),
        ("bench", "run", "--kind", "static", "--duration", "0.05", "--out", "{out}"),
        ("bench", "run", "--kind", "static", "--duration", "1e300", "--out", "{out}"),
    ], ids=["rate-nan", "rate-inf", "rate-abc", "side-nan", "side-negative",
            "convergence-negative", "convergence-inf", "duration-nan", "duration-abc",
            "base-nan", "unknown-option", "missing-subcommand", "rate-and-fast",
            "duration-under-one-fix", "duration-over-the-cap"])
    def test_bad_argument_exits_2_with_one_line(self, short_bag, tmp_path, capsys, argv):
        code = run_cli(*(a.format(bag=short_bag, out=tmp_path / "out.bag") for a in argv))
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("hmas: error: ")
        assert err.count("\n") == 1
        assert "_positive_float" not in err


class TestBagCli:
    def make_bag(self, tmp_path):
        out = tmp_path / "src.bag"
        run_cli("bench", "run", "--kind", "static", "--seed", "1",
                "--duration", "2", "--noiseless", "--out", out)
        return out

    def test_info(self, tmp_path, capsys):
        out = self.make_bag(tmp_path)
        assert run_cli("bag", "info", out) == 0
        text = capsys.readouterr().out
        assert "records: 112" in text  # 4 rovers x 2 s x 14 Hz
        assert "/top_left/gps/fix: 28" in text

    def test_replay(self, tmp_path, capsys):
        out = self.make_bag(tmp_path)
        assert run_cli("bag", "replay", out, "--fast") == 0
        assert "replayed 112 record(s)" in capsys.readouterr().out

    def test_replay_refuses_a_negative_stamp_naming_its_record(self, tmp_path, capsys):
        """The bus refuses a -1.0 stamp, so the bag is refused before its
        first publish, with one line naming the record."""
        path = tmp_path / "neg.bag"
        with bag.BagWriter(path) as writer:
            writer.append("/top_left/gps/fix", -1.0, b"")
            writer.append("/top_left/gps/fix", 1.0, b"")
        assert run_cli("bag", "replay", path, "--fast") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"hmas: error: bag {path} record 0: "
                       "stamp -1.0 is not finite and non-negative\n")

    def test_record_from_source_filters(self, tmp_path, capsys):
        out = self.make_bag(tmp_path)
        filtered = tmp_path / "filtered.bag"
        assert run_cli("bag", "record", "--filter", "/top_*/gps/fix",
                       "-o", filtered, "--source", out) == 0
        info = bag.bag_info(filtered)
        assert set(info.topics) == {"/top_left/gps/fix", "/top_right/gps/fix"}
        assert info.record_count == 56

    @pytest.mark.parametrize("source", ["missing", "corrupt", "negative_stamp", "scenario"])
    @pytest.mark.parametrize("existing", [False, True])
    def test_record_from_a_bad_source_leaves_the_output_alone(self, tmp_path, capsys,
                                                              source, existing):
        """The recording goes to a file beside -o, which replaces -o only when
        it is whole: whether the source is a bag that is missing or corrupt or
        holds a stamp that the bus refuses, or a scenario whose command names
        a missing agent, no file is left behind, and a bag already at -o keeps
        its bytes."""
        flag, bad, detail = "--source", tmp_path / f"{source}.bag", ""
        if source == "corrupt":
            bad.write_bytes(b"HBAG\x01\x00\x05\x00")
        elif source == "negative_stamp":
            with bag.BagWriter(bad) as writer:
                writer.append("/top_left/gps/fix", -1.0, b"")
            detail = "stamp -1.0 is not finite and non-negative"
        elif source == "scenario":
            flag, bad = "--scenario", tmp_path / "scenario.json"
            bad.write_text(json.dumps(dict(SCENARIO, agents=SCENARIO["agents"][1:])))
            detail = "no agent named 'operator'"
        out = tmp_path / "out.bag"
        before = self.make_bag(tmp_path).read_bytes() if existing else None
        if existing:
            out.write_bytes(before)
        files = sorted(tmp_path.iterdir())
        code = run_cli("bag", "record", "--filter", "/*/gps/fix", "-o", out, flag, bad)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("hmas: error: ") and err.count("\n") == 1
        assert detail in err
        if existing:
            assert out.read_bytes() == before
        else:
            assert not out.exists()
        assert sorted(tmp_path.iterdir()) == files

    @pytest.mark.parametrize("flag", ["--source", "--scenario"])
    def test_record_into_a_missing_directory_names_the_output(self, tmp_path, capsys,
                                                              scenario_file, flag):
        """The recording is made in a file beside -o, yet the error names -o."""
        source = self.make_bag(tmp_path) if flag == "--source" else scenario_file
        out = tmp_path / "nodir" / "x.bag"
        assert run_cli("bag", "record", "--filter", "/*", "-o", out, flag, source) == 2
        err = capsys.readouterr().err
        assert err == f"hmas: error: [Errno 2] No such file or directory: '{out}'\n"
        assert not out.parent.exists()

    def test_record_from_scenario(self, tmp_path, scenario_file):
        out = tmp_path / "scn.bag"
        assert run_cli("bag", "record", "--filter", "/spot/*",
                       "-o", out, "--scenario", scenario_file) == 0
        info = bag.bag_info(out)
        assert set(info.topics) == {"/spot/gps/fix"}
        assert info.record_count == 28  # 2 s at 14 Hz


class TestScenarioCli:
    def test_run_reports_summary(self, scenario_file, capsys):
        assert run_cli("scenario", "run", scenario_file) == 0
        out = capsys.readouterr().out
        assert '"duration_s": 2.0' in out  # the step clock ends on the duration exactly
        summary = json.loads(out)
        assert summary["agents"]["operator"]["fixes"] == 28
        assert summary["agents"]["operator"]["position_enu"][0] == pytest.approx(2.0, abs=0.01)

    @pytest.mark.parametrize("mount", [[0.0, 0.3], [0.0, 0.0, 0.3, 1.0], [0.0, "up", 0.3]])
    def test_bad_sensor_mount_exits_2_with_one_line(self, tmp_path, capsys, mount):
        scenario = json.loads(json.dumps(SCENARIO))
        scenario["agents"][1]["sensors"][0]["mount"] = mount
        path = tmp_path / "bad_mount.json"
        path.write_text(json.dumps(scenario))
        assert run_cli("scenario", "run", path) == 2
        err = capsys.readouterr().err
        assert err.startswith("hmas: error: ") and "mount" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda s: s.update(noiseless="no"),
        lambda s: s["agents"][0].update(waypoints=[[math.nan, 0, 0]]),
        lambda s: s.update(duration_s=-5),
        lambda s: s["agents"][1].update(start=[-2, -1]),
        lambda s: s["agents"][0].update(waypoints=[[10, 0]]),
        lambda s: s.update(seed=1.5),
        lambda s: s.update(seed=True),
        lambda s: s["commands"][0].update(target=[10, 0]),
        lambda s: s.update(duration_s=0.001),
        lambda s: s["agents"][0].update(start=["1", 0, 0]),
    ], ids=["noiseless-string", "waypoint-nan", "duration-negative", "start-2",
            "waypoint-2", "seed-float", "seed-bool", "target-2", "duration-under-one-step",
            "start-string"])
    def test_bad_scenario_exits_2_with_one_line(self, tmp_path, capsys, edit):
        scenario = json.loads(json.dumps(SCENARIO))
        edit(scenario)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        assert run_cli("scenario", "run", path) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("hmas: error: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "reshape" not in err and "SeedSequence" not in err

    def test_a_bool_start_exits_2_naming_start(self, tmp_path, capsys):
        """The README's scenario, cut to 2 s, with ``"start": [true, 0, 0]``: a
        bool is not a number, so it does not start the operator at (1, 0, 0)."""
        scenario = json.loads(json.dumps(SCENARIO))
        scenario["agents"][0]["start"] = [True, 0, 0]
        path = tmp_path / "bool_start.json"
        path.write_text(json.dumps(scenario))
        assert '"start": [true, 0, 0]' in path.read_text()
        assert run_cli("scenario", "run", path) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("hmas: error: start of 'operator' must be 3 finite")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_integer_mount_reaches_the_sensor_frame(self, tmp_path):
        scenario = json.loads(json.dumps(SCENARIO))
        scenario["agents"][1]["sensors"][0]["mount"] = [0, 0, 1]
        path = tmp_path / "mount.json"
        path.write_text(json.dumps(scenario))
        world = agents.run_scenario(agents.load_scenario(path))
        out = world.tree.lookup("spot/base", "spot/gps", world.agents["spot"].odom_stamp)
        assert out.translation == (0.0, 0.0, 1.0)
