"""Bag format, lossless recording, and replay timing."""
import fnmatch
import math
import os
import struct
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmas
from hmas import bag as bag_module
from hmas.bag import (BagError, BagFormatError, BagRecord, BagWriter, Recorder, bag_info,
                      read_bag, record, replay)
from hmas.bus import Bus, QosProfile, QualifiedName, Reliability, SeededDropInjector

DEEP = QosProfile(reliability=Reliability.RELIABLE, history_depth=100_000)


def make_agent(bus, namespace, topic="gps/fix"):
    node = bus.create_node(namespace, "driver")
    return bus.advertise(node, topic)


class TestFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.bag"
        records = [
            BagRecord("/spot/gps/fix", 0.5, b"hello"),
            BagRecord("/anafi/cam", 1.0, b""),
            BagRecord("/spot/gps/fix", 1.5, bytes(range(256))),
        ]
        with BagWriter(path) as writer:
            for r in records:
                writer.append(*r)
        assert read_bag(path) == records

    def test_empty_bag(self, tmp_path):
        path = tmp_path / "empty.bag"
        BagWriter(path).close()
        assert read_bag(path) == []
        info = bag_info(path)
        assert info.record_count == 0
        assert info.start_stamp is None

    def test_records_sorted_by_stamp_with_stable_ties(self, tmp_path):
        path = tmp_path / "t.bag"
        with BagWriter(path) as writer:
            writer.append("/a/t", 2.0, b"late")
            writer.append("/a/t", 1.0, b"tie-first")
            writer.append("/b/t", 1.0, b"tie-second")
        got = read_bag(path)
        assert [r.payload for r in got] == [b"tie-first", b"tie-second", b"late"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bag"
        path.write_bytes(b"NOPE\x01\x00")
        with pytest.raises(BagFormatError) as err:
            read_bag(path)
        assert err.value.offset == 0

    def test_bad_version(self, tmp_path):
        path = tmp_path / "vers.bag"
        path.write_bytes(b"HBAG\xff\x00")
        with pytest.raises(BagFormatError) as err:
            read_bag(path)
        assert err.value.offset == 4

    def test_truncation_reports_byte_offset(self, tmp_path):
        path = tmp_path / "t.bag"
        with BagWriter(path) as writer:
            writer.append("/a/t", 1.0, b"payload")
        data = path.read_bytes()
        cut = tmp_path / "cut.bag"
        cut.write_bytes(data[:-3])
        with pytest.raises(BagFormatError) as err:
            read_bag(cut)
        assert err.value.offset == 6  # first record begins after the header
        assert "byte offset" in str(err.value)

    def test_every_truncation_reports_the_record_start(self, tmp_path):
        path = tmp_path / "t.bag"
        with BagWriter(path) as writer:
            writer.append("/a/t", 1.0, b"first")
            writer.append("/b/long_topic", 2.0, b"")
            writer.append("/a/t", 3.0, b"third payload")
        data = path.read_bytes()
        starts = [6]  # record boundaries, after the 6-byte header
        for r in read_bag(path):
            starts.append(starts[-1] + 4 + len(r.topic) + 12 + len(r.payload))
        assert starts[-1] == len(data)
        cut = tmp_path / "cut.bag"
        for length in range(len(data)):
            cut.write_bytes(data[:length])
            if length in starts:  # a whole number of records is a valid bag
                assert len(read_bag(cut)) == starts.index(length)
                continue
            with pytest.raises(BagFormatError) as err:
                read_bag(cut)
            expected = 0 if length < 6 else max(s for s in starts if s < length)
            assert err.value.offset == expected, length

    def test_invalid_utf8_topic_reports_the_topic_offset(self, tmp_path):
        path = tmp_path / "utf8.bag"
        good = struct.pack("<I", 4) + b"/a/t" + struct.pack("<dI", 1.0, 0)
        bad = struct.pack("<I", 2) + b"\xff\xfe" + struct.pack("<dI", 2.0, 1) + b"x"
        path.write_bytes(b"HBAG\x01\x00" + good + bad)
        with pytest.raises(BagFormatError) as err:
            read_bag(path)
        assert err.value.offset == 6 + len(good) + 4

    def test_invalid_utf8_topic_after_decoded_topics_reports_its_own_offset(self, tmp_path):
        """Topics are decoded once per distinct byte string: a bad topic of
        the same length as topics already read is still checked, and
        reported at its own offset."""
        path = tmp_path / "utf8.bag"

        def rec(topic: bytes, stamp: float) -> bytes:
            return struct.pack("<I", len(topic)) + topic + struct.pack("<dI", stamp, 1) + b"x"

        good = rec(b"/a/t", 1.0) + rec(b"/b/t", 2.0) + rec(b"/a/t", 3.0)
        path.write_bytes(b"HBAG\x01\x00" + good + rec(b"/a\xff\xfe", 4.0) + rec(b"/b/t", 5.0))
        with pytest.raises(BagFormatError) as err:
            read_bag(path)
        assert err.value.offset == 6 + len(good) + 4
        assert "not valid UTF-8" in str(err.value)

    def test_records_are_immutable_named_tuples(self, tmp_path):
        path = tmp_path / "t.bag"
        with BagWriter(path) as writer:
            writer.append("/a/t", 1.0, b"x")
            writer.append("/b/t", 2.0, b"")
            writer.append("/a/t", 3.0, b"y")
        records = read_bag(path)
        assert records == [BagRecord("/a/t", 1.0, b"x"), BagRecord("/b/t", 2.0, b""),
                           BagRecord("/a/t", 3.0, b"y")]
        assert all(type(r) is BagRecord for r in records)
        assert records[0].topic is records[2].topic  # one decoded string per topic
        assert records[1]._asdict() == {"topic": "/b/t", "stamp": 2.0, "payload": b""}
        for field in ("topic", "stamp", "payload", "extra"):
            with pytest.raises(AttributeError):
                setattr(records[0], field, None)

    def test_closed_writer_rejects_records_and_closes_once(self, tmp_path):
        path = tmp_path / "t.bag"
        writer = BagWriter(path)
        writer.append("/a/t", 1.0, b"x")
        writer.close()
        data = path.read_bytes()
        with pytest.raises(BagError):
            writer.append("/a/t", 2.0, b"y")
        writer.close()  # a no-op
        assert path.read_bytes() == data
        assert read_bag(path) == [BagRecord("/a/t", 1.0, b"x")]

    def test_nan_stamp_rejected_but_other_stamps_legal(self, tmp_path):
        path = tmp_path / "t.bag"
        with BagWriter(path) as writer:
            with pytest.raises(BagError):
                writer.append("/a/t", math.nan, b"x")
            for stamp in (math.inf, -1e9, -math.inf):
                writer.append("/a/t", stamp, b"")
        assert [r.stamp for r in read_bag(path)] == [-math.inf, -1e9, math.inf]

    def test_unwritable_sink_fails_fast(self, tmp_path):
        with pytest.raises(OSError):
            BagWriter(tmp_path / "no" / "such" / "dir.bag")

    def test_info(self, tmp_path):
        path = tmp_path / "t.bag"
        with BagWriter(path) as writer:
            writer.append("/a/t", 1.0, b"x")
            writer.append("/a/t", 3.0, b"y")
            writer.append("/b/t", 2.0, b"z")
        info = bag_info(path)
        assert info.record_count == 3
        assert info.topics == {"/a/t": 2, "/b/t": 1}
        assert (info.start_stamp, info.end_stamp) == (1.0, 3.0)


class TestRecorder:
    def test_filter_selects_matching_topics(self, tmp_path):
        bus = Bus()
        spot = make_agent(bus, "spot")
        anafi = make_agent(bus, "anafi")
        path = tmp_path / "spot.bag"
        with record(bus, ["/spot/*"], path):
            spot.publish(0.0, b"spot-0")
            anafi.publish(0.0, b"anafi-0")
            spot.publish(1.0, b"spot-1")
        got = read_bag(path)
        assert [r.payload for r in got] == [b"spot-0", b"spot-1"]
        assert all(r.topic == "/spot/gps/fix" for r in got)

    def test_no_matching_topics_yields_valid_empty_bag(self, tmp_path):
        bus = Bus()
        pub = make_agent(bus, "spot")
        path = tmp_path / "none.bag"
        with record(bus, ["/ghost/*"], path):
            pub.publish(0.0, b"x")
        assert read_bag(path) == []

    def test_thousand_publishes_recorded_in_order(self, tmp_path):
        bus = Bus()
        pub = make_agent(bus, "spot")
        path = tmp_path / "k.bag"
        with record(bus, ["/spot/gps/fix"], path):
            for i in range(1000):
                pub.publish(i / 14.0, b"%d" % i)
        got = read_bag(path)
        assert len(got) == 1000
        assert [r.payload for r in got] == [b"%d" % i for i in range(1000)]
        assert all(a.stamp <= b.stamp for a, b in zip(got, got[1:]))

    def test_recording_is_lossless_despite_lossy_live_qos(self, tmp_path):
        from hmas.bus import SeededDropInjector
        bus = Bus()
        bus.set_fault_injector(SeededDropInjector(0.9, seed=5))
        pub = make_agent(bus, "spot")  # best-effort publisher
        node = bus.create_node("viewer", "ui")
        lossy = bus.subscribe(node, "/spot/gps/fix")
        path = tmp_path / "lossless.bag"
        with record(bus, ["/spot/*"], path):
            for i in range(200):
                pub.publish(float(i), b"%d" % i)
        assert len(read_bag(path)) == 200  # the lossy viewer does not matter

    def test_topics_advertised_after_start_are_picked_up(self, tmp_path):
        bus = Bus()
        path = tmp_path / "late.bag"
        with record(bus, ["/*/gps/fix"], path):
            pub = make_agent(bus, "late")
            pub.publish(0.0, b"caught")
        got = read_bag(path)
        assert [r.payload for r in got] == [b"caught"]

    def test_merged_stamp_order_across_topics(self, tmp_path):
        bus = Bus()
        a = make_agent(bus, "aa")
        b = make_agent(bus, "bb")
        path = tmp_path / "merge.bag"
        with record(bus, ["/*/gps/fix"], path):
            a.publish(0.0, b"a0")
            b.publish(0.5, b"b0")
            a.publish(1.0, b"a1")
            b.publish(1.0, b"b1")  # tie: published after a1
        got = read_bag(path)
        assert [r.payload for r in got] == [b"a0", b"b0", b"a1", b"b1"]

    def test_needs_patterns(self, tmp_path):
        with pytest.raises(ValueError):
            Recorder(Bus(), [], tmp_path / "x.bag")

    def test_more_than_a_million_publishes_lose_none(self, tmp_path):
        # more than the 1,000,000-deep queue recorders once drained at stop()
        n = 1_000_001
        bus = Bus()
        pub = make_agent(bus, "spot")
        path = tmp_path / "big.bag"
        with record(bus, ["/spot/gps/fix"], path):
            for i in range(n):
                pub.publish(float(i), b"")
        record_size = 4 + len("/spot/gps/fix") + 8 + 4
        data = path.read_bytes()
        assert len(data) == 6 + n * record_size
        tail = tmp_path / "tail.bag"  # the header and the last record
        tail.write_bytes(data[:6] + data[-record_size:])
        assert read_bag(tail) == [BagRecord("/spot/gps/fix", float(n - 1), b"")]

    def test_a_million_publishes_record_in_bounded_memory(self, tmp_path):
        """The million-publish recording in a child process, whose peak RSS
        must stay under 180 MB (244 MB when each record was a BagRecord).

        The child reports its own high-water mark (``VmHWM``), which starts
        afresh at ``exec``; ``getrusage(RUSAGE_CHILDREN)`` would also carry
        the RSS of the forking test process."""
        n = 1_000_001
        path = tmp_path / "big.bag"
        child = (
            "import sys\n"
            "from hmas.bag import record\n"
            "from hmas.bus import Bus\n"
            "bus = Bus()\n"
            "pub = bus.advertise(bus.create_node('spot', 'driver'), 'gps/fix')\n"
            "with record(bus, ['/spot/gps/fix'], sys.argv[2]):\n"
            "    for i in range(int(sys.argv[1])):\n"
            "        pub.publish(float(i), b'')\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
        )
        src = str(Path(hmas.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", child, str(n), str(path)],
                              env=env, check=True, timeout=300, capture_output=True, text=True)
        peak_mb = int(done.stdout) / 1024.0  # VmHWM is in kB
        record_size = 4 + len("/spot/gps/fix") + 8 + 4
        data = path.read_bytes()
        assert len(data) == 6 + n * record_size
        tail = tmp_path / "tail.bag"  # the header and the last record
        tail.write_bytes(data[:6] + data[-record_size:])
        assert read_bag(tail) == [BagRecord("/spot/gps/fix", float(n - 1), b"")]
        assert peak_mb <= 180.0, f"peak RSS {peak_mb:.1f} MB"

    def test_recorder_is_not_a_bus_node(self, tmp_path):
        bus = Bus()
        pub = make_agent(bus, "spot")
        recorder = record(bus, ["/*"], tmp_path / "r.bag")
        assert bus.discover().nodes == frozenset({"/spot/driver"})
        assert (pub.publish(0.0, b"x").matched, pub.publish(1.0, b"y").enqueued) == (0, 0)
        recorder.stop()
        assert recorder.stop() == tmp_path / "r.bag"  # idempotent
        pub.publish(2.0, b"after stop")
        assert [r.payload for r in read_bag(tmp_path / "r.bag")] == [b"x", b"y"]


class TestReplay:
    def record_sequence(self, tmp_path, stamps=(0.0, 1.0, 3.0)):
        path = tmp_path / "src.bag"
        with BagWriter(path) as writer:
            for i, s in enumerate(stamps):
                writer.append("/spot/gps/fix", s, b"%d" % i)
        return path

    def test_round_trip_identity(self, tmp_path):
        bus = Bus()
        pub = make_agent(bus, "spot")
        path = tmp_path / "src.bag"
        with record(bus, ["/spot/*"], path):
            for i in range(50):
                pub.publish(i * 0.1, b"payload-%d" % i)

        fresh = Bus()
        listener = fresh.create_node("hmas", "display")
        sub = fresh.subscribe(listener, "/spot/gps/fix", DEEP)
        stats = replay(path, fresh, fast=True)
        assert stats.records == 50
        got = []
        while True:
            msg = fresh.take(sub)
            if msg is None:
                break
            got.append((msg.stamp, msg.payload))
        assert got == [(i * 0.1, b"payload-%d" % i) for i in range(50)]

    def test_empty_bag_completes(self, tmp_path):
        path = tmp_path / "empty.bag"
        BagWriter(path).close()
        stats = replay(path, Bus(), fast=True)
        assert stats.records == 0

    def test_rate_scales_gaps(self, tmp_path):
        path = self.record_sequence(tmp_path, stamps=(0.0, 1.0, 3.0))
        bus = Bus()
        arrivals = []
        node = bus.create_node("hmas", "display")
        sub = bus.subscribe(node, "/spot/gps/fix", DEEP)
        start = time.monotonic()
        replay(path, bus, rate=2.0)
        # all messages were published; recover their wall-clock spacing from
        # the replay duration instead (delivery is synchronous)
        elapsed = time.monotonic() - start
        assert abs(elapsed - 1.5) < 0.05  # gaps (0.5, 1.0) at rate 2
        count = 0
        while bus.take(sub) is not None:
            count += 1
        assert count == 3

    def test_fast_replay_collapses_gaps(self, tmp_path):
        path = self.record_sequence(tmp_path, stamps=(0.0, 5.0, 50.0))
        start = time.monotonic()
        stats = replay(path, Bus(), fast=True)
        assert time.monotonic() - start < 0.5
        assert stats.records == 3

    def test_replay_uses_original_namespaces(self, tmp_path):
        path = self.record_sequence(tmp_path)
        bus = Bus()
        replay(path, bus, fast=True)
        # replay node cleans up after itself
        assert bus.discover().nodes == frozenset()

    def test_rate_and_fast_are_exclusive(self, tmp_path):
        path = self.record_sequence(tmp_path)
        with pytest.raises(ValueError):
            replay(path, Bus(), rate=1.0, fast=True)
        with pytest.raises(ValueError):
            replay(path, Bus(), rate=-1.0)

    @pytest.mark.parametrize("rate", [0.0, math.nan, math.inf])
    def test_rate_must_be_positive_and_finite(self, tmp_path, rate):
        path = self.record_sequence(tmp_path)
        with pytest.raises(ValueError, match="rate"):
            replay(path, Bus(), rate=rate)

    def test_corrupt_source_fails_with_offset(self, tmp_path):
        path = self.record_sequence(tmp_path)
        data = path.read_bytes()
        bad = tmp_path / "bad.bag"
        bad.write_bytes(data[: len(data) - 1])
        with pytest.raises(BagFormatError):
            replay(bad, Bus(), fast=True)


ORACLE_TOPICS = ("/aa/gps/fix", "/bb/gps/fix", "/aa/cam", "/cc/cam", "/cc/gps/fix")
ORACLE_PATTERNS = (["/*/gps/fix"], ["/aa/*", "/cc/cam"])
oracle_ops = st.lists(st.one_of(
    st.tuples(st.just("advertise"), st.integers(0, len(ORACLE_TOPICS) - 1)),
    st.tuples(st.just("publish"), st.integers(0, 7), st.sampled_from([0.0, 0.0, 0.5, 1.0])),
    st.tuples(st.just("close"), st.integers(0, 7)),
), max_size=60)


@given(early=st.lists(st.integers(0, len(ORACLE_TOPICS) - 1), max_size=3), ops=oracle_ops,
       drop_rate=st.sampled_from([0.0, 0.4, 1.0]), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_recorded_bags_equal_writer_fed_in_publish_order(tmp_path_factory, early, ops,
                                                         drop_rate, seed):
    """Oracle: each recorder's bag equals a BagWriter fed the matching
    messages in publish order, whatever the drops, ties and late topics."""
    tmp = tmp_path_factory.mktemp("oracle")
    bus = Bus()
    bus.set_fault_injector(SeededDropInjector(drop_rate, seed))
    pubs, last_stamps, published = [], [], []

    def advertise(topic_index):
        name = QualifiedName.parse(ORACLE_TOPICS[topic_index])
        node = bus.create_node(name.namespace, f"driver_{len(pubs)}")
        bus.subscribe(node, name.full)  # best-effort: consults the injector
        pubs.append(bus.advertise(node, name.local))
        last_stamps.append(0.0)

    for topic_index in early:
        advertise(topic_index)
        pubs[-1].publish(0.0, b"before record")  # never recorded
    recorders = [record(bus, patterns, tmp / f"rec{i}.bag")
                 for i, patterns in enumerate(ORACLE_PATTERNS)]
    for op in ops:
        if op[0] == "advertise":
            advertise(op[1])
            continue
        if not pubs:
            continue
        slot = op[1] % len(pubs)
        pub = pubs[slot]
        if op[0] == "close":
            pub.close()
        elif not pub.closed:
            stamp = last_stamps[slot] = last_stamps[slot] + op[2]
            payload = b"%d" % len(published)
            pub.publish(stamp, payload)
            published.append((pub.topic.full, stamp, payload))
    for recorder, patterns in zip(recorders, ORACLE_PATTERNS):
        path = recorder.stop()
        oracle = tmp / f"oracle_{path.name}"
        with BagWriter(oracle) as writer:
            for topic, stamp, payload in published:
                if any(fnmatch.fnmatchcase(topic, pat) for pat in patterns):
                    writer.append(topic, stamp, payload)
        assert path.read_bytes() == oracle.read_bytes()


def _v1_bag(records) -> bytes:
    """Reference encoder for format v1: header, then the records sorted by
    stamp (stable) as u32 topic length, topic, f64 stamp, u32 payload length,
    payload."""
    out = [b"HBAG", struct.pack("<H", 1)]
    for topic, stamp, payload in sorted(records, key=lambda r: r[1]):
        encoded = topic.encode("utf-8")
        out += [struct.pack("<I", len(encoded)), encoded, struct.pack("<d", stamp),
                struct.pack("<I", len(payload)), payload]
    return b"".join(out)


writer_records = st.lists(st.tuples(
    st.sampled_from(["/a/gps/fix", "/b/gps/fix", "/ä/ß", "/日本/話題", "/r/ü"]),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.0]),
              st.floats(-1e9, 1e9, allow_nan=False)),
    st.one_of(st.just(b""), st.binary(max_size=24)),
), max_size=40)


@given(records=writer_records, chunk=st.sampled_from([1, 2, 3, 4096]))
@settings(max_examples=200, deadline=None)
def test_writer_bytes_equal_v1_encoder(tmp_path_factory, records, chunk):
    """Oracle: the writer's bytes equal a plain v1 encoder's, with stamp ties
    across topics, empty payloads, non-ASCII topics, and chunk boundaries
    that fall inside tie runs."""
    path = tmp_path_factory.mktemp("v1") / "w.bag"
    with mock.patch.object(bag_module, "_CHUNK_RECORDS", chunk):
        with BagWriter(path) as writer:
            for record in records:
                writer.append(*record)
    assert path.read_bytes() == _v1_bag(records)
