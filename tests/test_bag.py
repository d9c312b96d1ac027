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
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hmas
from hmas import bag as bag_module
from hmas.bag import (BagError, BagFormatError, BagRecord, BagWriter, Recorder, bag_info,
                      read_bag, record, replay)
from hmas.bus import (Bus, BusError, QosProfile, QualifiedName, Reliability,
                      SeededDropInjector)

import bag_oracle

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
        assert list(read_bag(path)) == records

    def test_empty_bag(self, tmp_path):
        path = tmp_path / "empty.bag"
        BagWriter(path).close()
        assert list(read_bag(path)) == []
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
        records = list(read_bag(path))
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
        assert list(read_bag(path)) == [BagRecord("/a/t", 1.0, b"x")]

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
        assert list(read_bag(path)) == []

    def test_thousand_publishes_recorded_in_order(self, tmp_path):
        bus = Bus()
        pub = make_agent(bus, "spot")
        path = tmp_path / "k.bag"
        with record(bus, ["/spot/gps/fix"], path):
            for i in range(1000):
                pub.publish(i / 14.0, b"%d" % i)
        got = list(read_bag(path))
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
        assert list(read_bag(tail)) == [BagRecord("/spot/gps/fix", float(n - 1), b"")]

    def test_a_million_publishes_record_in_bounded_memory(self, tmp_path):
        """The million-publish recording in a child process, whose peak RSS
        must stay under 64 MB: the writer holds one chunk, not the run
        (137-140 MB when it held the run as tuples, 244 MB when each record
        was a BagRecord).

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
        assert list(read_bag(tail)) == [BagRecord("/spot/gps/fix", float(n - 1), b"")]
        assert peak_mb <= 64.0, f"peak RSS {peak_mb:.1f} MB"

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

    @pytest.mark.parametrize("records, stop, reason", [
        ([("/aa/x", 2.0), ("/bb/x", 0.5), ("/aa/x", 1.0)], 2, "stamp 1.0 precedes 2.0 on /aa/x"),
        ([("/aa/x", 1.0), ("/Aa/x", -1.0)], 1, "invalid namespace segment 'Aa' in 'Aa'"),
    ], ids=["went-back-on-its-topic", "topic-before-stamp"])
    def test_a_bag_the_bus_would_refuse_publishes_nothing(self, tmp_path, records, stop, reason):
        """A hand-written bag is refused before its first publish, naming the
        record at which a record-at-a-time replay would stop."""
        path = tmp_path / "hand.bag"
        path.write_bytes(_v1_bytes([(topic, stamp, b"") for topic, stamp in records]))
        bus = Bus()
        seen = []
        bus.add_publish_hook(lambda *published: seen.append(published))
        with pytest.raises(BusError) as err:
            replay(path, bus, fast=True)
        assert str(err.value) == f"bag {path} record {stop}: {reason}"
        assert seen == [] and bus.discover().nodes == frozenset()

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


def _v1_bytes(records) -> bytes:
    """Format v1 bytes of the records in the given order: header, then each
    record as u32 topic length, topic, f64 stamp, u32 payload length,
    payload. Any stamp is written, NaN included."""
    out = [b"HBAG", struct.pack("<H", 1)]
    for topic, stamp, payload in records:
        encoded = topic.encode("utf-8")
        out += [struct.pack("<I", len(encoded)), encoded, struct.pack("<d", stamp),
                struct.pack("<I", len(payload)), payload]
    return b"".join(out)


def _v1_bag(records) -> bytes:
    """Reference encoder for format v1: the records sorted by stamp (stable)."""
    return _v1_bytes(sorted(records, key=lambda r: r[1]))


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


SWITCH_STAMPS = (-math.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 1.0, math.inf)
SWITCH_TOPICS = ("/a/gps/fix", "/b/gps/fix", "/ä/ß")


@given(chunk=st.sampled_from([1, 2, 3, 4096]), chunks=st.integers(0, 3), extra=st.integers(0, 3),
       pool=st.lists(st.sampled_from(SWITCH_STAMPS), min_size=1, max_size=6),
       topics=st.lists(st.sampled_from(SWITCH_TOPICS), min_size=1, max_size=3),
       back=st.none() | st.integers(0, len(SWITCH_STAMPS) - 1),
       tail=st.lists(st.tuples(st.sampled_from(SWITCH_TOPICS + ("/late/x",)),
                               st.sampled_from(SWITCH_STAMPS), st.binary(max_size=8)),
                     max_size=12))
@example(chunk=3, chunks=1, extra=0, pool=[0.0, 1.0], topics=["/a/gps/fix"], back=0,
         tail=[("/late/x", 0.0, b"x")])  # the switch on the very first chunk boundary
@example(chunk=2, chunks=3, extra=1, pool=[-math.inf, 0.5, math.inf], topics=["/b/gps/fix"],
         back=None, tail=[])  # no switch
@settings(max_examples=150, deadline=None)
def test_writer_switching_to_holding_equals_v1_encoder(tmp_path_factory, chunk, chunks, extra,
                                                       pool, topics, back, tail):
    """Oracle for the switch: a stamp-sorted prefix spanning several written
    chunks, then a tail whose first stamp is below the last one written,
    gives the plain v1 encoder's bytes; ties at the switch, ``0.0`` beside
    ``-0.0``, infinite stamps and a topic first seen after the switch
    included. With ``back`` None nothing goes back and the tail is dropped."""
    count = max(1, chunks * chunk + extra)
    stamps = sorted(pool[i % len(pool)] for i in range(count))
    records = [(topics[i % len(topics)], stamp, b"%d" % i) for i, stamp in enumerate(stamps)]
    if back is None:
        tail = []
    else:
        below = [s for s in SWITCH_STAMPS if s < stamps[-1]]
        assume(below)
        topic = SWITCH_TOPICS[back % len(SWITCH_TOPICS)]
        tail = [(topic, below[back % len(below)], b"back")] + tail
    path = tmp_path_factory.mktemp("switch") / "w.bag"
    with mock.patch.object(bag_module, "_CHUNK_RECORDS", chunk):
        with BagWriter(path) as writer:
            for record in records:
                writer.append(*record)
            for record in tail:
                writer.append(*record)
                assert path.read_bytes() == _v1_bytes([])  # held from the switch on
    assert path.read_bytes() == _v1_bag(records + tail)


def _bits(value):
    """A stamp as its eight bytes, so that NaN compares equal to itself."""
    return value if value is None else struct.pack("<d", value)


def _stamp_bits(records):
    return [(topic, _bits(stamp), payload) for topic, stamp, payload in records]


def _outcome(read, path):
    try:
        return read(path), None
    except BagFormatError as err:
        return None, (str(err), err.offset)


REPLAYABLE_TOPICS = ("/aa/gps/fix", "/bb/gps/fix", "/aa/cam", "/c/x_1")
oracle_records = st.lists(st.tuples(
    st.sampled_from(REPLAYABLE_TOPICS + ("", "/a", "/ä/ß", "/日本/話題")),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5]), st.sampled_from([math.inf, -math.inf]),
              st.floats(-1e9, 1e9, allow_nan=False)),
    st.one_of(st.just(b""), st.binary(min_size=1, max_size=24)),
), max_size=30)


@given(records=oracle_records, tame=st.booleans(),
       source=st.sampled_from(["writer", "hand", "noise"]),
       nan_at=st.none() | st.integers(0, 29), noise=st.binary(max_size=48),
       flip=st.none() | st.tuples(st.integers(0, 10**6), st.integers(0, 255)),
       cut=st.none() | st.integers(-40, -2) | st.integers(-10**6, 10**6))
@settings(max_examples=300, deadline=None)
def test_columns_agree_with_the_record_at_a_time_reader(tmp_path_factory, records, tame, source,
                                                        nan_at, noise, flip, cut):
    """Oracle: on written bags, hand-made bags (NaN stamps included) and
    noise after a header, each perhaps with a byte changed inside a topic and
    then cut at a random offset, ``read_bag``, ``bag_info`` and ``replay``
    agree with a reader that parses one record at a time, errors included."""
    path = tmp_path_factory.mktemp("columns") / "o.bag"
    if tame:  # topics and stamps that a replay takes, so that it publishes every record
        records = [(topic if topic in REPLAYABLE_TOPICS else "/aa/gps/fix",
                    stamp if 0.0 <= stamp < math.inf else 1.0, payload)
                   for topic, stamp, payload in records]
    if source == "writer":
        with BagWriter(path) as writer:
            for record in records:
                writer.append(*record)
        data = path.read_bytes()
    elif source == "hand":
        if nan_at is not None and records:
            topic, _, payload = records[nan_at % len(records)]
            records[nan_at % len(records)] = (topic, math.nan, payload)
        data = _v1_bytes(records)
    else:
        data = b"HBAG\x01\x00" + noise
    if flip is not None and source != "noise":
        path.write_bytes(data)
        spans, off = [], 6  # the byte offsets of every topic's bytes
        for topic, _, payload in bag_oracle.read_records(path):
            size = len(topic.encode())
            spans += range(off + 4, off + 4 + size)
            off += 16 + size + len(payload)
        if spans:
            at = spans[flip[0] % len(spans)]
            data = data[:at] + bytes([flip[1]]) + data[at + 1:]
    if cut is not None:
        data = data[:cut % (len(data) + 1)]  # a negative cut counts from the end
    path.write_bytes(data)

    want, want_error = _outcome(bag_oracle.read_records, path)
    got, got_error = _outcome(read_bag, path)
    assert got_error == want_error
    if want_error is not None:
        assert _outcome(bag_info, path)[1] == want_error
        assert _outcome(lambda p: replay(p, Bus(), fast=True), path)[1] == want_error
        return
    assert len(got) == len(want)
    listed = list(got)
    assert all(type(r) is BagRecord for r in listed)
    assert _stamp_bits(listed) == _stamp_bits(want)
    topics = {}
    assert all(topics.setdefault(r.topic, r.topic) is r.topic for r in listed)

    info, expected = bag_info(path), bag_oracle.info(want)
    assert (info.record_count, info.topics) == (expected.record_count, expected.topics)
    assert list(info.topics) == list(expected.topics)
    assert _bits(info.start_stamp) == _bits(expected.start_stamp)
    assert _bits(info.end_stamp) == _bits(expected.end_stamp)

    published, error = bag_oracle.replayed(want, path)
    bus = Bus()
    seen = []
    bus.add_publish_hook(lambda topic, stamp, payload: seen.append((topic.full, stamp, payload)))
    try:
        replay(path, bus, fast=True)
    except Exception as exc:
        assert (type(exc), str(exc)) == (type(error), str(error))
    else:
        assert error is None
    assert _stamp_bits(seen) == _stamp_bits(published)



@given(records=st.lists(st.tuples(
    st.sampled_from(REPLAYABLE_TOPICS + ("", "/a", "/ä/ß", "/Aa/x")),
    st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0, -1.0, math.inf, -math.inf]),
              st.floats(-10.0, 1e9, allow_nan=False)),
    st.binary(max_size=8)), max_size=20), tame=st.booleans(), rate=st.booleans())
@example(records=[("/aa/gps/fix", 1.0, b""), ("/aa/gps/fix", 2.0, b""),
                  ("/aa/gps/fix", math.inf, b"")], tame=False, rate=False)  # inf sorts last
@settings(max_examples=200, deadline=None)
def test_replay_of_a_written_bag_is_all_or_nothing(tmp_path_factory, records, tame, rate):
    """Every bag that the writer accepts either replays in full, or is
    refused before anything is published with one error: the bus's reason
    at the record where a record-at-a-time replay would stop, prefixed
    ``bag <path> record <i>: ``. This holds for a realtime replay too."""
    if tame:  # topics and stamps that a replay takes, so that both outcomes are common
        records = [(topic if topic in REPLAYABLE_TOPICS else "/aa/gps/fix",
                    stamp if 0.0 <= stamp < math.inf else 1.0, payload)
                   for topic, stamp, payload in records]
    path = tmp_path_factory.mktemp("all_or_nothing") / "w.bag"
    with BagWriter(path) as writer:
        for record in records:
            writer.append(*record)
    written = list(read_bag(path))
    published, error = bag_oracle.replayed(written, path)
    bus = Bus()
    seen = []
    bus.add_publish_hook(lambda topic, stamp, payload: seen.append((topic.full, stamp, payload)))
    try:
        stats = replay(path, bus, rate=1e12) if rate else replay(path, bus, fast=True)
    except Exception as exc:
        assert error is not None
        assert (type(exc), str(exc)) == (type(error), str(error))
        assert str(exc).startswith(f"bag {path} record ")
        assert seen == []
        assert bus.discover().nodes == frozenset()
    else:
        assert error is None
        assert stats.records == len(written)
        assert _stamp_bits(seen) == _stamp_bits(written)


def _assert_agrees_with_the_record_at_a_time_reader(path):
    """``read_bag``, ``bag_info`` and fast ``replay`` of the bag at ``path``
    give what the record-at-a-time reader's records give, errors included."""
    want, want_error = _outcome(bag_oracle.read_records, path)
    got, got_error = _outcome(read_bag, path)
    assert got_error == want_error
    if want_error is not None:
        assert _outcome(bag_info, path)[1] == want_error
        assert _outcome(lambda p: replay(p, Bus(), fast=True), path)[1] == want_error
        return
    assert _stamp_bits(list(got)) == _stamp_bits(want)
    info, expected = bag_info(path), bag_oracle.info(want)
    assert info == expected and list(info.topics) == list(expected.topics)
    published, error = bag_oracle.replayed(want, path)
    bus = Bus()
    seen = []
    bus.add_publish_hook(lambda topic, stamp, payload: seen.append((topic.full, stamp, payload)))
    try:
        replay(path, bus, fast=True)
    except Exception as exc:
        assert (type(exc), str(exc)) == (type(error), str(error))
    else:
        assert error is None
    assert _stamp_bits(seen) == _stamp_bits(published)


# a pattern of (topic, payload length) records, from one record to more than
# the longest period that ``read_bag`` guesses
record_patterns = st.lists(st.tuples(st.sampled_from(REPLAYABLE_TOPICS + ("/ä/ß",)),
                                     st.integers(0, 12)),
                           min_size=1, max_size=bag_module._MAX_PERIOD + 3)


@given(pattern=record_patterns, count=st.integers(100, 2500),
       breaks=st.lists(st.tuples(st.integers(0, 2499), st.booleans()), max_size=3),
       flip=st.none() | st.tuples(st.integers(0, 2499), st.booleans(), st.integers(0, 3),
                                  st.integers(0, 255)),
       cut=st.none() | st.integers(0, 10**6),
       stretch=st.sampled_from([256, 2048, bag_module._WALK_BYTES]))
@example(pattern=[(REPLAYABLE_TOPICS[i % 4], i) for i in range(bag_module._MAX_PERIOD + 2)],
         count=2000, breaks=[], flip=None, cut=None, stretch=256)  # no period the walk guesses
@example(pattern=[("/aa/gps/fix", 8), ("/bb/gps/fix", 9)], count=2500,
         breaks=[(1000, False), (1500, True)], flip=(2000, True, 1, 7), cut=-3,
         stretch=bag_module._WALK_BYTES)
@settings(max_examples=200, deadline=None)
def test_long_bags_agree_with_the_record_at_a_time_reader(tmp_path_factory, pattern, count,
                                                          breaks, flip, cut, stretch):
    """Oracle over bags long enough that ``read_bag`` guesses and checks
    their period: a repeated pattern of records, perhaps broken by a record of
    another length or a topic first seen mid-bag, with perhaps one byte of a
    record's topic or payload length changed, then perhaps cut at a random
    offset. The walk's first stretch is drawn too, so that short bags reach
    the checked guesses as often as long ones."""
    records = []
    for i in range(count):
        topic, size = pattern[i % len(pattern)]
        records.append((topic, i / 14.0, bytes([i % 256]) * size))
    for at, late_topic in breaks:
        topic, stamp, payload = records[at % count]
        records[at % count] = ((f"/late{at}/x", stamp, payload) if late_topic
                               else (topic, stamp, payload + b"!"))
    data = _v1_bytes(records)
    if flip is not None:
        at, in_payload_len, byte, value = flip
        off = 6  # the start of record ``at``
        for topic, _, payload in records[:at % count]:
            off += 16 + len(topic.encode()) + len(payload)
        if in_payload_len:
            off += 12 + len(records[at % count][0].encode())
        data = data[:off + byte] + bytes([value]) + data[off + byte + 1:]
    if cut is not None:
        data = data[:cut % (len(data) + 1)]
    path = tmp_path_factory.mktemp("long") / "l.bag"
    path.write_bytes(data)
    with mock.patch.object(bag_module, "_WALK_BYTES", stretch):
        _assert_agrees_with_the_record_at_a_time_reader(path)

def test_bag_info_takes_stamps_as_floats_with_nan_among_them(tmp_path):
    """A hand-written file may hold a NaN stamp; ``bag_info`` takes start and
    end over the stamps in bag order, as Python's ``min`` and ``max`` do."""
    path = tmp_path / "nan.bag"
    path.write_bytes(_v1_bytes([("/a/t", 1.0, b""), ("/a/t", math.nan, b"x"),
                                ("/b/t", 0.5, b"")]))
    info = bag_info(path)
    assert (info.record_count, info.topics) == (3, {"/a/t": 2, "/b/t": 1})
    assert (info.start_stamp, info.end_stamp) == (0.5, 1.0)
    path.write_bytes(_v1_bytes([("/a/t", math.nan, b""), ("/a/t", 1.0, b"")]))
    info = bag_info(path)
    assert math.isnan(info.start_stamp) and math.isnan(info.end_stamp)
