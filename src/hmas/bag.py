"""Binary record/replay of bus traffic.

File layout (little-endian): magic ``HBAG``, u16 format version, then per
record u32 topic length, topic bytes, f64 stamp, u32 payload length, payload.
Records are stored sorted by stamp, ties broken by write order.

A ``Recorder`` is not a bus node: it is a bus publish hook, called as
``(topic, stamp, payload)`` for each publish, in publish order and before fault
injection, so recording is lossless by construction and needs no ``Message``.
The ``BagWriter`` has one write path: it encodes each record as it comes and
writes every ``_CHUNK_RECORDS`` records in one write, holding one chunk, not
the run. Every producer hands it its records in stamp order, and then that is
all. A stamp below the last one taken only marks the file unsorted, and
``close()`` (``Recorder.stop()``) reads the file back once and rewrites its
records in stable stamp order, as slices of the bytes it read. Recording
1,000,001 empty-payload messages in order peaks at 32 MB RSS, against 140 MB
when the writer held every run as tuples and 244 MB when it held each record
as a frozen dataclass. With one more record whose stamp goes back, the sort
at close peaks at 159 MB in 1.8 s, against 198 MB in 2.5-2.9 s when the writer
switched to holding the run at the first late stamp.

``read_bag`` returns ``BagColumns``: the file's bytes and, per record, its
topic index, stamp, payload offset and payload length. Where a record starts
follows from the two length fields of the record before it, so finding the
starts is a walk. A Python loop walks a stretch of records, reading only those
two fields. The walk then guesses that the stretch's records repeat with a
short period, as a board bag's corners do, and checks each predicted record's
two length fields in numpy; it takes the records up to the first that differs
and resumes the Python loop there. Only records wholly inside the file are
checked, so the Python loop alone meets every truncation. A guess that takes
fewer bytes than its stretch walked makes the next stretch four times as long,
so a bag without a short period is walked in Python almost wholly, with few
guesses. numpy reads every other column from the bytes, and each distinct
topic is decoded once. ``BagRecord`` tuples are built only when the columns
are iterated, so ``bag_info`` and analysis build none. On the 2 h static bag
(403,200 records, 33 MB) ``bag_info`` takes 0.34-0.40 s at 93 MB peak RSS in a
fresh process, against 0.47-0.68 s at 93 MB when the Python loop walked every
record, and 0.96-1.51 s at 142 MB when the reader built a record per entry.

The writer takes any stamp but NaN and any topic, and reading is as lenient,
so ``bag_info`` shows any such file. ``replay`` publishes a bag whole or not at
all: before its first publish it checks the columns for what the bus refuses,
a topic that is not a bus name or a stamp outside ``0 <= stamp < inf`` or below
the last one on its topic, and raises the bus's reason, prefixed with the bag
and the record at which a replay of one record at a time would stop.
"""
from __future__ import annotations

import fnmatch
import math
import struct
import time
from array import array
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .bus import (Bus, DuplicateNodeError, InvalidNameError, PublisherHandle, QosProfile,
                  QualifiedName, Reliability, stamp_error)

MAGIC = b"HBAG"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sH")
_U32 = struct.Struct("<I")
_STAMP_LEN = struct.Struct("<dI")  # a record's f64 stamp and u32 payload length
_CHUNK_RECORDS = 4096  # records per write, and made per chunk on iteration
_WALK_BYTES = 16384  # bytes of records walked one at a time before the first guess of a period
_MAX_PERIOD = 16  # the longest period of record lengths that the walk guesses
_MAX_CHECK_RECORDS = 1 << 16  # predicted records checked in one numpy pass, at most


class BagError(Exception):
    pass


class BagFormatError(BagError):
    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class BagRecord(NamedTuple):
    topic: str  # full form, e.g. "/spot/gps/fix"
    stamp: float
    payload: bytes


@dataclass(frozen=True)
class BagInfo:
    record_count: int
    topics: dict[str, int]  # topic -> record count
    start_stamp: float | None
    end_stamp: float | None


class BagWriter:
    """Writes records stamp-sorted (stable), holding one chunk, not the run.

    Each record is encoded as it is appended, and every ``_CHUNK_RECORDS``
    records go to the sink in one write. A stamp below the last one taken
    only marks the file unsorted: ``close`` then reads it back once with
    ``read_bag``, truncates it to its header and writes its records again,
    in stable stamp order, as slices of the bytes it read. The sink is
    opened immediately so an unwritable path fails fast.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "wb")
        self._fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION))
        self._chunk_parts = 3 * _CHUNK_RECORDS  # three encoded parts per record
        self._parts: list[bytes] = []  # the pending chunk, encoded
        self._prefixes: dict[str, bytes] = {}  # topic -> u32 length + UTF-8 bytes
        self._last = -math.inf  # the last stamp taken
        self._sorted = True  # no stamp taken was below the one before it
        self._closed = False

    def append(self, topic: str, stamp: float, payload: bytes) -> None:
        if self._closed:
            raise BagError(f"bag writer for {self.path} is closed")
        if not self._last <= stamp:  # NaN, or a stamp that went back
            if stamp != stamp:  # only NaN; it would break the stable stamp sort
                raise BagError(f"NaN stamp on {topic}")
            self._sorted = False
        self._last = stamp
        prefix = self._prefixes.get(topic)
        if prefix is None:
            encoded = topic.encode()
            prefix = self._prefixes[topic] = _U32.pack(len(encoded)) + encoded
        payload = bytes(payload)
        parts = self._parts
        parts += (prefix, _STAMP_LEN.pack(stamp, len(payload)), payload)
        if len(parts) >= self._chunk_parts:
            self._fh.write(b"".join(parts))
            parts.clear()

    def _sort(self) -> None:
        """Rewrite the file's records in stable stamp order, a chunk at a time."""
        self._fh.flush()
        records = read_bag(self.path)
        data, end = records.data, records.payload_start + records.payload_len
        start = np.concatenate(([_HEADER.size], end[:-1]))  # the records lie end to end
        order = np.argsort(records.stamps, kind="stable")
        self._fh.seek(_HEADER.size)
        self._fh.truncate()
        for first in range(0, len(order), _CHUNK_RECORDS):
            chunk = order[first:first + _CHUNK_RECORDS]
            self._fh.write(b"".join(
                data[a:b] for a, b in zip(start[chunk].tolist(), end[chunk].tolist())))

    def close(self) -> None:
        if self._closed:
            return
        try:
            self._fh.write(b"".join(self._parts))
            if not self._sorted:
                self._sort()
        finally:
            self._closed = True
            self._parts = []
            self._fh.close()

    def __enter__(self) -> "BagWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True, eq=False)
class BagColumns:
    """A bag read as columns over its file's bytes, one entry per record in
    bag order; ``BagRecord`` tuples are built only when it is iterated."""

    data: bytes = field(repr=False)  # the whole file
    topics: tuple[str, ...]  # distinct topics, in order of first appearance
    topic_index: np.ndarray  # int64 index into ``topics``
    stamps: np.ndarray  # float64
    payload_start: np.ndarray  # int64 byte offset into ``data``
    payload_len: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.stamps)

    def __iter__(self) -> Iterator[BagRecord]:
        data, topics, new_record = self.data, self.topics, tuple.__new__
        for t, stamp, start, end in self._rows():
            yield new_record(BagRecord, (topics[t], stamp, data[start:end]))

    def _rows(self) -> Iterator[tuple[int, float, int, int]]:
        """(topic index, stamp, payload start, payload end) per record, made
        as Python values a chunk of records at a time."""
        columns = (self.topic_index, self.stamps, self.payload_start,
                   self.payload_start + self.payload_len)
        return chain.from_iterable(
            zip(*(c[first:first + _CHUNK_RECORDS].tolist() for c in columns))
            for first in range(0, len(self), _CHUNK_RECORDS))

    def payloads(self, index, dtype) -> np.ndarray:
        """The payloads of the records at ``index`` read as numpy ``dtype``,
        whose itemsize must be each of those payloads' length."""
        dtype = np.dtype(dtype)
        if np.any(self.payload_len[index] != dtype.itemsize):
            raise ValueError(f"payloads read as {dtype} must be {dtype.itemsize} bytes long")
        return _at(self.data, dtype, self.payload_start[index])


def _at(data: bytes, dtype, offsets: np.ndarray) -> np.ndarray:
    """One ``dtype`` item read at each byte offset of ``data``."""
    dtype = np.dtype(dtype)
    if len(offsets) == 0:
        return np.empty(0, dtype)
    every = np.ndarray((len(data) - dtype.itemsize + 1,), dtype, data, 0, (1,))
    return every[offsets]


def read_bag(path) -> BagColumns:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise BagFormatError("file too short for bag header", 0)
    magic, version = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BagFormatError(f"bad magic {magic!r}", 0)
    if version != FORMAT_VERSION:
        raise BagFormatError(f"unsupported format version {version}", 4)
    start, truncated = _record_starts(data)
    topic_at = start + 4
    topic_len = _at(data, "<u4", start).astype(np.int64)
    stamp_at = topic_at + topic_len
    # topics are decoded before a truncation is reported, as a record-at-a-time
    # reader meets them; the topic of a record whose payload is cut is one of them
    topics, topic_index = _decode_topics(data, topic_at, topic_len)
    if truncated is not None:
        raise BagFormatError(*truncated)
    return BagColumns(data, topics, topic_index, _at(data, "<f8", stamp_at),
                      stamp_at + 12, _at(data, "<u4", stamp_at + 8).astype(np.int64))


def _record_starts(data: bytes) -> tuple[np.ndarray, tuple[str, int] | None]:
    """Each whole record's start offset, in file order, and the (message,
    record start) of the first truncation, if any.

    A Python loop walks a stretch of records, reading only each record's two
    length fields. After each stretch, ``_checked_repeats`` takes the records
    that repeat the stretch's period, each checked in numpy, and the walk
    resumes at the first record that breaks it. Only checked records are
    taken, so the Python walk alone reaches the end of the file and finds every
    truncation. A guess that takes fewer bytes than its stretch walked makes
    the next stretch four times as long, so a bag whose lengths do not repeat
    is walked in Python almost wholly, with few guesses.
    """
    total = len(data)
    unpack_len = _U32.unpack_from
    pieces = []  # start offsets, walked and checked, in file order
    off, stretch = _HEADER.size, _WALK_BYTES
    truncated = None
    while True:
        starts = array("q")
        append = starts.append
        limit = min(total, off + stretch)
        while off < limit:
            if off + 4 > total:
                truncated = ("truncated topic length", off)
                break
            end = off + 16 + unpack_len(data, off)[0]  # past the topic, stamp and payload length
            if end > total:
                truncated = ("truncated record", off)
                break
            append(off)
            off = end + unpack_len(data, end - 4)[0]
        pieces.append(np.frombuffer(starts, dtype=np.int64))
        if off > total:  # the last record's payload runs past the end
            truncated = ("truncated payload", starts[-1])
        if truncated is not None or off >= total:
            return np.concatenate(pieces), truncated
        guessed_at = off
        checked, off = _checked_repeats(data, starts, off)
        pieces += checked
        stretch = _WALK_BYTES if off - guessed_at >= stretch else 4 * stretch


def _checked_repeats(data: bytes, walked: array, end: int) -> tuple[list[np.ndarray], int]:
    """The starts of the records from ``end`` on that repeat the period of the
    ``walked`` record starts before it, in pieces, and the start of the first
    record after them.

    The period is the smallest p, up to ``_MAX_PERIOD``, at which the lengths
    of the walked records repeat: it is looked for in the last
    ``2 * _MAX_PERIOD`` of them, then checked over them all. The records that
    follow are predicted by repeating the last p of them, topic and payload
    lengths alike, and each predicted record that lies wholly inside the file
    is checked: a predicted start is a true start when the one before it was and
    that record's two length fields are the predicted ones. So the records are
    taken up to the first whose fields differ.
    """
    taken: list[np.ndarray] = []
    if len(walked) < 2 * _MAX_PERIOD:
        return taken, end
    tail = walked[-2 * _MAX_PERIOD:].tolist() + [end]
    sizes = [b - a for a, b in zip(tail, tail[1:])]
    last = sizes[-1]
    p = next((p for p in range(1, _MAX_PERIOD + 1)
              if sizes[-1 - p] == last and sizes[p:] == sizes[:-p]), 0)
    if not p:
        return taken, end
    starts = np.frombuffer(walked, dtype=np.int64)
    if not (starts[p:] - starts[:-p] == tail[-1] - tail[-1 - p]).all():
        return taken, end
    # per record of one period: the offsets of its two length fields from the
    # period's start, and the lengths they must hold; then the period's bytes
    fields, lengths, period = [], [], 0
    for start, size in zip(tail[-p - 1:], sizes[-p:]):
        topic_len = _U32.unpack_from(data, start)[0]
        fields.append((period, period + 12 + topic_len))
        lengths.append((topic_len, size - 16 - topic_len))
        period += size
    fields, lengths = np.array(fields), np.array(lengths)
    batch = len(walked)  # records checked in one numpy pass; doubles while they hold
    while periods := min(batch // p, (len(data) - end) // period):
        at = np.add.outer(np.arange(end, end + periods * period, period), fields)
        wrong = (_at(data, "<u4", at) != lengths).reshape(-1)
        at = at.reshape(-1, 2)
        first = int(wrong.argmax())
        if wrong[first]:
            taken.append(at[:first // 2, 0])
            return taken, int(at[first // 2, 0])
        taken.append(at[:, 0])
        end += periods * period
        batch = min(2 * batch, _MAX_CHECK_RECORDS)
    return taken, end


def _decode_topics(data: bytes, topic_at: np.ndarray,
                   topic_len: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """Each distinct topic, decoded once, in order of first appearance, and
    each record's index into them; the first topic in file order that is not
    UTF-8 raises at its own offset."""
    raw: list[bytes] = []  # distinct topic bytes
    first: list[int] = []  # the record each first appears in
    found = np.empty(len(topic_at), dtype=np.int64)  # index into ``raw``
    for size in np.unique(topic_len).tolist():
        index = np.flatnonzero(topic_len == size)
        distinct, at, inverse = np.unique(_at(data, f"V{size}", topic_at[index]),
                                          return_index=True, return_inverse=True)
        found[index] = inverse.reshape(-1) + len(raw)
        raw += distinct.tolist()
        first += index[at].tolist()
    order = sorted(range(len(raw)), key=first.__getitem__)
    topics = []
    for i in order:
        try:
            topics.append(raw[i].decode())
        except UnicodeDecodeError:
            raise BagFormatError("topic is not valid UTF-8", int(topic_at[first[i]])) from None
    rank = np.empty(len(raw), dtype=np.int64)
    rank[order] = np.arange(len(raw))
    return tuple(topics), rank[found]


def bag_info(path) -> BagInfo:
    records = read_bag(path)
    counts = np.bincount(records.topic_index, minlength=len(records.topics)).tolist()
    stamps = records.stamps.tolist()  # min/max as over floats, NaN included
    return BagInfo(len(records), dict(zip(records.topics, counts)),
                   min(stamps) if stamps else None,
                   max(stamps) if stamps else None)


class Recorder:
    """Writes every message published on a topic that matches the filter
    patterns into the sink bag.

    The recorder is not a bus node and holds no subscription: it is a publish
    hook, so the bus hands it each publish's ``(topic, stamp, payload)`` before
    fault injection and delivery, and recording is lossless by construction,
    at any message count and whatever the live QoS profiles. Topics advertised
    after start are recorded too. The bag writer writes the records through;
    ``stop()`` writes the last chunk and, if a stamp went back, sorts the file.
    """

    def __init__(self, bus: Bus, patterns: Sequence[str], sink) -> None:
        if not patterns:
            raise ValueError("recorder needs at least one topic filter pattern")
        self._bus = bus
        self._patterns = list(patterns)
        self._matched: dict[str, bool] = {}  # topic -> matches a pattern
        self._writer = BagWriter(sink)
        self._append = self._writer.append
        bus.add_publish_hook(self._on_publish)

    @property
    def path(self) -> Path:
        return self._writer.path

    def _on_publish(self, topic: QualifiedName, stamp: float, payload: bytes) -> None:
        full = topic.full
        matched = self._matched.get(full)
        if matched is None:
            matched = self._matched[full] = any(
                fnmatch.fnmatchcase(full, pat) for pat in self._patterns)
        if matched:
            self._append(full, stamp, payload)

    def stop(self) -> Path:
        """Detach from the bus and finish the bag; later calls only return its path."""
        self._bus.remove_publish_hook(self._on_publish)
        self._writer.close()
        return self._writer.path

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def record(bus: Bus, patterns: Sequence[str], sink) -> Recorder:
    """Start recording every topic matching the glob patterns into ``sink``."""
    return Recorder(bus, patterns, sink)


@dataclass(frozen=True)
class ReplayStats:
    records: int
    topics: dict[str, int]


def replay(path, bus: Bus, rate: float | None = None, fast: bool = False) -> ReplayStats:
    """Republish a bag onto ``bus`` on the original topics.

    With a finite ``rate`` r > 0 the inter-record gaps are scaled by 1/r against the
    wall clock; with ``fast`` (or an empty rate) gaps collapse and only order
    is preserved. Publishers are created under each original namespace as
    ``/<ns>/replay`` so the relative-advertise rule stays intact. A bag with a
    record that the bus would refuse is refused before anything is published,
    with an error naming the bag and that record.
    """
    if fast and rate is not None:
        raise ValueError("pass either a realtime rate or fast, not both")
    if rate is not None and not 0.0 < rate < math.inf:
        raise ValueError(f"realtime rate must be positive and finite, got {rate}")
    if rate is None:
        fast = True
    records = read_bag(path)
    names = _replayable(path, records)
    data, topics, publish = records.data, records.topics, bus.publish
    nodes = {}
    pubs: list[PublisherHandle | None] = [None] * len(topics)  # per topic index
    replay_qos = QosProfile(reliability=Reliability.RELIABLE, history_depth=1)
    try:
        start_wall = time.monotonic()
        first_stamp = float(records.stamps[0]) if len(records) else 0.0
        for t, stamp, start, end in records._rows():
            pub = pubs[t]
            if pub is None:
                name = names[t]
                if name.namespace not in nodes:
                    nodes[name.namespace] = _replay_node(bus, name.namespace)
                pub = pubs[t] = bus.advertise(nodes[name.namespace], name.local, replay_qos)
            if not fast:
                target = start_wall + (stamp - first_stamp) / rate
                delay = target - time.monotonic()
                if delay > 0.0:
                    time.sleep(delay)
            publish(pub, stamp, data[start:end])
    finally:
        for node in nodes.values():
            node.close()
    counts = np.bincount(records.topic_index, minlength=len(topics)).tolist()
    return ReplayStats(len(records), dict(zip(topics, counts)))


def _replayable(path, records: BagColumns) -> list[QualifiedName]:
    """Each topic as a bus name, once every record is one that a replay can
    publish; otherwise the bus error at which the replay would stop, raised
    before it publishes anything and prefixed with the bag and the record.

    A replay stops at a record whose topic is not a bus name or whose stamp
    the bus refuses: one outside ``0 <= stamp < inf``, or one below the last
    stamp on its topic."""
    stamps, index = records.stamps, records.topic_index
    stop, error = len(records), None  # the record at which the replay stops, and why
    names = []
    for t, topic in enumerate(records.topics):
        try:
            names.append(QualifiedName.parse(topic))
        except InvalidNameError as err:  # topics are in order of first appearance
            stop, error = int(np.argmax(index == t)), err
            break
    wrong = ~((0.0 <= stamps) & (stamps < math.inf))
    if not (stamps[1:] >= stamps[:-1]).all():  # else no topic's stamps go back
        order = np.argsort(index, kind="stable")  # each topic's records, in bag order
        wrong[order[1:]] |= ((index[order[1:]] == index[order[:-1]])
                             & (stamps[order[1:]] < stamps[order[:-1]]))
    if wrong[:stop].any():  # a record's topic is taken before its stamp
        stop = int(wrong.argmax())
        earlier = stamps[:stop][index[:stop] == index[stop]]
        last = float(earlier[-1]) if len(earlier) else 0.0
        error = stamp_error(float(stamps[stop]), last, records.topics[index[stop]])
    if error is not None:
        raise type(error)(f"bag {path} record {stop}: {error}")
    return names


def _replay_node(bus: Bus, namespace: str):
    i = 0
    while True:
        local = "replay" if i == 0 else f"replay_{i}"
        try:
            return bus.create_node(namespace, local)
        except DuplicateNodeError:
            i += 1
