"""Reference bag reader: format v1 parsed one record at a time, as
``read_bag`` did before it read columns, and the ``bag_info`` and fast
``replay`` built on its records.

``test_bag.py`` checks that ``read_bag``, ``bag_info`` and ``replay`` agree
with it on written bags and on hand-made bytes, corrupt ones included.
"""
import struct
from pathlib import Path

from hmas.bag import BagFormatError, BagInfo, BagRecord
from hmas.bus import Bus, QosProfile, QualifiedName, Reliability

_HEADER = struct.Struct("<4sH")
_U32 = struct.Struct("<I")
_STAMP_LEN = struct.Struct("<dI")


def read_records(path) -> list[BagRecord]:
    """Every record of the bag at ``path``, in file order; a corrupt file
    raises ``BagFormatError`` at its first defect in file order."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise BagFormatError("file too short for bag header", 0)
    magic, version = _HEADER.unpack_from(data)
    if magic != b"HBAG":
        raise BagFormatError(f"bad magic {magic!r}", 0)
    if version != 1:
        raise BagFormatError(f"unsupported format version {version}", 4)
    records = []
    off = _HEADER.size
    total = len(data)
    while off < total:
        start = off
        if off + 4 > total:
            raise BagFormatError("truncated topic length", start)
        (topic_len,) = _U32.unpack_from(data, off)
        off += 4
        if off + topic_len + 12 > total:
            raise BagFormatError("truncated record", start)
        try:
            topic = data[off:off + topic_len].decode()
        except UnicodeDecodeError:
            raise BagFormatError("topic is not valid UTF-8", off) from None
        off += topic_len
        stamp, payload_len = _STAMP_LEN.unpack_from(data, off)
        off += 12
        if off + payload_len > total:
            raise BagFormatError("truncated payload", start)
        records.append(BagRecord(topic, stamp, data[off:off + payload_len]))
        off += payload_len
    return records


def info(records: list[BagRecord]) -> BagInfo:
    topics: dict[str, int] = {}
    for r in records:
        topics[r.topic] = topics.get(r.topic, 0) + 1
    stamps = [r.stamp for r in records]
    return BagInfo(len(records), topics, min(stamps) if stamps else None,
                   max(stamps) if stamps else None)


def replayed(records: list[BagRecord]) -> tuple[list, Exception | None]:
    """What a fast replay of ``records`` onto a fresh bus publishes, as
    ``(topic, stamp, payload)``, and the error that stops it, if any."""
    bus = Bus()
    published: list = []
    bus.add_publish_hook(lambda topic, stamp, payload: published.append(
        (topic.full, stamp, payload)))
    nodes, pubs = {}, {}
    qos = QosProfile(reliability=Reliability.RELIABLE, history_depth=1)
    try:
        for topic, stamp, payload in records:
            if topic not in pubs:
                name = QualifiedName.parse(topic)
                if name.namespace not in nodes:
                    nodes[name.namespace] = bus.create_node(name.namespace, "replay")
                pubs[topic] = bus.advertise(nodes[name.namespace], name.local, qos)
            bus.publish(pubs[topic], stamp, payload)
    except Exception as exc:  # the replay under test must stop with the same error
        return published, exc
    return published, None
