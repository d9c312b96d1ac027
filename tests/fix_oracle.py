"""A bag's fixes as objects: every record decoded on its own through
``read_bag`` and ``decode_fix``, grouped by rover id, each group in bag order.

Tests that look at single fixes read a bag here. ``bench.load_bag_fixes``
reads the same bag as per-rover columns, and ``test_bench.py`` checks that it
equals this view, bit for bit. The payloads that ``encode_fix`` could not have
written, for the tests of the reader's errors, are here too.
"""
import math
import struct

from hmas.bag import BagWriter, read_bag
from hmas.bench import CORNERS
from hmas.geo import FixQuality, GeodeticCoord, RtkFix, decode_fix, encode_fix


def decoded_fixes(path) -> dict[str, list[RtkFix]]:
    out: dict[str, list[RtkFix]] = {}
    for record in read_bag(path):
        fix = decode_fix(record.payload)
        out.setdefault(fix.rover_id, []).append(fix)
    return out


def bad_payloads() -> dict[str, tuple[bytes, str]]:
    """Name -> (a payload ``encode_fix`` could not have written, the detail
    that the reader's error gives for it)."""
    good = encode_fix(RtkFix("top_left", GeodeticCoord(48.7, 6.15, 220.0), FixQuality.FIXED, 1.0))
    head = good[:33]  # stamp, lat, lon, alt and the quality code
    return {
        "short": (bytes(10), "a 10-byte payload is too short"),
        "quality_3": (good[:32] + b"\x03" + good[33:],
                      "quality code 3 (0-2), rover id length 8 (8)"),
        "bytes_after_id": (good + b"x", "rover id length 8 (9)"),
        "id_past_the_end": (head + (9).to_bytes(4, "little") + b"top_left",
                            "rover id length 9 (8)"),
        "latitude_100": (good[:8] + struct.pack("<d", 100.0) + good[16:], "lla [100."),
        "nan_altitude": (good[:24] + struct.pack("<d", math.nan) + good[32:], "nan]"),
        "id_not_utf8": (head + (2).to_bytes(4, "little") + b"\xff\xfe",
                        "rover id 'utf-8' codec can't decode byte 0xff"),
    }


def unanalysable_payloads() -> dict[str, tuple[bytes, str]]:
    """``bad_payloads`` and the fixes whose stamp is not finite, which
    ``encode_fix`` writes but the bag analysis refuses, as the fix CSV does."""
    out = bad_payloads()
    for stamp in (math.nan, math.inf, -math.inf):
        fix = RtkFix("top_left", GeodeticCoord(48.7, 6.15, 220.0), FixQuality.FIXED, stamp)
        out[f"stamp_{stamp}"] = (encode_fix(fix), f", stamp {stamp}")
    return out


def write_bag_with_bad_fix(path, payload: bytes):
    """A board bag of five fixes whose record 3 carries ``payload``."""
    with BagWriter(path) as writer:
        for k in range(5):
            fix = RtkFix(CORNERS[k % 4], GeodeticCoord(48.7, 6.15, 220.0), FixQuality.FIXED,
                         k / 14.0)
            writer.append(f"/{fix.rover_id}/gps/fix", k / 14.0,
                          payload if k == 3 else encode_fix(fix))
    return path
